"""The one writer for ktfloor's numeric CSV files.

RFC-4180 with CRLF line ends, every number as ``%.8e`` and an empty cell for
None.  ``%.8e`` text holds no comma, quote, line break or ``%`` and every
row has more than one field, so no cell ever needs quoting and a whole row
can be formatted by one ``%`` template, with its constant cells already
rendered into it, instead of cell by cell.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence


def _cell(value: float | None) -> str:
    return "" if value is None else "%.8e" % value


def write_numeric_csv(
    path,
    header: Sequence[str],
    rows: Iterable[Sequence[float]],
    fixed: Mapping[str, float | None] | None = None,
) -> None:
    """Write ``header`` and then one line per row.

    ``fixed`` maps a column to the one value, a number or None, that it holds
    in every row; those cells are rendered once into the row template.  Each
    row holds the numbers of the other columns, in header order.
    """
    fixed = fixed or {}
    template = ",".join(
        _cell(fixed[name]) if name in fixed else "%.8e" for name in header
    ) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(template % tuple(row))
