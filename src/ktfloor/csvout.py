"""The one writer for ktfloor's numeric CSV files.

RFC-4180 with CRLF line ends, every number as ``%.8e`` and an empty cell for
None.  ``%.8e`` text holds no comma, quote, line break or ``%`` and every
row has more than one field, so no cell ever needs quoting and a whole row
can be formatted by one ``%`` template, with its constant cells already
rendered into it, instead of cell by cell.

Callers hand the numbers over as one packed float64 table, 8 bytes a cell.
The writer turns ``_BLOCK_ROWS`` rows at a time into Python floats and
formats the whole block with the template repeated once per row, so the
Python objects and text in flight stay about a thousand rows (about 1 MB
for a 25-column sweep) whatever the table's size.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

_BLOCK_ROWS = 1024


def _cell(value: float | None) -> str:
    return "" if value is None else "%.8e" % value


def write_numeric_csv(
    path,
    header: Sequence[str],
    table: np.ndarray,
    fixed: Mapping[str, float | None] | None = None,
) -> None:
    """Write ``header`` and then one line per row of ``table``.

    ``fixed`` maps a column to the one value, a number or None, that it holds
    in every row; those cells are rendered once into the row template.
    ``table`` is a 2-D float64 array whose columns are the other columns, in
    header order.
    """
    fixed = fixed or {}
    template = ",".join(
        _cell(fixed[name]) if name in fixed else "%.8e" for name in header
    ) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            fh.write((template * len(block)) % tuple(block.ravel().tolist()))
