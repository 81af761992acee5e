"""The one writer for ktfloor's numeric CSV files.

RFC-4180 with CRLF line ends, every number as ``%.8e`` and an empty cell for
None.  ``%.8e`` text holds no comma, quote or line break and every row has
more than one field, so no cell ever needs quoting.  Callers hand the numbers
over as one packed float64 table, 8 bytes a cell.  Each row is laid out in a
NUL-padded buffer of 20-byte cells, 16 bytes for the text and 4 for the
``,`` or CRLF that ends it; the constant cells are rendered once, by ``%``,
into every row.  The writer fills ``_BLOCK_ROWS`` rows at a time and writes
them with the NULs removed, so the buffer and text in flight stay about 20
bytes a cell (0.5 MB for a 25-column sweep) whatever the table's size.

Method.  Every varying cell x is rendered in numpy.  Its decimal exponent is
taken as E = floor(log10|x|) and its mantissa as m = |x| * 10**(8 - E), the
power read from a table of doubles parsed from ``"1e{k}"``, which are
correctly rounded.  Where the tests below fail, E steps up by one if
rint(m) >= 1e9 and down if rint(m) <= 1e8, and m is formed again.  Two
integer divisions split rint(m) into 2 + 4 + 3 digits; with the sign they
select the 4-byte words ``[-]d.d``, ``dddd`` and ``ddde`` from tables of
their text, and E selects the word of its sign and two or three digits.
±0.0 take the same path, with mantissa 0 and E = 0.

Exactness.  m is two roundings away from the exact mantissa x * 10**(8 - E),
so where rint(m) < 1e9 the two differ by at most about 1e9 * 2**-52 = 2.3e-7.
Where also |m - rint(m)| < 0.499999, the exact mantissa is less than 0.5
from rint(m), so rint(m) is its correct rounding.  Where, last, m > 1e8 -
0.05, E is the text's exponent: a value of the decade below has m that close
to 1e8 only when its own rounding reaches 1e9 and carries up to 1.00000000.
A cell that fails a test even after E steps, one within 1e-6 of a rounding
tie, one with |E| > 290 where the powers leave the normal range, inf or nan,
is rendered by ``'%.8e' % x``, which stays the definition.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from functools import cache

import numpy as np

_BLOCK_ROWS = 1024
# The exponents the vectorized path renders: 10**(8 - E), and |x| times it
# for any x with exponent E, are normal doubles.
_E_MAX = 290
# Short of 0.5 by four times the mantissa's rounding error.
_MARGIN = 0.499999
# An m at or below 1e8 - 0.05 may be the mantissa of a value one decade down
# whose own 9-digit rounding stops short of 1e9 and does not carry up.
_LEAST = 1e8 - 0.05 + 1e-6
_CELL = np.dtype([("text", "S16"), ("end", "S4")])


@cache
def _tables():
    """The powers 10**(8 - E) and the text words, built on first use."""
    exponents = range(-_E_MAX, _E_MAX + 1)
    powers = np.array([float(f"1e{8 - e}") for e in exponents])

    def digits(count, width):
        place = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint16)
        values = np.arange(count, dtype=np.uint16)[:, None]
        return (values // place % 10 + ord("0")).astype(np.uint8)

    lead = np.zeros((2, 100, 4), np.uint8)  # by (sign, first two digits)
    lead[1, :, 0] = ord("-")
    lead[:, :, [1, 3]] = digits(100, 2)
    lead[:, :, 2] = ord(".")
    last = np.full((1000, 4), ord("e"), np.uint8)
    last[:, :3] = digits(1000, 3)
    exps = b"".join(s[:1] + s[1:].rjust(3, b"\0") for s in (b"%+03d" % e for e in exponents))
    words = [w.view(np.uint32).ravel() for w in (lead, digits(10000, 4), last)]
    return powers, *words, np.frombuffer(exps, np.uint32)


def _mantissa(powers, a, e, zero):
    """rint(a * 10**(8 - E)) for E = e - _E_MAX, and where both are the text's."""
    m = powers.take(e, mode="clip")
    m *= a
    exact = (m > _LEAST) | zero
    r = np.rint(m)
    exact &= r < 1e9
    m -= r
    np.abs(m, out=m)
    exact &= m < _MARGIN
    return r, exact


@np.errstate(invalid="ignore")
def _render(x: np.ndarray) -> np.ndarray:
    """``'%.8e' % v`` for each v of the 1-D float64 ``x``, as NUL-padded S16."""
    powers, lead, mid, last, exps = _tables()
    a = np.abs(x)
    zero = np.logical_not(a)
    # log10 + _E_MAX is at least 0 where E >= -_E_MAX, so the cast floors it.
    # Elsewhere (E < -_E_MAX, inf, nan) the cast may give any integer: every
    # table clips it alike, and the tests check whatever power it selects.
    e = np.log10(a + zero)
    e += _E_MAX
    e = e.astype(np.intp)
    r, exact = _mantissa(powers, a, e, zero)
    slow = []
    if np.count_nonzero(exact) < len(x):
        off = np.flatnonzero(~exact)
        r_off = r[off]
        e_off = e[off] + (r_off >= 1e9) - (r_off <= 1e8)
        r[off], exact_off = _mantissa(powers, a[off], e_off, False)
        e[off] = e_off
        slow = off[~exact_off]
    q = r.astype(np.intp)
    q += np.signbit(x) * 10**9  # selects the lead words with a minus sign
    q, low = np.divmod(q, 1000)
    q, middle = np.divmod(q, 10000)
    words = np.empty((len(x), 4), np.uint32)
    lead.take(q, out=words[:, 0], mode="clip")
    mid.take(middle, out=words[:, 1], mode="clip")
    last.take(low, out=words[:, 2], mode="clip")
    exps.take(e, out=words[:, 3], mode="clip")
    text = words.view("S16").ravel()
    if len(slow):
        text[slow] = ["%.8e" % v for v in x[slow].tolist()]
    return text


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
    template = np.zeros(len(header), _CELL)
    template["text"] = [
        "" if fixed.get(name) is None else "%.8e" % fixed[name] for name in header
    ]
    template["end"] = ","
    template["end"][-1] = "\r\n"
    varying = [j for j, name in enumerate(header) if name not in fixed]
    rows = np.empty((min(len(table), _BLOCK_ROWS), len(header)), _CELL)
    rows.view(np.uint32)[:] = template.view(np.uint32)  # faster than by fields
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for start in range(0, len(table), _BLOCK_ROWS):
            block = table[start:start + _BLOCK_ROWS]
            filled = rows[:len(block)]
            filled["text"][:, varying] = _render(block.ravel()).reshape(len(block), len(varying))
            fh.write(filled.tobytes().translate(None, b"\0"))
