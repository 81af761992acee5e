"""Compare the CSV writer's numpy rendering of ``%.8e`` with Python's ``%``.

``csvout`` renders each number in numpy and hands a cell to ``'%.8e' % x``
only where it cannot prove its digits, so ``%`` stays the definition.  This
script renders 10**7 random 64-bit patterns, 10**6 decimal ties and every
edge value below, and compares each cell with ``%``.  The tier-1 tests in
tests/test_csvout.py draw smaller samples of the same families.  Imports no
test framework.  Run it on each numpy in use: the path takes the decimal
exponent from numpy's log10, and a log10 that differs in its last bit must
still give the same text.

    python tests/csv_format_check.py --check   # exit 1 on any mismatch

Families:
  - random_bits: 64-bit patterns read as doubles, so every exponent,
    subnormals, infinities and nans in proportion to their share of the
    bit space;
  - ties: (10k + 5) * 10**j with a 9-digit k.  For 0 <= j <= 5 the value is
    exactly half-way between two 9-digit mantissas, for j < 0 it is the
    double nearest that tie;
  - edge_values(): the named values that sit on a seam of the method.
"""

from __future__ import annotations

import sys

import numpy as np

from ktfloor import csvout

BITS = 10**7
TIES = 10**6
CHUNK = 10**6  # cells compared at once
SEED = 20240


def random_bits(rng, count):
    return rng.integers(0, 2**64, count, dtype=np.uint64).view(np.float64)


def ties(rng, count):
    k = rng.integers(10**8, 10**9, count)
    j = rng.integers(-20, 6, count)
    return (10 * k + 5) * 10.0 ** j


def _ulps(values):
    """Each value and the doubles one ulp below and above it."""
    values = np.asarray(values, np.float64)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


def edge_values():
    """Named arrays of the values on the seams of the vectorized path."""
    decades = range(-323, 309)
    max_double = np.finfo(np.float64).max
    tiny = np.finfo(np.float64).smallest_normal
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, max_double, -max_double, tiny,
                -tiny, 5e-324, -5e-324, 1e-310, tiny - 5e-324]
    return {
        "powers of ten": _ulps([float(f"1e{k}") for k in decades]),
        # Mantissas 9.999999995: rounded to 9 digits they carry into 10.
        "carries": _ulps([float(f"9.999999995e{k}") for k in decades]),
        "1e+-290": _ulps([1e-290, 1e290, 1e-291, 1e291]),
        "specials": np.array(specials),
    }


def mismatches(values):
    """(value, rendered, '%.8e' % value) for every cell rendered wrongly."""
    values = np.ascontiguousarray(values, np.float64)
    cells = np.zeros((len(values), 17), np.uint8)
    cells[:, :16] = csvout._render(values).view(np.uint8).reshape(-1, 16)
    cells[:, 16] = ord("\n")
    got = cells.tobytes().translate(None, b"\0").decode()
    want = ("%.8e\n" * len(values)) % tuple(values.tolist())
    if got == want:
        return []
    return [
        (value, g, w)
        for value, g, w in zip(values.tolist(), got.split(), want.split())
        if g != w
    ]


def main(argv):
    if argv != ["--check"]:
        print(__doc__, file=sys.stderr)
        return 2
    rng = np.random.default_rng(SEED)
    families = {name: [values] for name, values in edge_values().items()}
    families["random_bits"] = (random_bits(rng, CHUNK) for _ in range(BITS // CHUNK))
    families["ties"] = (ties(rng, CHUNK) for _ in range(TIES // CHUNK))
    failed = False
    for name, chunks in families.items():
        count = 0
        wrong = []
        for values in chunks:
            count += len(values)
            wrong += mismatches(values)
        print(f"{name}: {count} cells, {len(wrong)} differ from %")
        for value, got, want in wrong[:10]:
            print(f"  {value!r}: rendered {got!r}, % gives {want!r}")
        failed |= bool(wrong)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
