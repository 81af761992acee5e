"""60-digit references for the normal-tail functions, by mpmath.

Writes the block of literals between the BEGIN and END markers in
tests/test_floors.py: each point with its reference, to 25 significant
digits, which the accuracy tests there read without mpmath.  Imports no
library code.

    python tests/tail_references.py           # rewrite the block
    python tests/tail_references.py --check   # exit 1 if the block differs

References:
  - TAIL: erfc(t)/2 at the double t = x/sqrt(2) that the library computes.
  - LOG_TAIL: ln P(N(0,1) > x) at x itself for x >= 0.  For x < 0 it is
    log1p(-erfc(t)/2) at the double t = -x/sqrt(2): there the log tail is
    about minus the small tail at -x, whose relative error from rounding t
    grows as x**2 * 2**-53, as for TAIL.
  - QUANTILE: the root y of ln(erfc(y/sqrt(2))/2) = ln(epsilon).
"""

import math
import sys
from pathlib import Path
from statistics import NormalDist

import mpmath

mpmath.mp.dps = 60

TARGET = Path(__file__).with_name("test_floors.py")
BEGIN = "# BEGIN tail_references.py output\n"
END = "# END tail_references.py output\n"
DIGITS = 25

TAIL_POINTS = [
    -37.5, -8.0, -3.0, -1.0, -0.25, 0.0, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0,
    12.0, 20.0, 27.0, 35.0, 37.5, 38.0, 38.4,
]
# 35.78342139466302 is the last double whose tail is above the 1e-280 seam,
# so it and the next double sit on either side of it.
LOG_TAIL_POINTS = [
    -40.0, -20.0, -5.0, -1.0, -1e-3, 0.0, 1e-3, 0.5, 1.0, 3.0, 6.0, 10.0,
    20.0, 30.0, 35.0, 35.78342139466302, 35.78342139466303, 36.0, 38.0,
    38.45, 38.6, 40.0, 100.0, 1e3, 1e5, 1e10, 1e50, 1e100, 1e150,
]
QUANTILE_POINTS = [
    5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 1e-200, 1e-100, 1e-50,
    1e-30, 1e-18, 1e-12, 1e-9, 1e-6, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4,
    0.45, 0.49, 0.4999, 0.5,
]


def half_erfc(t):
    return mpmath.erfc(mpmath.mpf(t)) / 2


def tail(x):
    return half_erfc(x / math.sqrt(2.0))


def log_tail(x):
    if x < 0.0:
        return mpmath.log1p(-half_erfc(-x / math.sqrt(2.0)))
    return mpmath.log(half_erfc(mpmath.mpf(x) / mpmath.sqrt(2)))


def quantile(epsilon):
    if epsilon == 0.5:
        return mpmath.mpf(0)
    target = mpmath.log(mpmath.mpf(epsilon))
    root = mpmath.findroot(
        lambda y: mpmath.log(half_erfc(y / mpmath.sqrt(2))) - target,
        mpmath.mpf(-NormalDist().inv_cdf(epsilon)),
    )
    residual = mpmath.log(half_erfc(root / mpmath.sqrt(2))) - target
    assert abs(residual) < mpmath.mpf(10) ** -50, (epsilon, residual)
    return root


def block():
    lines = [BEGIN]
    for name, points, reference in (
        ("TAIL_REFERENCES", TAIL_POINTS, tail),
        ("LOG_TAIL_REFERENCES", LOG_TAIL_POINTS, log_tail),
        ("QUANTILE_REFERENCES", QUANTILE_POINTS, quantile),
    ):
        lines.append(f"{name} = [\n")
        for point in points:
            value = mpmath.nstr(reference(point), DIGITS, min_fixed=0, max_fixed=0)
            lines.append(f"    ({point!r}, {value!r}),\n")
        lines.append("]\n")
    lines.append(END)
    return "".join(lines)


def main(argv):
    text = TARGET.read_text()
    head, rest = text.split(BEGIN)
    _, tail_text = rest.split(END)
    new = head + block() + tail_text
    if argv == ["--check"]:
        if new != text:
            print(f"{TARGET.name}: tail references differ from mpmath's", file=sys.stderr)
            return 1
        return 0
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    TARGET.write_text(new)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
