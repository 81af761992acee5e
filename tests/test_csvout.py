"""The CSV writer's numpy rendering of ``%.8e`` against Python's ``%``.

The families and the comparison come from tests/csv_format_check.py, which
CI runs at 10**7 random bit patterns; these draw fewer, from fixed seeds.
"""

import numpy as np
import pytest

from csv_format_check import edge_values, mismatches, random_bits, ties

EDGES = edge_values()


def test_random_bit_patterns():
    assert mismatches(random_bits(np.random.default_rng(1), 200_000)) == []


def test_decimal_ties():
    assert mismatches(ties(np.random.default_rng(2), 100_000)) == []


def test_every_decade():
    rng = np.random.default_rng(3)
    values = np.exp(rng.uniform(-745.0, 709.0, 100_000)) * rng.choice([-1.0, 1.0], 100_000)
    assert mismatches(values) == []


@pytest.mark.parametrize("name", sorted(EDGES))
def test_edge_values(name):
    values = EDGES[name]
    assert mismatches(np.concatenate([values, -values])) == []

