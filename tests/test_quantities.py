"""Thermal environment and unit conversions."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktfloor import BOLTZMANN_CONSTANT, PhysicalEnvironment
from ktfloor.quantities import require


def test_thermal_energy_room_temperature():
    env = PhysicalEnvironment(temperature=300.0)
    assert env.thermal_energy() == pytest.approx(4.141947e-21, rel=1e-12)


def test_thermal_energy_is_linear_in_temperature():
    e1 = PhysicalEnvironment(temperature=150.0).thermal_energy()
    e2 = PhysicalEnvironment(temperature=300.0).thermal_energy()
    assert e2 == pytest.approx(2.0 * e1, rel=1e-15)


def test_one_joule_temperature():
    env = PhysicalEnvironment(temperature=1.0 / BOLTZMANN_CONSTANT)
    assert env.thermal_energy() == pytest.approx(1.0, rel=1e-12)


def test_zero_temperature_rejected():
    with pytest.raises(ValueError) as info:
        PhysicalEnvironment(temperature=0.0)
    assert str(info.value) == "temperature must be finite and give kT > 0 J, got 0.0 K"


def test_negative_temperature_rejected():
    with pytest.raises(ValueError):
        PhysicalEnvironment(temperature=-1.0)


@pytest.mark.parametrize("temperature", [math.inf, math.nan])
def test_non_finite_temperature_rejected(temperature):
    with pytest.raises(ValueError, match="finite"):
        PhysicalEnvironment(temperature=temperature)


def test_kt_units_undefined_at_zero_temperature():
    # 5e-324 K is positive, but kT underflows to 0 J, so kT units would be
    # undefined; the bath is refused before any conversion can divide by 0.
    assert BOLTZMANN_CONSTANT * 5e-324 == 0.0
    with pytest.raises(ValueError, match="give kT > 0 J, got 5e-324 K"):
        PhysicalEnvironment(temperature=5e-324)


def test_conversion_examples():
    env = PhysicalEnvironment(temperature=300.0)
    assert env.kt_to_joules(70.0) == pytest.approx(2.8993629e-19, rel=1e-6)
    assert env.joules_to_kt(4.141947e-21) == pytest.approx(1.0, rel=1e-12)


@given(
    st.floats(
        min_value=1e-30,
        max_value=1e6,
        allow_nan=False,
        allow_infinity=False,
    )
)
def test_conversions_roundtrip_within_one_ulp(energy_kt):
    env = PhysicalEnvironment(temperature=300.0)
    back = env.joules_to_kt(env.kt_to_joules(energy_kt))
    assert abs(back - energy_kt) <= math.ulp(energy_kt)


def test_environment_is_immutable():
    env = PhysicalEnvironment(temperature=300.0)
    with pytest.raises(AttributeError):
        env.temperature = 400.0


HUGE_INT = 10**400


class TestRequire:
    @pytest.mark.parametrize(
        "value, bound",
        [
            (1e-15, {"gt": 0}),
            (0.0, {"ge": 0}),
            (2, {"ge": 2}),
            (HUGE_INT, {"gt": 0}),
            (HUGE_INT, {"ge": 1}),
        ],
    )
    def test_value_in_range_is_returned_unchanged(self, value, bound):
        assert require("x", value, "F", **bound) is value

    @pytest.mark.parametrize(
        "value, bound, message",
        [
            (0.0, {"gt": 0}, "capacitance must be > 0 F, got 0.0"),
            (-0.5, {"ge": 0}, "capacitance must be >= 0 F, got -0.5"),
            (math.nan, {"gt": 0}, "capacitance must be > 0 F, got nan"),
            (math.nan, {"ge": 0}, "capacitance must be >= 0 F, got nan"),
            (-math.inf, {"gt": 0}, "capacitance must be > 0 F, got -inf"),
            (-math.inf, {"ge": 0}, "capacitance must be >= 0 F, got -inf"),
            (math.inf, {"gt": 0}, "capacitance must be finite, got inf"),
            (math.inf, {"ge": 0}, "capacitance must be finite, got inf"),
            (-HUGE_INT, {"gt": 0}, f"capacitance must be > 0 F, got {-HUGE_INT}"),
        ],
    )
    def test_bound_is_checked_before_finiteness(self, value, bound, message):
        with pytest.raises(ValueError) as info:
            require("capacitance", value, "F", **bound)
        assert str(info.value) == message

    def test_bound_without_unit_has_no_trailing_space(self):
        with pytest.raises(ValueError) as info:
            require("trials", 0, ge=1)
        assert str(info.value) == "trials must be >= 1, got 0"

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_finiteness_alone(self, value):
        with pytest.raises(ValueError) as info:
            require("observation_time", value)
        assert str(info.value) == f"observation_time must be finite, got {value!r}"

    def test_integer_too_large_for_a_float_is_finite(self):
        # Never converted: float(10**400) would raise OverflowError.
        assert require("n_switch_events", HUGE_INT, ge=2) == HUGE_INT
        assert require("n_switch_events", HUGE_INT) == HUGE_INT

    def test_finite_false_admits_inf_but_not_nan(self):
        assert require("sigma", math.inf, "V", gt=0, finite=False) == math.inf
        with pytest.raises(ValueError, match=r"^sigma must be > 0 V, got nan$"):
            require("sigma", math.nan, "V", gt=0, finite=False)
