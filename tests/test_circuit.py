"""Switched-RC stage energetics.

Closed-form expectations were frozen from independent high-precision
evaluation (40-digit arithmetic) before the implementation existed.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ktfloor import PhysicalEnvironment, RcStage, integrated_charge_dissipation
from ktfloor.circuit import MAX_QUADRATURE_POINTS

ENV300 = PhysicalEnvironment(temperature=300.0)


def make_stage(cap=1e-15, res=1e6, swing=24.08e-3):
    return RcStage(capacitance=cap, resistance=res, swing_voltage=swing, env=ENV300)


class TestValidation:
    def test_rejects_nonpositive_capacitance(self):
        with pytest.raises(ValueError):
            make_stage(cap=0.0)
        with pytest.raises(ValueError):
            make_stage(cap=-1e-15)

    def test_rejects_nonpositive_resistance(self):
        # R = 0 is singular: no correlation time, infinite peak power.
        with pytest.raises(ValueError):
            make_stage(res=0.0)

    def test_rejects_negative_swing(self):
        with pytest.raises(ValueError):
            make_stage(swing=-0.1)

    @pytest.mark.parametrize("field", ["cap", "res", "swing"])
    def test_rejects_infinite_fields_by_name(self, field):
        name = {"cap": "capacitance", "res": "resistance", "swing": "swing_voltage"}
        with pytest.raises(ValueError, match=f"^{name[field]} must be finite, got inf$"):
            make_stage(**{field: math.inf})

    def test_zero_swing_is_allowed_and_free(self):
        stage = make_stage(swing=0.0)
        assert stage.charge_energy() == 0.0
        assert stage.full_cycle_dissipation().total_dissipated == 0.0


class TestChargeEnergy:
    def test_unit_example(self):
        stage = RcStage(1e-15, 1.0, 1.0, ENV300)
        assert stage.charge_energy() == 5.0e-16

    def test_gate_example_in_joules_and_kt(self):
        stage = make_stage()
        e1 = stage.charge_energy()
        assert e1 == pytest.approx(2.899232e-19, rel=1e-6)
        # 69.99683965 kT: the canonical ~70 kT single-charge figure.
        assert ENV300.joules_to_kt(e1) == pytest.approx(69.99683965, rel=1e-9)

    def test_correlation_time(self):
        assert make_stage().correlation_time == pytest.approx(1e-9, rel=1e-15)

    @pytest.mark.parametrize("cap, swing", [(1e-15, 1e300), (1e300, 1e10)])
    def test_overflow_names_the_swing(self, cap, swing):
        stage = make_stage(cap=cap, swing=swing)
        with pytest.raises(ValueError, match=r"C\*U1\*\*2/2") as info:
            stage.charge_energy()
        assert repr(swing) in str(info.value)


class TestCycleLedger:
    def test_step_dissipation_is_resistance_independent_bitwise(self):
        values = [
            make_stage(res=r).step_charge_dissipation()
            for r in (1e2, 1e3, 1e6, 1e9)
        ]
        assert len(set(values)) == 1

    def test_half_stored_half_burned_then_all_burned(self):
        stage = make_stage()
        ledger = stage.full_cycle_dissipation()
        e1 = stage.charge_energy()
        assert ledger.stored_after_charge == e1
        assert ledger.dissipated_on_charge == e1
        assert ledger.dissipated_on_discharge == e1

    def test_cycle_total_is_c_u1_squared_bitwise(self):
        stage = make_stage()
        ledger = stage.full_cycle_dissipation()
        assert ledger.total_dissipated == (
            stage.capacitance * stage.swing_voltage**2
        )

    @given(
        st.floats(min_value=1e-18, max_value=1e-9),
        st.floats(min_value=1e-4, max_value=10.0),
    )
    def test_cycle_total_bitwise_across_parameter_space(self, cap, swing):
        stage = RcStage(cap, 1e3, swing, ENV300)
        assert stage.full_cycle_dissipation().total_dissipated == cap * swing**2

    @given(st.floats(min_value=0.25, max_value=4.0))
    def test_energy_scales_with_swing_squared(self, factor):
        base = make_stage().full_cycle_dissipation().total_dissipated
        scaled = make_stage(
            swing=factor * 24.08e-3
        ).full_cycle_dissipation().total_dissipated
        assert scaled == pytest.approx(factor**2 * base, rel=1e-13)


class TestTransient:
    def test_time_zero(self):
        stage = make_stage()
        v, p = stage.transient_power(0.0)
        assert v == 0.0
        assert p == pytest.approx(stage.swing_voltage**2 / stage.resistance, rel=1e-15)

    def test_one_time_constant(self):
        stage = make_stage()
        v, _ = stage.transient_power(stage.correlation_time)
        # 1 - 1/e of the swing after one RC.
        assert v == pytest.approx(0.63212055882856 * stage.swing_voltage, rel=1e-12)

    def test_vectorized_and_monotone(self):
        stage = make_stage()
        t = np.linspace(0.0, 10e-9, 101)
        v, p = stage.transient_power(t)
        assert v.shape == p.shape == (101,)
        assert np.all(np.diff(v) > 0)
        assert np.all(np.diff(p) < 0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            make_stage().transient_power(-1e-12)

    @pytest.mark.parametrize(
        "t", [math.nan, [0.0, math.nan, 1e-9]], ids=["scalar", "array"]
    )
    def test_nan_time_rejected(self, t):
        with pytest.raises(ValueError, match="^transient time must be >= 0 s$"):
            make_stage().transient_power(t)


class TestQuadratureCrossCheck:
    def test_integral_matches_closed_form(self):
        stage = make_stage()
        integral = integrated_charge_dissipation(stage)
        assert integral == pytest.approx(stage.charge_energy(), rel=1e-4)
        # The default grid does far better than the contract asks.
        assert integral == pytest.approx(stage.charge_energy(), rel=1e-5)

    def test_integral_across_decades(self):
        for cap, res, swing in [(1e-16, 1e3, 0.5), (1e-12, 1e7, 1e-3)]:
            stage = RcStage(cap, res, swing, ENV300)
            assert integrated_charge_dissipation(stage) == pytest.approx(
                stage.charge_energy(), rel=1e-4
            )

    def test_grid_past_point_limit_is_refused_before_allocating(self):
        # 2e13 points would need 145 TiB per array.
        with pytest.raises(ValueError) as info:
            integrated_charge_dissipation(make_stage(), step_fraction=1e-12)
        assert str(info.value) == (
            "horizon 20.0 / step_fraction 1e-12 needs 2e+13 grid points; "
            f"the limit is {MAX_QUADRATURE_POINTS}"
        )
        # An overflowing quotient is refused by the same message.
        with pytest.raises(ValueError, match="needs inf grid points"):
            integrated_charge_dissipation(
                make_stage(), step_fraction=5e-324, horizon=1e300
            )

    def test_bad_grid_parameters_rejected(self):
        with pytest.raises(ValueError):
            integrated_charge_dissipation(make_stage(), step_fraction=0.0)
        with pytest.raises(ValueError):
            integrated_charge_dissipation(make_stage(), horizon=-1.0)


def test_noise_sigma_is_equipartition():
    stage = make_stage()
    assert stage.noise_sigma == math.sqrt(ENV300.thermal_energy() / 1e-15)
    assert stage.noise_sigma == pytest.approx(2.0352e-3, rel=1e-4)
