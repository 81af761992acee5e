"""Follower-gate cycle audits and claim checking."""

import math
import sys

import numpy as np
import pytest

from ktfloor import (
    FollowerGate,
    PhysicalEnvironment,
    RcStage,
    audit_claim,
    run_cycle,
)
from ktfloor.audit import (
    CLAIM_CONSISTENT,
    CLAIM_NEGLECTS,
    VERDICT_AT_OR_ABOVE_FLOOR,
    VERDICT_AT_OR_ABOVE_KT,
    VERDICT_BELOW_FLOOR,
    VERDICT_NOT_APPLICABLE,
    VERDICT_SUB_KT,
)
from test_floors import LOG_TAIL_REFERENCES

ENV300 = PhysicalEnvironment(temperature=300.0)
KT300 = ENV300.thermal_energy()

# The worked reference gate: 1 fF input charged to 24.08 mV at 300 K.
# Threshold at half swing is 5.9159 sigma -> epsilon 1.6499e-9; one cycle
# burns 139.994 kT of charging energy.
GATE_EPSILON = 1.6498649984e-9
GATE_CYCLE_KT = 139.9936793


def make_gate(friction_kt=0.5, swing=24.08e-3, threshold_fraction=0.5):
    stage = RcStage(
        capacitance=1e-15, resistance=1e6, swing_voltage=swing, env=ENV300
    )
    return FollowerGate(
        stage=stage,
        friction_energy_per_transition=friction_kt * KT300,
        threshold_fraction=threshold_fraction,
    )


class TestConstruction:
    def test_negative_friction_rejected(self):
        with pytest.raises(ValueError):
            make_gate(friction_kt=-0.1)

    def test_threshold_fraction_domain(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                make_gate(threshold_fraction=bad)


class TestRunCycle:
    def test_reference_gate_numbers(self):
        report = run_cycle(make_gate())
        assert report.epsilon_per_observation == pytest.approx(
            GATE_EPSILON, rel=1e-9
        )
        assert report.e_input_cycle_kt == pytest.approx(GATE_CYCLE_KT, rel=1e-9)
        assert report.e_friction_cycle_kt == pytest.approx(1.0, rel=1e-12)
        assert report.e_total_cycle_kt == pytest.approx(
            GATE_CYCLE_KT + 1.0, rel=1e-9
        )

    def test_reference_gate_floor_and_verdicts(self):
        report = run_cycle(make_gate())
        assert report.floor_short_kt == pytest.approx(
            -math.log(report.epsilon_per_observation), rel=1e-12
        )
        assert report.floor_short_kt == pytest.approx(20.2226, abs=1e-3)
        assert report.verdict_friction_only == VERDICT_SUB_KT
        assert report.verdict_total == VERDICT_AT_OR_ABOVE_FLOOR

    def test_kt_views_are_exact_divisions(self):
        report = run_cycle(make_gate())
        assert report.e_input_cycle_kt == ENV300.joules_to_kt(report.e_input_cycle)
        assert report.e_total_cycle_kt == ENV300.joules_to_kt(report.e_total_cycle)

    def test_friction_verdict_depends_only_on_friction(self):
        for swing in (1e-3, 24.08e-3, 0.5):
            assert (
                run_cycle(make_gate(friction_kt=0.5, swing=swing)).verdict_friction_only
                == VERDICT_SUB_KT
            )
            assert (
                run_cycle(make_gate(friction_kt=1.5, swing=swing)).verdict_friction_only
                == VERDICT_AT_OR_ABOVE_KT
            )

    def test_friction_verdict_boundary_is_at_or_above(self):
        assert (
            run_cycle(make_gate(friction_kt=1.0)).verdict_friction_only
            == VERDICT_AT_OR_ABOVE_KT
        )

    def test_zero_swing_gate_is_a_coin(self):
        report = run_cycle(make_gate(friction_kt=0.0, swing=0.0))
        assert report.epsilon_per_observation == 0.5
        assert report.floor_short_kt is None
        assert report.floor_short_joule is None
        assert report.verdict_total == VERDICT_NOT_APPLICABLE
        assert report.e_total_cycle == 0.0

    def test_doubling_swing_quadruples_input_energy(self):
        small = run_cycle(make_gate(swing=12.04e-3))
        large = run_cycle(make_gate(swing=24.08e-3))
        assert large.e_input_cycle == pytest.approx(
            4.0 * small.e_input_cycle, rel=1e-12
        )
        assert large.epsilon_per_observation < small.epsilon_per_observation

    def test_practical_gates_sit_at_or_above_the_floor(self):
        # Swings of 2..12 sigma: charging alone always covers kT*ln(1/eps).
        sigma = math.sqrt(KT300 / 1e-15)
        for x in np.linspace(1.0, 6.0, 11):
            report = run_cycle(make_gate(friction_kt=0.0, swing=2.0 * x * sigma))
            assert report.verdict_total == VERDICT_AT_OR_ABOVE_FLOOR

    def test_tiny_swing_gate_falls_below_its_coin_floor(self):
        # A nearly-useless gate (eps ~ 0.5) spends almost nothing and lands
        # under the ln 2 floor for its terrible error rate: the audit reports
        # that honestly rather than calling it a win.
        sigma = math.sqrt(KT300 / 1e-15)
        report = run_cycle(make_gate(friction_kt=0.0, swing=0.02 * sigma))
        assert report.epsilon_per_observation > 0.49
        assert report.verdict_total == VERDICT_BELOW_FLOOR

    def test_volt_scale_swing_survives_epsilon_underflow(self):
        # At 1 V swing the threshold sits ~246 sigma out and the tail
        # probability underflows double precision.  The audit must still
        # produce a finite floor, bracketed here by the Mills-ratio bounds
        #   x**2/2 + ln(sqrt(2pi)*x) < -ln(tail(x)) < x**2/2 + ln(sqrt(2pi)*(1+x**2)/x)
        report = run_cycle(make_gate(swing=1.0))
        assert report.epsilon_per_observation == 0.0
        sigma = math.sqrt(KT300 / 1e-15)
        x = 0.5 / sigma
        lower = x * x / 2.0 + math.log(math.sqrt(2.0 * math.pi) * x)
        upper = x * x / 2.0 + math.log(math.sqrt(2.0 * math.pi) * (1.0 + x * x) / x)
        assert lower < report.floor_short_kt < upper
        assert report.floor_short_joule == pytest.approx(
            report.floor_short_kt * KT300, rel=1e-15
        )
        assert report.verdict_total == VERDICT_AT_OR_ABOVE_FLOOR

    def test_floor_is_exact_where_epsilon_is_subnormal(self):
        # At 38.45 sigma epsilon is a subnormal with a few significant bits,
        # so ln(1/epsilon) would be 0.02 kT off.  The floor must match the
        # 60-digit log tail at that point instead.
        x, reference = next(pair for pair in LOG_TAIL_REFERENCES if pair[0] == 38.45)
        sigma = math.sqrt(KT300 / 1e-15)
        report = run_cycle(make_gate(swing=2.0 * x * sigma))
        assert 0.5 * report.gate.stage.swing_voltage / sigma == pytest.approx(x, rel=1e-15)
        assert 0.0 < report.epsilon_per_observation < sys.float_info.min
        assert report.floor_short_kt == pytest.approx(-float(reference), rel=1e-12)

    def test_zero_temperature_bath_rejected(self):
        # The bath is refused where it is built, so no gate can reach the audit.
        with pytest.raises(ValueError, match="kT > 0 J"):
            RcStage(1e-15, 1e6, 24.08e-3, PhysicalEnvironment(temperature=0.0))


class TestAuditClaim:
    def test_friction_only_claim_neglects_charging(self):
        gate = make_gate(friction_kt=0.5)
        assert audit_claim(gate, 0.5 * KT300) == CLAIM_NEGLECTS

    def test_honest_per_op_claim_is_consistent(self):
        gate = make_gate(friction_kt=0.5)
        report = run_cycle(gate)
        per_op = 0.5 * report.e_total_cycle
        assert audit_claim(gate, per_op) == CLAIM_CONSISTENT
        assert audit_claim(gate, 2.0 * per_op) == CLAIM_CONSISTENT

    def test_just_below_per_op_is_flagged(self):
        gate = make_gate(friction_kt=0.5)
        per_op = 0.5 * run_cycle(gate).e_total_cycle
        assert audit_claim(gate, 0.999 * per_op) == CLAIM_NEGLECTS

    def test_zero_swing_gate_cannot_neglect_nothing(self):
        # The verdict names a specific bookkeeping omission; with no charging
        # channel at all there is nothing to omit, whatever the friction.
        gate = make_gate(friction_kt=0.5, swing=0.0)
        assert audit_claim(gate, 0.0) == CLAIM_CONSISTENT
        gate_free = make_gate(friction_kt=0.0, swing=0.0)
        assert audit_claim(gate_free, 0.0) == CLAIM_CONSISTENT

    def test_negative_claim_rejected(self):
        with pytest.raises(ValueError):
            audit_claim(make_gate(), -1e-21)


def test_cycle_energies_match_the_audit_and_the_claim_check():
    gate = make_gate(friction_kt=0.5)
    e_friction, e_input, e_total = gate.cycle_energies()
    report = run_cycle(gate)
    assert (e_friction, e_input, e_total) == (
        report.e_friction_cycle, report.e_input_cycle, report.e_total_cycle
    )
    assert e_friction == 2.0 * ENV300.kt_to_joules(0.5)
    assert e_input == gate.stage.full_cycle_dissipation().total_dissipated
    # The claim check draws the line at half the same cycle total.
    assert audit_claim(gate, 0.5 * e_total) == CLAIM_CONSISTENT
    assert audit_claim(gate, math.nextafter(0.5 * e_total, 0.0)) == CLAIM_NEGLECTS
