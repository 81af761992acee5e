"""LC recycling: schedule, efficiency, RK4 cross-check, break-even."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from ktfloor import PhysicalEnvironment, TankCircuit, symmetric_tank_efficiency
from rk4_oracle import two_phase_transfer

ENV300 = PhysicalEnvironment(temperature=300.0)

# Symmetric 1 uH / 1 pF tank: sqrt(L/C) = 1 kohm, so R = 10 ohm is q = 100.
# Frozen closed-form values (40-digit evaluation):
ETA_Q100 = 0.9691205011632558
T1_LOSSLESS = 1.5707963267948966e-9
T1_Q100_RELATIVE_SHIFT = 1.250023e-5
BREAK_EVEN_Q100_KT = 144.4608795624  # 2 x 70 kT of switch cost, efficiency-corrected
BREAK_EVEN_Q100_J = 5.98349307e-19


def make_tank(c1=1e-12, c2=1e-12, inductance=1e-6, resistance=0.0, v0=1.0):
    return TankCircuit(
        c1=c1,
        c2=c2,
        inductance=inductance,
        series_resistance=resistance,
        initial_voltage=v0,
    )


class TestConstructionAndSchedule:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            make_tank(c1=0.0)
        with pytest.raises(ValueError):
            make_tank(inductance=-1e-6)
        with pytest.raises(ValueError):
            make_tank(resistance=-1.0)
        with pytest.raises(ValueError):
            make_tank(v0=0.0)

    def test_overdamped_phase_rejected(self):
        # sqrt(L/C) = 1 kohm: R = 2.5 kohm puts q = 0.4.
        with pytest.raises(ValueError):
            make_tank(resistance=2500.0)

    def test_underflowing_lc_names_both(self):
        with pytest.raises(ValueError, match=r"L\*C underflows for L=1e-300 H, C=1e-300"):
            make_tank(inductance=1e-300, c1=1e-300)

    def test_critically_damped_rejected(self):
        # Exactly representable values so alpha**2 == w0**2 at the bit level
        # (1e-6 * 1e-12 rounds to just above 1e-18, which would leave the
        # nominal critical point barely underdamped).
        with pytest.raises(ValueError):
            TankCircuit(
                c1=1.0, c2=1.0, inductance=1.0, series_resistance=2.0,
                initial_voltage=1.0,
            )

    def test_quality_factors(self):
        assert make_tank().quality_factors == (math.inf, math.inf)
        q1, q2 = make_tank(resistance=10.0).quality_factors
        assert q1 == pytest.approx(100.0, rel=1e-12)
        assert q2 == pytest.approx(100.0, rel=1e-12)

    def test_lossless_schedule_is_quarter_period(self):
        t1, t2 = make_tank().transfer_schedule()
        assert t1 == pytest.approx(T1_LOSSLESS, rel=1e-12)
        assert t2 == t1

    def test_asymmetric_schedule(self):
        t1, t2 = make_tank(c2=4e-12).transfer_schedule()
        assert t2 == pytest.approx(2.0 * t1, rel=1e-12)

    def test_damping_shifts_schedule_by_ppm_scale(self):
        t1_damped, _ = make_tank(resistance=10.0).transfer_schedule()
        shift = (t1_damped - T1_LOSSLESS) / T1_LOSSLESS
        assert shift == pytest.approx(T1_Q100_RELATIVE_SHIFT, rel=1e-6)
        assert shift < 1e-4

    @pytest.mark.parametrize("c1, v0", [(1e-12, 1e300), (10.0, 1e154)])
    def test_overflowing_initial_energy_is_refused(self, c1, v0):
        # V0**2 overflows, or stays finite while C1*V0**2/2 does not.
        with pytest.raises(ValueError, match=r"C1\*V0\*\*2/2"):
            make_tank(c1=c1, v0=v0).energy_initial


class TestClosedFormEfficiency:
    def test_lossless_is_exactly_one(self):
        report = make_tank().transfer_efficiency()
        assert report.efficiency == 1.0
        assert report.energy_delivered == report.energy_initial == 5e-13
        assert report.method == "closed-form"

    def test_lossless_asymmetric_is_exactly_one(self):
        assert make_tank(c2=7e-12).transfer_efficiency().efficiency == 1.0

    def test_q100_reference_value(self):
        report = make_tank(resistance=10.0).transfer_efficiency()
        assert report.efficiency == pytest.approx(ETA_Q100, rel=1e-12)
        assert report.efficiency == pytest.approx(math.exp(-math.pi / 100.0), abs=1e-4)

    def test_symmetric_helper_matches_circuit_form(self):
        circuit = make_tank(resistance=10.0).transfer_efficiency().efficiency
        assert symmetric_tank_efficiency(100.0) == pytest.approx(circuit, rel=1e-12)

    def test_symmetric_helper_matches_published_formula(self):
        # exp(-pi / (q*sqrt(1 - d))) / (1 - d)**2 with d = 1/(4 q**2).
        for q in np.geomspace(0.6, 1e4, 401).tolist():
            d = 1.0 / (4.0 * q * q)
            published = math.exp(-math.pi / (q * math.sqrt(1.0 - d))) / (1.0 - d) ** 2
            assert symmetric_tank_efficiency(q) == pytest.approx(published, rel=1e-14)

    def test_symmetric_helper_domain(self):
        with pytest.raises(ValueError):
            symmetric_tank_efficiency(0.5)
        with pytest.raises(ValueError):
            symmetric_tank_efficiency(0.3)
        assert symmetric_tank_efficiency(math.inf) == 1.0

    def test_efficiency_increases_with_quality(self):
        values = [symmetric_tank_efficiency(q) for q in (0.6, 1.0, 2.0, 5.0, 20.0, 100.0)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] < 1.0

    def test_efficiency_decreases_with_larger_destination(self):
        # Fixed R > 0: parking the charge on a bigger C2 costs more because
        # phase 2 rings slower, spending longer in the resistance.
        etas = [
            make_tank(resistance=10.0, c2=c2).transfer_efficiency().efficiency
            for c2 in (1e-12, 2e-12, 5e-12, 1e-11)
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))


class TestSimulation:
    def test_lossless_conserves_energy_to_ode_tolerance(self):
        report = make_tank().simulate_transfer()
        assert report.method == "rk4"
        assert abs(report.efficiency - 1.0) < 1e-6

    def test_q100_matches_closed_form_within_percent(self):
        tank = make_tank(resistance=10.0)
        closed = tank.transfer_efficiency().efficiency
        simulated = tank.simulate_transfer().efficiency
        assert abs(simulated - closed) / closed < 0.01
        # The default step does far better than the 1% contract.
        assert abs(simulated - closed) / closed < 1e-9

    def test_energy_ledger_balances_at_every_recorded_step(self):
        tank = make_tank(resistance=10.0)
        report = tank.simulate_transfer(record=True)
        t, v1, current, v2, e_loss = report.waveform.T
        total = (
            0.5 * tank.c1 * v1**2
            + 0.5 * tank.inductance * current**2
            + 0.5 * tank.c2 * v2**2
            + e_loss
        )
        np.testing.assert_allclose(total, tank.energy_initial, rtol=1e-6)

    def test_waveform_structure(self):
        report = make_tank(resistance=10.0).simulate_transfer(record=True)
        assert report.waveform.shape[1] == 5
        assert report.waveform.dtype == np.float64
        assert report.waveform.flags.c_contiguous
        t = report.waveform[:, 0]
        assert t[0] == 0.0
        assert np.all(np.diff(t) > 0)
        first = report.waveform[0]
        assert first[1] == 1.0 and first[2] == 0.0 and first[3] == 0.0 and first[4] == 0.0
        # Phase 1 rows park nothing on C2.
        t1, _ = make_tank(resistance=10.0).transfer_schedule()
        assert np.all(report.waveform[t < t1, 3] == 0.0)

    def test_recording_holds_the_packed_waveform_alone(self):
        # About 10**5 steps: the waveform's 8-byte cells, and less than as
        # much again while its buffer grows.
        tank = make_tank(resistance=10.0)
        report, peak = traced_peak(lambda: tank.simulate_transfer(dt=3.2e-14, record=True))
        rows = len(report.waveform)
        assert rows > 95_000
        assert peak < 2 * 8 * 5 * rows

    def test_no_waveform_unless_recorded(self):
        assert make_tank().simulate_transfer().waveform is None

    def test_step_size_guard(self):
        tank = make_tank()
        with pytest.raises(ValueError):
            tank.simulate_transfer(dt=1e-10)  # bound is 1e-11 here
        with pytest.raises(ValueError):
            tank.simulate_transfer(dt=0.0)

    def test_step_count_cap_counts_both_phases(self, monkeypatch):
        monkeypatch.setattr("ktfloor.tank.MAX_RK4_STEPS", 1000)
        tank = make_tank()
        t1, t2 = tank.transfer_schedule()
        report = tank.simulate_transfer(dt=(t1 + t2) / 990)
        assert report.efficiency == pytest.approx(1.0, abs=1e-6)
        with pytest.raises(ValueError, match="RK4 steps"):
            tank.simulate_transfer(dt=(t1 + t2) / 1010)

    def test_most_energy_lost_at_low_quality(self):
        # q just above the underdamped bound: the ring is mostly burned.
        report = make_tank(resistance=1800.0).simulate_transfer()
        assert report.efficiency < 0.1

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        inductance=st.floats(1e-9, 1e-5),
        c1=st.floats(1e-14, 1e-10),
        ratio=st.floats(0.1, 10.0),
        # Fraction of the critical resistance 2*sqrt(L/max(C1, C2)); 0 is lossless.
        damping=st.one_of(st.just(0.0), st.floats(0.0, 0.95)),
        v0=st.floats(1e-3, 10.0),
        dt_fraction=st.one_of(st.none(), st.floats(0.3, 1.0)),
    )
    def test_recorded_transfer_matches_two_phase_oracle_bit_for_bit(
        self, inductance, c1, ratio, damping, v0, dt_fraction
    ):
        c2 = c1 * ratio
        assume(c2 != c1)
        resistance = damping * 2.0 * math.sqrt(inductance / max(c1, c2))
        tank = make_tank(c1, c2, inductance, resistance, v0)
        dt = None
        if dt_fraction is not None:
            dt = dt_fraction * math.sqrt(inductance * min(c1, c2)) / 100.0
        report = tank.simulate_transfer(dt=dt, record=True)
        waveform, efficiency = two_phase_transfer(
            c1, c2, inductance, resistance, v0, dt=dt
        )
        # tobytes also tells +0.0 from -0.0, which array_equal does not.
        assert np.array_equal(report.waveform, waveform)
        assert report.waveform.tobytes() == waveform.tobytes()
        assert report.efficiency == efficiency


class TestBreakEven:
    def test_reference_break_even(self):
        tank = make_tank(resistance=10.0)
        result = tank.break_even(e_switch_control=ENV300.kt_to_joules(70.0))
        assert result.efficiency == pytest.approx(ETA_Q100, rel=1e-12)
        assert result.break_even_energy == pytest.approx(BREAK_EVEN_Q100_J, rel=1e-8)
        assert ENV300.joules_to_kt(result.break_even_energy) == pytest.approx(
            BREAK_EVEN_Q100_KT, rel=1e-9
        )

    def test_overhead_is_switch_count_times_energy(self):
        tank = make_tank(resistance=10.0)
        e_switch = ENV300.kt_to_joules(70.0)
        result = tank.break_even(e_switch, n_switch_events=3)
        assert result.overhead == 3 * e_switch
        assert result.break_even_energy == result.overhead / result.efficiency
        assert result.net_saving == (
            result.efficiency * tank.energy_initial - result.overhead
        )

    def test_net_saving_sign_tracks_initial_energy(self):
        e_switch = ENV300.kt_to_joules(70.0)
        # 0.5 J-scale transfer: recycling is an overwhelming win.
        big = make_tank(resistance=10.0).break_even(e_switch)
        assert big.net_saving > 0.0
        # Logic-gate-scale transfer: the switches cost more than it saves.
        v0_small = math.sqrt(2.0 * ENV300.kt_to_joules(140.0) / 1e-12)
        small_tank = make_tank(resistance=10.0, v0=v0_small)
        small = small_tank.break_even(e_switch)
        assert small_tank.energy_initial < small.break_even_energy
        assert small.net_saving < 0.0

    def test_net_saving_is_zero_at_break_even(self):
        e_switch = ENV300.kt_to_joules(70.0)
        probe = make_tank(resistance=10.0).break_even(e_switch)
        v0 = math.sqrt(2.0 * probe.break_even_energy / 1e-12)
        balanced = make_tank(resistance=10.0, v0=v0).break_even(e_switch)
        assert abs(balanced.net_saving) <= 1e-12 * 2.0 * e_switch

    def test_free_switches_always_save(self):
        result = make_tank(resistance=10.0).break_even(0.0)
        assert result.break_even_energy == 0.0
        assert result.net_saving > 0.0

    def test_more_switches_raise_the_bar(self):
        tank = make_tank(resistance=10.0)
        e_switch = ENV300.kt_to_joules(70.0)
        two = tank.break_even(e_switch, n_switch_events=2)
        four = tank.break_even(e_switch, n_switch_events=4)
        assert four.break_even_energy == pytest.approx(
            2.0 * two.break_even_energy, rel=1e-12
        )

    def test_validation(self):
        tank = make_tank(resistance=10.0)
        with pytest.raises(ValueError):
            tank.break_even(-1e-21)
        with pytest.raises(ValueError):
            tank.break_even(1e-21, n_switch_events=1)
        with pytest.raises(ValueError, match="not finite"):
            tank.break_even(1e308, n_switch_events=3)
        with pytest.raises(ValueError, match="^n_switch_events is too large"):
            tank.break_even(1e-21, n_switch_events=10**400)
