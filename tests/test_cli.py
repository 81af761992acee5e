"""CLI behavior: output contracts, exit codes, determinism, seeding."""

import argparse
import json
import math
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ktfloor import cli
from ktfloor.cli import _OPTIONS, build_parser, main
from ktfloor.floors import MAX_MC_DRAWS, MAX_MC_OBSERVATIONS
from ktfloor.sweep import DEFAULT_SEED, SweepSpec, compute_rows
from ktfloor.tank import MAX_RK4_STEPS, WAVEFORM_COLUMNS, TankCircuit


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFloorCommand:
    def test_table_shows_the_seventy_kt_figure(self, capsys):
        code, out, _ = run_cli(capsys, "floor", "--epsilon", "1e-30")
        assert code == 0
        assert "69.08 kT" in out

    def test_json_short_floor(self, capsys):
        code, out, _ = run_cli(capsys, "floor", "--epsilon", "1e-30", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["short"]["floor_kT"] == pytest.approx(
            69.07755278982137, rel=1e-12
        )
        assert payload["long"] is None

    def test_json_long_floor(self, capsys):
        code, out, _ = run_cli(
            capsys, "floor", "--epsilon", "1e-25",
            "--t-obs", "3.156e7", "--tau", "1e-10", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["long"]["floor_kT"] == pytest.approx(
            97.85787930873355, rel=1e-12
        )

    def test_epsilon_domain_error_names_interval(self, capsys):
        code, _, err = run_cli(capsys, "floor", "--epsilon", "0.7")
        assert code == 2
        assert "(0, 0.5)" in err

    def test_infinite_observation_time_is_refused_by_name(self, capsys):
        code, out, err = run_cli(
            capsys, "floor", "--epsilon", "1e-30", "--t-obs", "inf", "--tau", "1e-10"
        )
        assert (code, out) == (2, "")
        assert err == "error: observation_time must be finite, got inf\n"

    def test_overflowing_window_ratio_is_refused_by_name(self, capsys):
        code, out, err = run_cli(
            capsys, "floor", "--epsilon", "1e-30", "--t-obs", "1e308", "--tau", "1e-300"
        )
        assert (code, out) == (2, "")
        assert err == "error: t_o/tau overflows for t_o=1e+308 s, tau=1e-300 s\n"

    @pytest.mark.parametrize("temp", ["0", "5e-324"])
    def test_temperature_without_positive_kt_is_refused(self, capsys, temp):
        # 5e-324 K is positive, but kT underflows to 0 J.
        code, out, err = run_cli(capsys, "floor", "--epsilon", "1e-9", "--temp", temp)
        assert (code, out) == (2, "")
        assert err == (
            "error: temperature must be finite and give kT > 0 J, "
            f"got {float(temp)!r} K\n"
        )

    def test_half_specified_long_floor_rejected(self, capsys):
        code, _, err = run_cli(capsys, "floor", "--epsilon", "1e-9", "--tau", "1e-9")
        assert code == 2
        assert "--t-obs" in err


class TestCycleCommand:
    REFERENCE = (
        "cycle", "--cap", "1e-15", "--swing", "24.08e-3", "--friction-kt", "0.5",
    )

    def test_reference_gate_json(self, capsys):
        code, out, _ = run_cli(capsys, *self.REFERENCE, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon_per_observation"] == pytest.approx(
            1.6498649984e-9, rel=1e-8
        )
        assert payload["e_input_kT"] == pytest.approx(139.9936793, rel=1e-9)
        assert payload["e_total_kT"] == pytest.approx(140.9936793, rel=1e-9)
        assert payload["verdict_friction_only"] == "sub-kT"
        assert payload["verdict_total"] == "at-or-above-floor"
        assert payload["claim_verdict"] is None

    def test_floor_is_exact_where_epsilon_is_subnormal(self, capsys):
        # 38.47 sigma: epsilon is the smallest subnormal, 4.94e-324, whose
        # ln(1/epsilon) would print 744.44 kT.
        code, out, _ = run_cli(capsys, "cycle", "--cap", "1e-15", "--swing", "0.1566")
        assert code == 0
        assert "epsilon per obs   4.94065646e-324\n" in out
        assert "floor (short)     744.67 kT = " in out

    def test_per_operation_accounting_halves_energies(self, capsys):
        _, out_cycle, _ = run_cli(capsys, *self.REFERENCE, "--json")
        _, out_op, _ = run_cli(
            capsys, *self.REFERENCE, "--accounting", "op", "--json"
        )
        cycle, op = json.loads(out_cycle), json.loads(out_op)
        assert op["e_total_kT"] == pytest.approx(0.5 * cycle["e_total_kT"], rel=1e-15)
        assert op["e_input_kT"] == pytest.approx(69.99683965, rel=1e-9)
        # The floor is per observation, not per accounting view.
        assert op["floor_short_kT"] == cycle["floor_short_kT"]

    def test_claim_audit_visible_in_table(self, capsys):
        code, out, _ = run_cli(capsys, *self.REFERENCE, "--claimed-kt", "0.5")
        assert code == 0
        assert "neglects-input-charging" in out

    def test_strict_mode_fails_on_neglectful_claim(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.REFERENCE, "--claimed-kt", "0.5", "--strict"
        )
        assert code == 3
        assert "neglects-input-charging" in out

    def test_strict_mode_passes_honest_claim(self, capsys):
        code, _, _ = run_cli(
            capsys, *self.REFERENCE, "--claimed-kt", "71.0", "--strict"
        )
        assert code == 0

    @pytest.mark.parametrize("first, second", [
        ("--claimed", "--claimed-kt"), ("--friction-kt", "--friction-per-transition"),
    ])
    def test_exclusive_options_are_refused_together(self, capsys, first, second):
        code, out, err = run_cli(capsys, *self.REFERENCE[:5], first, "1", second, "1")
        assert (code, out) == (2, "")
        assert f"argument {second}: not allowed with argument {first}" in err

    def test_missing_required_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--cap", "1e-15")
        assert code == 2
        assert "--swing" in err

    def test_domain_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "cycle", "--cap=-1e-15", "--swing", "0.024"
        )
        assert code == 2
        assert "capacitance" in err

    def test_overflowing_swing_is_domain_error(self, capsys):
        code, out, err = run_cli(capsys, "cycle", "--cap", "1e-15", "--swing", "1e300")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_overflowing_swing_message_names_the_input(self, capsys):
        code, _, err = run_cli(capsys, "cycle", "--cap", "1e-15", "--swing", "1e300")
        assert code == 2
        assert err == (
            "error: swing 1e+300 V on C=1e-15 F overflows the charge energy "
            "C*U1**2/2\n"
        )

    @pytest.mark.parametrize(
        "extra, named",
        [
            # C*U1**2 = 1e300 J is finite; in kT units it is not.
            (("--cap", "1e200", "--swing", "1e50"), "e_input_kT"),
            (("--cap", "1e200", "--swing", "1e50", "--json"), "e_input_kT"),
            (("--cap", "1e-15", "--swing", "1", "--friction-per-transition",
              "1e300"), "e_friction_kT"),
            (("--cap", "1e-15", "--swing", "1", "--friction-per-transition",
              "1.7e308"), "e_friction_J"),
            (("--cap", "1e-15", "--swing", "1", "--claimed", "1e300"), "claimed_kT"),
        ],
    )
    def test_overflowing_energy_figure_is_refused_by_name(self, capsys, extra, named):
        code, out, err = run_cli(capsys, "cycle", *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {named} overflows a float for these inputs\n"

    @pytest.mark.parametrize(
        "option",
        ["--friction-per-transition", "--friction-kt", "--claimed", "--claimed-kt"],
    )
    def test_infinite_energy_is_refused_by_name(self, capsys, option):
        code, out, err = run_cli(
            capsys, "cycle", "--cap", "1e-15", "--swing", "0.5", option, "inf"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {option} must be finite, got inf\n"

    def test_infinite_temperature_is_domain_error(self, capsys):
        code, out, err = run_cli(
            capsys, "cycle", "--cap", "1e-15", "--swing", "0.5", "--temp", "inf"
        )
        assert code == 2
        assert out == ""
        assert "temperature" in err

    def test_infinite_resistance_is_refused_by_name(self, capsys):
        # R does not enter the cycle energies, but RcStage refuses it.
        code, out, err = run_cli(
            capsys, "cycle", "--cap", "1e-15", "--swing", "0.5", "--res", "inf"
        )
        assert (code, out) == (2, "")
        assert err == "error: resistance must be finite, got inf\n"

    def test_underflowing_noise_sigma_is_refused_by_name(self, capsys):
        # kT/C underflows to 0, so the threshold is infinitely many sigmas.
        code, out, err = run_cli(
            capsys, "cycle", "--cap", "1.7e308", "--swing", "0.5"
        )
        assert (code, out) == (2, "")
        assert err == "error: sigma must be > 0 V, got 0.0\n"


class TestMcCommand:
    QUICK = (
        "mc", "--cap", "1e-15", "--res", "1e6", "--threshold-sigma", "2.0",
        "--t-obs", "1e-8", "--trials", "2000",
    )

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(capsys, *self.QUICK, "--seed", "7", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_observations"] == 10
        assert payload["trials"] == 2000
        assert payload["seed"] == 7
        assert payload["hits"] == round(payload["epsilon_hat"] * 2000)
        assert 0.0 < payload["epsilon_hat"] < 1.0
        assert payload["analytic_epsilon"] == pytest.approx(0.205569, rel=1e-4)

    def test_rerun_is_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, *self.QUICK, "--seed", "7")
        _, second, _ = run_cli(capsys, *self.QUICK, "--seed", "7")
        assert first == second

    def test_worker_count_does_not_change_estimates(self, capsys):
        payloads = []
        for workers in ("1", "2", "3"):
            _, out, _ = run_cli(
                capsys, *self.QUICK, "--seed", "7", "--workers", workers, "--json"
            )
            payloads.append(json.loads(out))
        for payload in payloads:
            del payload["workers"]
        assert payloads[0] == payloads[1] == payloads[2]

    def test_seed_past_64_bits_is_domain_error(self, capsys):
        # 2**64 + 12 used to be masked to seed 12 and reuse its streams.
        code, out, err = run_cli(capsys, *self.QUICK, "--seed", str(2**64 + 12))
        assert code == 2
        assert out == ""
        assert "seed" in err

    def test_path_dump(self, capsys, tmp_path):
        dump = tmp_path / "path.csv"
        code, _, _ = run_cli(
            capsys, *self.QUICK, "--seed", "7", "--dump-path", str(dump)
        )
        assert code == 0
        lines = dump.read_bytes().decode().split("\r\n")
        assert lines[0] == "t,V"
        assert len(lines) == 13  # header + t=0 + 10 samples + trailing empty

    def test_window_past_memory_limit_is_domain_error(self, capsys):
        # 1e13 observations per trial: the chunk would need 728 TiB.
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1e-15", "--res", "1e5",
            "--threshold-sigma", "3", "--t-obs", "1e3", "--trials", "10",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: t_o/tau = 10000000000000 observations per trial exceed "
            "the Monte Carlo limit of 4194303\n"
        )

    def test_huge_window_ratio_prints_in_e_notation(self, capsys):
        # tau = 1e-295 s, so t_o/tau is a 287-digit integer.
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1e-300", "--res", "1e5",
            "--threshold-sigma", "3", "--t-obs", "1e-9", "--trials", "100",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: t_o/tau = 1e+286 observations per trial exceed the "
            "Monte Carlo limit of 4194303\n"
        )

    def test_overflowing_window_ratio_is_refused_by_name(self, capsys):
        # tau = 1e-300 s, so t_o/tau overflows to inf before any count.
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1e-150", "--res", "1e-150",
            "--threshold-sigma", "3", "--t-obs", "1e300",
        )
        assert (code, out) == (2, "")
        assert err == "error: t_o/tau overflows for t_o=1e+300 s, tau=1e-300 s\n"

    def test_trials_past_draw_limit_are_refused(self, capsys):
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1e-15", "--res", "1e5",
            "--threshold-sigma", "3", "--t-obs", "1e-9", "--trials", str(10**20),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: 100000000000000000000 trials x 11 draws per path exceed the "
            "Monte Carlo limit of 1e+10 normal draws\n"
        )

    @pytest.mark.parametrize("window", ["inf", "nan"])
    def test_non_finite_window_is_refused_by_name(self, capsys, window):
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1e-15", "--res", "1e5",
            "--threshold-sigma", "3", "--t-obs", window, "--trials", "10",
        )
        assert (code, out) == (2, "")
        assert err == f"error: observation_time must be finite, got {window}\n"

    def test_infinite_threshold_is_refused_by_name(self, capsys):
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1e-15", "--res", "1e5",
            "--threshold-sigma", "inf", "--t-obs", "1e-9", "--trials", "10",
        )
        assert (code, out) == (2, "")
        assert err == "error: threshold must be finite, got inf\n"

    def test_underflowing_sigma_names_sigma_and_capacitance(self, capsys):
        code, out, err = run_cli(
            capsys, "mc", "--cap", "1.7e308", "--res", "1e-310",
            "--threshold-sigma", "3", "--t-obs", "1e-1", "--trials", "10",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: noise sigma = sqrt(kT/C) underflows to 0 V at C = 1.7e+308 F\n"
        )

    def test_window_shorter_than_tau_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "mc", "--cap", "1e-15", "--res", "1e6",
            "--threshold-sigma", "2.0", "--t-obs", "1e-10", "--trials", "10",
        )
        assert code == 2
        assert "correlation time" in err


class TestTankCommand:
    LOSSLESS = (
        "tank", "--inductance", "1e-6", "--c1", "1e-12", "--c2", "1e-12",
        "--v0", "1.0",
    )
    Q100 = LOSSLESS + ("--resistance", "10.0")

    def test_lossless_efficiency_is_exactly_one(self, capsys):
        code, out, _ = run_cli(capsys, *self.LOSSLESS, "--json")
        assert code == 0
        assert json.loads(out)["closed_form"]["efficiency"] == 1.0

    def test_q100_break_even_json(self, capsys):
        code, out, _ = run_cli(
            capsys, *self.Q100, "--e-switch-kt", "70.0", "--simulate", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"]["efficiency"] == pytest.approx(
            0.9691205011632558, rel=1e-12
        )
        assert payload["rk4"]["efficiency"] == pytest.approx(
            payload["closed_form"]["efficiency"], rel=1e-6
        )
        assert payload["break_even"]["break_even_kT"] == pytest.approx(
            144.4608795624, rel=1e-9
        )

    def test_infinite_switch_energy_is_refused_by_name(self, capsys):
        code, out, err = run_cli(capsys, *self.Q100, "--e-switch-kt", "inf")
        assert (code, out) == (2, "")
        assert err == "error: --e-switch-kt must be finite, got inf\n"

    def test_negative_switch_energy_is_refused_in_kt(self, capsys):
        code, out, err = run_cli(capsys, *self.Q100, "--e-switch-kt=-1")
        assert (code, out) == (2, "")
        assert err == "error: e_switch_control must be >= 0, got -1.0\n"

    def test_overflowing_break_even_is_refused_by_name(self, capsys):
        code, out, err = run_cli(
            capsys, *self.Q100, "--e-switch-kt", "1e308", "--n-switches", "10"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: break-even energy inf / efficiency 0.9691205011632559 "
            "is not finite\n"
        )

    def test_break_even_overflowing_only_in_joules_is_refused_by_name(self, capsys):
        # 2e100 kT is finite; at 1e300 K it is not, in joules.
        code, out, err = run_cli(
            capsys, "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
            "--resistance", "10", "--v0", "1", "--temp", "1e300",
            "--e-switch-kt", "1e100", "--json",
        )
        assert (code, out) == (2, "")
        assert err == "error: overhead_J overflows a float for these inputs\n"

    def test_net_saving_takes_the_overhead_priced_in_kt(self, capsys):
        # 3 x 3e7 kT converted once; three times the joules of 3e7 kT is an
        # ulp higher, and net_saving_J an ulp lower.
        code, out, _ = run_cli(
            capsys, *self.Q100, "--e-switch-kt", "3e7", "--n-switches", "3", "--json"
        )
        assert code == 0
        assert json.loads(out)["break_even"]["net_saving_J"] == 1.1178502058162796e-13

    def test_overflowing_switch_count_is_refused_by_name(self, capsys):
        code, out, err = run_cli(
            capsys, *self.Q100, "--e-switch-kt", "1", "--n-switches", str(10**400)
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: n_switch_events is too large to convert to float "
            "(above 1.8e308)\n"
        )

    def test_overflowing_switch_count_is_refused_without_switch_energy(self, capsys):
        code, out, err = run_cli(capsys, *self.Q100, "--n-switches", str(10**400))
        assert (code, out) == (2, "")
        assert err == (
            "error: n_switch_events is too large to convert to float "
            "(above 1.8e308)\n"
        )

    @pytest.mark.parametrize(
        "extra, named",
        [
            (("--simulate",), "efficiency is 0; the RK4 gap is undefined"),
            (("--simulate", "--json"), "efficiency is 0; the RK4 gap is undefined"),
            (("--e-switch-kt", "1"), "efficiency 0.0 is not finite"),
        ],
    )
    def test_zero_efficiency_is_refused_by_name(self, capsys, extra, named):
        # q = 0.5000025: the closed-form ring-down underflows to exactly 0.
        code, out, err = run_cli(
            capsys, "tank", "--inductance", "1e-9", "--c1", "1e-15",
            "--c2", "1e-15", "--resistance", "1999.99", "--v0", "1", *extra,
        )
        assert (code, out) == (2, "")
        assert named in err and err.count("\n") == 1

    def test_underflowing_ring_frequency_names_l_and_c(self, capsys):
        code, out, err = run_cli(
            capsys, "tank", "--inductance", "1e-300", "--c1", "1e-300",
            "--c2", "1e-12", "--v0", "1",
        )
        assert (code, out) == (2, "")
        assert err == "error: L*C underflows for L=1e-300 H, C=1e-300 F\n"

    def test_overdamped_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "tank", "--inductance", "1e-6", "--c1", "1e-12",
            "--c2", "1e-12", "--v0", "1.0", "--resistance", "2500.0",
        )
        assert code == 2
        assert "underdamped" in err

    @pytest.mark.parametrize("dt", ["1e-30", "5e-324"])
    def test_step_count_cap_is_domain_error(self, capsys, monkeypatch, dt):
        def no_step(*args):
            raise AssertionError("an RK4 step ran")

        monkeypatch.setattr("ktfloor.tank._rk4_step", no_step)
        code, out, err = run_cli(capsys, *self.Q100, "--simulate", "--dt", dt)
        assert code == 2
        assert out == ""
        assert "RK4 steps" in err and err.count("\n") == 1

    def test_overflowing_v0_names_the_input(self, capsys):
        code, out, err = run_cli(
            capsys, "tank", "--inductance", "1e-6", "--c1", "1e-12",
            "--c2", "1e-12", "--v0", "1e300",
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: v0 1e+300 V on C1=1e-12 F overflows the initial energy "
            "C1*V0**2/2\n"
        )

    def test_underflowing_initial_energy_is_refused_before_rk4(self, capsys):
        code, out, err = run_cli(
            capsys, "tank", "--inductance", "1e-9", "--c1", "1e-15",
            "--c2", "1e-15", "--v0", "1e-300", "--simulate",
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: v0 1e-300 V on C1=1e-15 F underflows the initial energy "
            "C1*V0**2/2, so the RK4 efficiency is undefined\n"
        )

    @pytest.mark.parametrize(
        "extra, message",
        [
            (("--dt", "-1"), "--dt needs --simulate or --dump-waveform"),
            (("--dt", "nan"), "--dt needs --simulate or --dump-waveform"),
            (("--dt", "1e-12"), "--dt needs --simulate or --dump-waveform"),
            (("--n-switches", "-5"), "--n-switches must be >= 2, got -5"),
            (("--n-switches", "1", "--e-switch-kt", "3"),
             "--n-switches must be >= 2, got 1"),
        ],
    )
    def test_unread_option_is_still_refused(self, capsys, extra, message):
        code, out, err = run_cli(capsys, *self.Q100, *extra)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_dt_is_read_by_dump_waveform_alone(self, capsys, tmp_path):
        dump = tmp_path / "wave.csv"
        code, _, err = run_cli(
            capsys, *self.Q100, "--dt", "1e-14", "--dump-waveform", str(dump)
        )
        assert (code, err) == (0, "")
        assert dump.exists()

    def test_coarse_dt_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, *self.Q100, "--simulate", "--dt", "1e-9")
        assert code == 2
        assert "too coarse" in err

    def test_waveform_dump(self, capsys, tmp_path):
        dump = tmp_path / "wave.csv"
        code, _, _ = run_cli(capsys, *self.Q100, "--dump-waveform", str(dump))
        assert code == 0
        lines = dump.read_bytes().decode().split("\r\n")
        assert lines[0] == "t,v_c1,i_l,v_c2,e_loss"
        assert tuple(lines[0].split(",")) == WAVEFORM_COLUMNS
        assert len(lines) > 600  # two phases at the default step


class TestSweepCommand:
    def write_config(self, tmp_path, text=None):
        config = tmp_path / "sweep.json"
        if text is None:
            text = json.dumps(
                {
                    "variable": "epsilon",
                    "scale": "log",
                    "start": 1e-30,
                    "stop": 1e-3,
                    "points": 5,
                    "fixed": {"C": 1e-15},
                    "output": str(tmp_path / "rows.csv"),
                }
            )
        config.write_text(text)
        return config

    def test_sweep_writes_rows_and_manifest(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        code, out, _ = run_cli(capsys, "sweep", str(config))
        assert code == 0
        assert "wrote 5 rows" in out
        assert (tmp_path / "rows.csv").exists()
        assert (tmp_path / "rows.manifest.json").exists()

    def test_sweep_rerun_byte_identical(self, capsys, tmp_path):
        config = self.write_config(tmp_path)
        run_cli(capsys, "sweep", str(config))
        first = (tmp_path / "rows.csv").read_bytes()
        run_cli(capsys, "sweep", str(config))
        assert (tmp_path / "rows.csv").read_bytes() == first

    def test_malformed_json_reports_position(self, capsys, tmp_path):
        config = self.write_config(tmp_path, text='{"variable": "epsilon",,}')
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "line" in err and "column" in err

    def test_bad_field_is_named(self, capsys, tmp_path):
        config = self.write_config(
            tmp_path,
            text=json.dumps(
                {
                    "variable": "epsilon",
                    "scale": "log",
                    "start": 1e-30,
                    "stop": 1e-3,
                    "points": 1,
                    "output": str(tmp_path / "rows.csv"),
                }
            ),
        )
        code, _, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert "points" in err

    @pytest.mark.parametrize(
        "fixed, named",
        [
            ({"C": 1e-15, "U1": "abc"}, "'U1'"),
            ({"C": 1e-15, "U1": 1e300}, "swing 1e+300 V"),
            ({"q": 50.0, "e_switch": 3.0, "n_switches": 2.7}, "'n_switches'"),
            # json.dumps writes these as the Infinity and NaN that json.loads
            # accepts.
            ({"q": 50.0, "e_switch": math.inf}, "'e_switch' must be finite, got inf"),
            ({"t_o": math.inf, "tau": 1e-9}, "'t_o' must be finite, got inf"),
            ({"C": math.nan}, "'C' must be finite, got nan"),
            ({"C": 10**400}, "'C' must fit in a float"),
            (
                {"q": 50.0, "e_switch": 1e308, "n_switches": 3},
                "break-even energy inf / efficiency",
            ),
            ({"q": 0.5000001, "e_switch": 1.0}, "efficiency 0.0 is not finite"),
            # The required swing's energy overflows, or its sigma already has.
            ({"T": 1e6, "C": 5e-324}, "required swing 3.832802324417546e+154 V"),
            ({"T": 1e300, "C": 1e-300}, "required swing inf V"),
        ],
    )
    def test_bad_fixed_value_is_domain_error(self, capsys, tmp_path, fixed, named):
        config = self.write_config(
            tmp_path,
            text=json.dumps(
                {
                    "variable": "epsilon",
                    "scale": "log",
                    "start": 1e-30,
                    "stop": 1e-3,
                    "points": 5,
                    "fixed": fixed,
                    "output": str(tmp_path / "rows.csv"),
                }
            ),
        )
        code, out, err = run_cli(capsys, "sweep", str(config))
        assert code == 2
        assert out == ""
        assert named in err and err.count("\n") == 1
        assert not (tmp_path / "rows.csv").exists()

    def test_missing_file_is_an_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", str(tmp_path / "absent.json"))
        assert code == 2
        assert "absent.json" in err

    def test_non_object_root_is_an_error(self, capsys, tmp_path):
        config = self.write_config(tmp_path, text="[]")
        code, out, err = run_cli(capsys, "sweep", str(config))
        assert (code, out) == (2, "")
        assert err == f"error: {config}: config root must be a JSON object\n"


def sweep_row(temperature, fixed):
    """The sweep's row for these parameters: the first point of a T sweep."""
    spec = SweepSpec(
        variable="T", scale="linear", start=temperature, stop=2.0 * temperature,
        points=2, output_path="unused.csv", fixed=fixed,
    )
    return compute_rows(spec)[0]


def json_of(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    return json.loads(out)


def differing(pairs):
    """The names of the (printed, row) figure pairs whose bits differ."""
    return [name for name, (shown, cell) in pairs.items() if repr(shown) != repr(cell)]


# capsys is read out after every call, so one fixture serves every example.
derandomized = settings(
    max_examples=100, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


class TestOneSourcePerFigure:
    """Each figure a command prints and a sweep row also holds is the row's cell."""

    @derandomized
    @given(
        epsilon=st.floats(1e-300, 0.4), t_obs=st.floats(1e-6, 1e3),
        tau=st.floats(1e-12, 1e-9), temp=st.floats(1.0, 1e3),
    )
    def test_floor(self, capsys, epsilon, t_obs, tau, temp):
        payload = json_of(
            capsys, "floor", f"--epsilon={epsilon!r}", f"--t-obs={t_obs!r}",
            f"--tau={tau!r}", f"--temp={temp!r}",
        )
        row = sweep_row(temp, {"epsilon": epsilon, "t_o": t_obs, "tau": tau})
        short, long = payload["short"], payload["long"]
        assert differing({
            "thermal_energy_J": (payload["thermal_energy_J"], row["thermal_energy_J"]),
            "floor_short_kT": (short["floor_kT"], row["floor_short_kT"]),
            "floor_short_J": (short["floor_J"], row["floor_short_J"]),
            "floor_long_kT": (long["floor_kT"], row["floor_long_kT"]),
            "floor_long_J": (long["floor_J"], row["floor_long_J"]),
        }) == []

    @derandomized
    @given(
        cap=st.floats(1e-18, 1e-9), swing=st.floats(1e-3, 2.0), temp=st.floats(1.0, 1e3)
    )
    def test_cycle(self, capsys, cap, swing, temp):
        payload = json_of(
            capsys, "cycle", f"--cap={cap!r}", f"--swing={swing!r}", f"--temp={temp!r}"
        )
        row = sweep_row(temp, {"C": cap, "U1": swing})
        assert differing({
            "cycle_J": (payload["e_input_J"], row["cycle_J"]),
            "cycle_kT": (payload["e_input_kT"], row["cycle_kT"]),
            "epsilon_inst": (payload["epsilon_per_observation"], row["epsilon_inst"]),
        }) == []

    @derandomized
    @given(
        # The sweep's unit tank has R = 1/q, so only an R that 1/(1/R)
        # gives back is the same tank.
        resistance=st.floats(1e-3, 1.9).filter(lambda r: 1.0 / (1.0 / r) == r),
        e_switch=st.floats(0.0, 1e3), n_switches=st.integers(2, 10),
        temp=st.floats(1.0, 1e3),
    )
    def test_unit_tank(self, capsys, resistance, e_switch, n_switches, temp):
        payload = json_of(
            capsys, "tank", "--inductance", "1", "--c1", "1", "--c2", "1",
            f"--resistance={resistance!r}", "--v0", "1",
            f"--e-switch-kt={e_switch!r}", f"--n-switches={n_switches}",
            f"--temp={temp!r}",
        )
        row = sweep_row(
            temp, {"q": 1.0 / resistance, "e_switch": e_switch, "n_switches": n_switches}
        )
        efficiency, breakeven = payload["closed_form"]["efficiency"], payload["break_even"]
        assert differing({
            "tank_efficiency": (efficiency, row["tank_efficiency"]),
            "break_even_kT": (breakeven["break_even_kT"], row["break_even_kT"]),
            "break_even_J": (breakeven["break_even_J"], row["break_even_J"]),
        }) == []


def unreachable(*args, **kwargs):
    raise AssertionError("the work ran before the output path was checked")


class TestUnwritableOutput:
    """An output file that cannot be created is refused before any work."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        monkeypatch.setattr(cli, "first_passage_mc", unreachable)
        monkeypatch.setattr(TankCircuit, "simulate_transfer", unreachable)
        monkeypatch.setattr(cli, "run_sweep", unreachable)

    @pytest.fixture(params=["missing directory", "directory"])
    def bad_path(self, request, tmp_path):
        if request.param == "directory":
            return str(tmp_path), "it is a directory"
        missing = tmp_path / "absent"
        return str(missing / "out.csv"), f"{str(missing)!r} is not a directory"

    def refused(self, capsys, argv, named):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {named}: cannot write ")
        assert err.count("\n") == 1
        return err

    def test_mc_dump_path(self, capsys, bad_path):
        path, reason = bad_path
        argv = (*TestMcCommand.QUICK, "--dump-path", path)
        assert reason in self.refused(capsys, argv, "--dump-path")

    def test_tank_dump_waveform(self, capsys, bad_path):
        path, reason = bad_path
        argv = (*TestTankCommand.Q100, "--dump-waveform", path)
        assert reason in self.refused(capsys, argv, "--dump-waveform")

    def test_sweep_output(self, capsys, tmp_path, bad_path):
        path, reason = bad_path
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "variable": "epsilon", "scale": "log", "start": 1e-30, "stop": 1e-3,
            "points": 5, "output": path,
        }))
        err = self.refused(capsys, ("sweep", str(config)), f"{config}: field 'output'")
        assert reason in err

    def test_sweep_manifest(self, capsys, tmp_path):
        # The manifest is written after the CSV, so a directory in its place
        # must stop the sweep before the CSV is written.
        manifest = tmp_path / "rows.manifest.json"
        manifest.mkdir()
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "variable": "epsilon", "scale": "log", "start": 1e-30, "stop": 1e-3,
            "points": 5, "output": str(tmp_path / "rows.csv"),
        }))
        err = self.refused(capsys, ("sweep", str(config)), f"{config}: field 'output'")
        assert f"cannot write {str(manifest)!r}: it is a directory" in err
        assert not (tmp_path / "rows.csv").exists()

    @pytest.mark.parametrize("config_name, output", [
        # The CSV is the config, given by a different spelling of its path.
        ("sweep.json", "sub/../sweep.json"),
        # The manifest of rows.csv is rows.manifest.json, the config.
        ("rows.manifest.json", "rows.csv"),
    ])
    def test_sweep_output_is_the_config(
        self, capsys, tmp_path, monkeypatch, config_name, output
    ):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        text = json.dumps({
            "variable": "epsilon", "scale": "log", "start": 1e-30, "stop": 1e-3,
            "points": 5, "output": output,
        })
        (tmp_path / config_name).write_text(text)
        err = self.refused(capsys, ("sweep", config_name), f"{config_name}: field 'output'")
        assert err.endswith(": it is the config file\n")
        assert (tmp_path / config_name).read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted([config_name, "sub"])


class TestRefusedRunWritesNothing:
    def test_tank_break_even_is_priced_before_the_waveform(self, capsys, tmp_path):
        dump = tmp_path / "w.csv"
        code, out, err = run_cli(
            capsys, *TestTankCommand.Q100, "--simulate", "--dump-waveform", str(dump),
            "--e-switch-kt", "1e308", "--n-switches", "10",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not dump.exists()


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("ktfloor ")

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "melt")
        assert code == 2

    @pytest.mark.parametrize("exc, message", [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 8.00 EiB for an array"),
         "error: out of memory: Unable to allocate 8.00 EiB for an array\n"),
    ])
    def test_memory_error_is_a_one_line_domain_error(
        self, capsys, monkeypatch, exc, message
    ):
        def exhausted(args):
            raise exc

        monkeypatch.setitem(cli._COMMANDS, "floor", (exhausted, "floors"))
        code, out, err = run_cli(capsys, "floor", "--epsilon", "1e-9")
        assert (code, out, err) == (2, "", message)



# A valid value for every required option and positional of each command.
REQUIRED_ARGS = {
    "floor": {"--epsilon": "1e-9"},
    "cycle": {"--cap": "1e-15", "--swing": "0.5"},
    "mc": {
        "--cap": "1e-15", "--res": "1e6", "--threshold-sigma": "2", "--t-obs": "1e-8"
    },
    "tank": {"--inductance": "1e-6", "--c1": "1e-12", "--c2": "1e-12", "--v0": "1"},
    "sweep": {"config": "sweep.json"},
}


def declared(command):
    return [opt for opt in _OPTIONS if command in opt.commands.split()]


def shown_name(opt):
    return opt.flag if opt.flag.startswith("-") else opt.metavar


class TestParser:
    @pytest.mark.parametrize("command", REQUIRED_ARGS)
    def test_help_lists_every_declared_option(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        listed = set(re.findall(r"^  (\S+)", out, re.MULTILINE)) - {"-h,"}
        assert listed == {shown_name(opt) for opt in declared(command)}

    @pytest.mark.parametrize("command", REQUIRED_ARGS)
    def test_required_options_match_the_table(self, command):
        required = {
            opt.flag for opt in declared(command)
            if opt.default is ... or not opt.flag.startswith("-")
        }
        assert required == set(REQUIRED_ARGS[command])

    @pytest.mark.parametrize(
        "command, omitted",
        [(command, flag) for command, args in REQUIRED_ARGS.items() for flag in args],
    )
    def test_omitted_required_option_is_named(self, capsys, command, omitted):
        argv = [command]
        for flag, value in REQUIRED_ARGS[command].items():
            if flag != omitted:
                argv += [flag, value] if flag.startswith("-") else [value]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        (opt,) = [opt for opt in declared(command) if opt.flag == omitted]
        assert "the following arguments are required: " + shown_name(opt) in err

    def test_help_renders_limits_from_their_constants(self, capsys):
        # Joined into one line, so argparse's wrapping cannot split a phrase.
        mc_help = " ".join(run_cli(capsys, "mc", "--help")[1].split())
        tank_help = " ".join(run_cli(capsys, "tank", "--help")[1].split())
        assert f"at most {MAX_MC_OBSERVATIONS}" in mc_help
        assert f"at most {MAX_MC_DRAWS:.0e}" in mc_help
        assert f"(default {DEFAULT_SEED})" in mc_help
        assert f"at most {MAX_RK4_STEPS} steps" in tank_help


CYCLE = ("cycle", "--cap", "1e-15", "--swing", "0.5")
MC = ("mc", "--cap", "1e-15", "--res", "1e6", "--threshold-sigma", "2",
      "--t-obs", "1e-8", "--trials", "50")
TANK = ("tank", "--inductance", "1e-6", "--c1", "1e-12", "--c2", "1e-12", "--v0", "1")
# Argv that main parses with a one-command parser when the first word names a
# command, and with the full parser otherwise; both must give the same bytes.
DIFFERENTIAL_ARGV = [
    (), ("--help",), ("-h",), ("--version",), ("bogus",),
    ("-h", "floor"), ("--version", "floor"),
    *((command, "--help") for command in REQUIRED_ARGS),
    ("floor", "--epsilon", "1e-9"),
    ("floor", "--epsilon", "1e-9", "--bogus"),
    ("floor", "--epsilon", "1e-9", "stray"),
    ("floor", "--epsilon", "1e-9", "--version"),
    ("floor",),
    ("floor", "--epsilon", "tiny"),
    ("floor", "--eps", "1e-9", "--json"),
    ("floor", "--", "x"),
    ("--", "floor", "--epsilon", "1e-9"),
    CYCLE,
    CYCLE + ("--accounting", "half"),
    CYCLE + ("--claimed", "1e-18", "--claimed-kt", "3"),
    CYCLE + ("--friction-kt", "1", "--friction-per-transition", "0"),
    ("cycle", "--cap", "1e-15"),
    MC + ("--json",),
    MC[:-2] + ("--trials", "many"),
    TANK + ("--json", "extra"),
    ("tank", "--c1", "1e-12"),
    ("sweep",),
    ("sweep", "a.json", "b.json"),
]


def subcommands(parser):
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


class TestOneCommandParser:
    @pytest.mark.parametrize("argv", DIFFERENTIAL_ARGV, ids=" ".join)
    def test_output_matches_the_full_parser(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        built = run_cli(capsys, *argv)
        monkeypatch.setattr(cli, "build_parser", lambda command=None: build_parser())
        assert run_cli(capsys, *argv) == built

    def test_main_builds_only_a_named_command(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_parser", lambda command=None: (
            built.append(command) or build_parser(command)))
        for argv in (("floor", "--epsilon", "1e-9"), ("--help",), ("-h", "floor")):
            run_cli(capsys, *argv)
        assert built == ["floor", None, None]

    def test_tank_parser_holds_only_tank_options(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        lean, full = build_parser("tank"), build_parser()
        assert list(subcommands(lean)) == ["tank"]
        tank = subcommands(lean)["tank"]
        flags = [a.option_strings[0] for a in tank._actions if a.dest != "help"]
        assert flags == [opt.flag for opt in declared("tank")]
        assert tank.prog == subcommands(full)["tank"].prog == "ktfloor tank"
        assert lean.format_usage() == full.format_usage()
