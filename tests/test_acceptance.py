"""Acceptance suite: one test per advertised capability.

Each test prints exactly one ``ACCEPTANCE CRITERION nn: PASS/FAIL`` line and
registers it with the terminal-summary hook in conftest, so the full verdict
table is visible at the end of the run regardless of capture settings.
"""

import contextlib
import io
import json
import math
import time

import numpy as np
from scipy import stats

from ar1_oracle import exceedance_probability
from conftest import record_criterion
from ktfloor import (
    BOLTZMANN_CONSTANT,
    ErrorSpec,
    FollowerGate,
    OuProcess,
    PhysicalEnvironment,
    RcStage,
    TankCircuit,
    first_passage_mc,
    floor_long,
    floor_short,
    instantaneous_error_prob,
    integrated_charge_dissipation,
    multi_sample_error,
    required_swing,
    run_cycle,
    stationary_path,
)
from ktfloor.cli import main

ENV = PhysicalEnvironment()
KT = ENV.thermal_energy()


def verdict(number, ok, detail):
    record_criterion(number, ok, detail)
    line = f"ACCEPTANCE CRITERION {number:02d}: {'PASS' if ok else 'FAIL'} — {detail}"
    print(line)
    assert ok, line


def run_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def random_stages(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        yield RcStage(
            capacitance=10.0 ** rng.uniform(-16.0, -12.0),
            resistance=10.0 ** rng.uniform(2.0, 7.0),
            swing_voltage=10.0 ** rng.uniform(-3.0, 0.3),
            env=ENV,
        )


def test_criterion_01_quadrature_matches_charge_dissipation():
    t0 = time.perf_counter()
    worst = 0.0
    for stage in random_stages(10, seed=20260814):
        numeric = integrated_charge_dissipation(stage)
        exact = stage.charge_energy()
        worst = max(worst, abs(numeric - exact) / exact)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 1.0
    verdict(
        1,
        ok,
        f"resistor-power quadrature vs 0.5*C*U1^2: worst rel err "
        f"{worst:.2e} over 10 random stages in {elapsed:.2f}s",
    )


def test_criterion_02_cycle_ledger_identity_is_bit_exact():
    reference = RcStage(
        capacitance=1e-15, resistance=1.0, swing_voltage=24.08e-3, env=ENV
    )
    stages = [reference, *random_stages(200, seed=41)]
    exact = all(
        stage.full_cycle_dissipation().total_dissipated
        == stage.capacitance * stage.swing_voltage**2
        for stage in stages
    )
    verdict(
        2,
        exact,
        "ledger total == C*U1^2 at bit level for the reference gate "
        "and 200 random stages",
    )


def test_criterion_03_short_floor_is_69_kt():
    result = floor_short(ErrorSpec(epsilon=1e-30), ENV)
    deviation = abs(result.floor_kt - 69.08)
    code, table = run_cli(["floor", "--epsilon", "1e-30"])
    ok = deviation <= 0.01 and code == 0 and "69.08 kT" in table
    verdict(
        3,
        ok,
        f"floor_short(1e-30) = {result.floor_kt:.5f} kT "
        f"(|Δ| from 69.08 = {deviation:.4f} kT); CLI table agrees",
    )


def test_criterion_04_long_floor_is_98_kt():
    spec = ErrorSpec(epsilon=1e-25, observation_time=3.156e7, correlation_time=1e-10)
    result = floor_long(spec, ENV)
    deviation = abs(result.floor_kt - 97.9)
    rel_to_100 = abs(result.floor_kt - 100.0) / 100.0
    ok = deviation <= 0.1 and rel_to_100 <= 0.05
    verdict(
        4,
        ok,
        f"floor_long(1e-25, 1 yr, 0.1 ns) = {result.floor_kt:.5f} kT "
        f"(|Δ| from 97.9 = {deviation:.4f} kT, {rel_to_100:.1%} from 100 kT)",
    )


def test_criterion_05_ou_equilibrium_statistics():
    t0 = time.perf_counter()
    stage = RcStage(capacitance=1e-15, resistance=1e6, swing_voltage=0.0, env=ENV)
    process = OuProcess.from_stage(stage)
    sigma, tau = process.stationary_sigma, process.correlation_time

    # Effectively independent draws (corr e^-10) for variance and shape.
    draws = stationary_path(process, dt=10.0 * tau, n=1_000_000, seed=2026).samples
    var_hat = np.var(draws)
    var_se = sigma**2 * np.sqrt(2.0 / draws.size)
    var_ok = abs(var_hat - sigma**2) <= 3.0 * var_se

    ks = stats.kstest(draws, "norm", args=(0.0, sigma))
    ks_ok = ks.pvalue > 0.01

    path = stationary_path(process, dt=tau, n=10_000_000, seed=814)
    v = path.samples
    corr_hat = float(np.dot(v[:-1], v[1:]) / np.dot(v, v))
    corr_ok = abs(corr_hat - 0.3679) <= 0.01

    elapsed = time.perf_counter() - t0
    ok = var_ok and ks_ok and corr_ok and elapsed < 30.0
    verdict(
        5,
        ok,
        f"variance {var_hat / sigma**2:.5f}*kT/C "
        f"({abs(var_hat - sigma**2) / var_se:.2f} SE), "
        f"KS p={ks.pvalue:.3f}, lag-tau corr {corr_hat:.5f} "
        f"(target 0.3679±0.01), {elapsed:.1f}s",
    )


def test_criterion_06_first_passage_vs_independent_sample_analytic():
    """First-passage MC against the exact correlated AR(1) reference.

    Once-per-tau samples keep lag-1 correlation e**-1, so the reference is the
    exact stationary AR(1) exceedance probability from ``tests/ar1_oracle.py``.
    The independent-samples formula ``1 - (1 - Phi_bar(k))**n`` is only an
    upper bound for positively correlated samples (Slepian 1962), and is
    checked as one: it must lie above the exact value and, within 3 standard
    errors, above the estimate.
    """
    t0 = time.perf_counter()
    stage = RcStage(capacitance=1e-15, resistance=1e6, swing_voltage=0.0, env=ENV)
    sigma = OuProcess.from_stage(stage).stationary_sigma
    tau = stage.correlation_time
    rho = math.exp(-1.0)

    cells = []
    for k in (2.0, 2.5, 3.0):
        for n_obs in (10, 100):
            result = first_passage_mc(
                stage,
                threshold=k * sigma,
                observation_time=n_obs * tau,
                trials=100_000,
                seed=20260814,
                workers=2,
            )
            exact = exceedance_probability(k, n_obs, rho)
            independent = multi_sample_error(
                instantaneous_error_prob(k * sigma, sigma), n_obs
            )
            deviation = abs(result.epsilon_hat - exact)
            band = 3.0 * result.std_err + 0.05 * exact
            bound_ok = exact < independent and (
                result.epsilon_hat <= independent + 3.0 * result.std_err
            )
            cells.append(
                (k, n_obs, result.epsilon_hat, exact, independent, deviation, band,
                 bound_ok)
            )
    elapsed = time.perf_counter() - t0

    detail = "; ".join(
        f"{k:.1f}σ/n={n}: |{eps:.5f}-{ex:.5f}|={dev:.4f} "
        f"{'<=' if dev <= band else '>'} band {band:.4f}, "
        f"indep {ind:.5f} {'bounds' if bound_ok else 'does not bound'}"
        for k, n, eps, ex, ind, dev, band, bound_ok in cells
    )
    ok = elapsed < 120.0 and all(
        dev <= band and bound_ok for *_, dev, band, bound_ok in cells
    )
    verdict(6, ok, f"{detail}; {elapsed:.1f}s")


def test_criterion_07_required_swing_never_beats_the_floor():
    t0 = time.perf_counter()
    stage = RcStage(capacitance=1e-15, resistance=1.0, swing_voltage=0.0, env=ENV)
    epsilons = np.geomspace(1e-30, 1e-2, 57)
    energies = np.array(
        [required_swing(eps, stage).energy_joule for eps in epsilons]
    )
    floors = KT * np.log(1.0 / epsilons)
    ratios = energies / floors
    elapsed = time.perf_counter() - t0

    bound_ok = bool(np.all(energies >= floors))
    # epsilons ascend, so the ratio must fall monotonically away from its
    # small-epsilon limit of 4.
    monotone_ok = bool(np.all(np.diff(ratios) < 0.0)) and bool(np.all(ratios < 4.0))
    ok = bound_ok and monotone_ok and elapsed < 1.0
    verdict(
        7,
        ok,
        f"swing energy >= kT*ln(1/eps) at all 57 points; ratio spans "
        f"{ratios[-1]:.3f}..{ratios[0]:.5f}, monotone toward 4; {elapsed:.2f}s",
    )


def test_criterion_08_practical_gate_audit():
    stage = RcStage(
        capacitance=1e-15, resistance=1.0, swing_voltage=24.08e-3, env=ENV
    )
    gate = FollowerGate(stage=stage, friction_energy_per_transition=0.5 * KT)
    report = run_cycle(gate)
    eps_ok = 1.5e-9 <= report.epsilon_per_observation <= 1.7e-9
    verdict_ok = (
        report.verdict_friction_only == "sub-kT"
        and report.verdict_total == "at-or-above-floor"
    )
    input_ok = abs(report.e_input_cycle_kt - 140.0) <= 0.5
    ok = eps_ok and verdict_ok and input_ok
    verdict(
        8,
        ok,
        f"eps={report.epsilon_per_observation:.3e}, friction-only verdict "
        f"'{report.verdict_friction_only}', total verdict "
        f"'{report.verdict_total}', e_input={report.e_input_cycle_kt:.2f} kT",
    )


def test_criterion_09_tank_recycling_and_break_even():
    t0 = time.perf_counter()
    lossless = TankCircuit(
        c1=1e-12, c2=1e-12, inductance=1e-6, series_resistance=0.0,
        initial_voltage=1.0,
    )
    closed_lossless = lossless.transfer_efficiency().efficiency
    ode_lossless = lossless.simulate_transfer().efficiency

    q100 = TankCircuit(
        c1=1e-12, c2=1e-12, inductance=1e-6, series_resistance=10.0,
        initial_voltage=1.0,
    )
    closed_q100 = q100.transfer_efficiency().efficiency
    ode_q100 = q100.simulate_transfer().efficiency
    ode_vs_closed = abs(ode_q100 - closed_q100) / closed_q100

    bar = q100.break_even(e_switch_control=70.0 * KT, n_switch_events=2)
    bar_kt = bar.break_even_energy / KT
    elapsed = time.perf_counter() - t0

    ok = (
        closed_lossless == 1.0
        and abs(ode_lossless - 1.0) < 1e-6
        and abs(ode_q100 - 0.969) <= 1e-3
        and ode_vs_closed < 0.01
        and abs(bar_kt - 144.5) <= 0.5
        and elapsed < 10.0
    )
    verdict(
        9,
        ok,
        f"lossless eta closed=1 exact, ode |Δ|={abs(ode_lossless - 1.0):.1e}; "
        f"Q=100 eta ode={ode_q100:.5f} (closed {closed_q100:.5f}, "
        f"rel gap {ode_vs_closed:.1e}); break-even {bar_kt:.2f} kT; {elapsed:.1f}s",
    )


def test_criterion_10_cli_reruns_are_byte_identical(tmp_path):
    config = tmp_path / "sweep.json"
    config.write_text(
        json.dumps(
            {
                "variable": "epsilon",
                "scale": "log",
                "start": 1e-30,
                "stop": 1e-3,
                "points": 7,
                "fixed": {"C": 1e-15, "tau": 1e-9, "t_o": 1e-3},
                "output": str(tmp_path / "rows.csv"),
            }
        )
    )
    commands = {
        "floor": ["floor", "--epsilon", "1e-25", "--t-obs", "3.156e7",
                  "--tau", "1e-10", "--json"],
        "cycle": ["cycle", "--cap", "1e-15", "--swing", "24.08e-3",
                  "--friction-kt", "0.5", "--json"],
        "mc": ["mc", "--cap", "1e-15", "--res", "1e6", "--threshold-sigma", "2.5",
               "--t-obs", "1e-8", "--trials", "5000", "--seed", "777", "--json"],
        "tank": ["tank", "--inductance", "1e-6", "--c1", "1e-12", "--c2", "1e-12",
                 "--v0", "1.0", "--resistance", "10.0", "--simulate",
                 "--e-switch-kt", "70", "--json"],
        "sweep": ["sweep", str(config)],
    }

    unstable = []
    for name, argv in commands.items():
        code_a, out_a = run_cli(argv)
        files_a = {
            path.name: path.read_bytes()
            for path in tmp_path.iterdir()
            if path != config
        }
        code_b, out_b = run_cli(argv)
        files_b = {
            path.name: path.read_bytes()
            for path in tmp_path.iterdir()
            if path != config
        }
        if not (code_a == code_b == 0 and out_a == out_b and files_a == files_b):
            unstable.append(name)

    worker_payloads = []
    for workers in ("1", "2", "4"):
        _, out = run_cli(commands["mc"][:-1] + ["--workers", workers, "--json"])
        payload = json.loads(out)
        del payload["workers"]
        worker_payloads.append(payload)
    workers_ok = worker_payloads[0] == worker_payloads[1] == worker_payloads[2]

    ok = not unstable and workers_ok
    verdict(
        10,
        ok,
        "floor/cycle/mc/tank/sweep reruns byte-identical"
        + ("" if not unstable else f" EXCEPT {unstable}")
        + ("; mc invariant under 1/2/4 workers" if workers_ok
           else "; mc varies with worker count"),
    )
