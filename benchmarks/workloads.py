"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload has ``setup`` (import plus input construction, the part timed
as ``setup_s``), ``prepare`` (untimed references and files), and ``run(j)``,
which performs operation j and returns one ``Outcome`` per library call.
``digest`` fingerprints the reference outputs, which must not depend on the
worker process that produced them.  ``kernel`` runs the workload's fixed
imitation from calibration.py, which host speed is measured with.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import math
import random
import time
from dataclasses import dataclass
from pathlib import Path

import calibration

DEFAULT_SEED = 12345
CAPACITANCE = 1e-15  # F
RESISTANCE = 1e5  # ohm, so tau = RC = 1e-10 s
TEMPERATURE = 300.0  # K
RHO = math.exp(-1.0)  # lag-1 correlation of observations one tau apart
MAX_STD_ERRORS = 5.0
FILE_OWNERS = {
    "waveform.csv": "tank",
    "sweep.csv": "sweep",
    "sweep.manifest.json": "sweep",
    "path.csv": "mc",
}


@dataclass
class Outcome:
    command: str
    wall_s: float
    trials: int = 0
    error: str | None = None


def load_oracle(root: Path):
    """``exceedance_probability`` from the repository's independent oracle."""
    spec = importlib.util.spec_from_file_location(
        "ar1_oracle", root / "tests" / "ar1_oracle.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.exceedance_probability


def gate_error(hits: int, trials: int, exact: float) -> str | None:
    """Failure message if hits/trials is over 5 standard errors from exact."""
    std_err = math.sqrt(exact * (1.0 - exact) / trials)
    z = (hits / trials - exact) / std_err
    if abs(z) > MAX_STD_ERRORS:
        return f"epsilon_hat {hits}/{trials} is {z:+.2f} standard errors from exact {exact:.6e}"
    return None


class MonteCarlo:
    """Repeated ``first_passage_mc`` calls with distinct seeds.

    Worker w's call j uses seed ``seed + 1_000_000*w + j``, so call 0 of
    worker 0 runs at the workload seed itself, where the hit count is pinned.
    """

    digest = None

    def __init__(self, k_sigma, n_obs, trials, workers, pinned_hits, kernel_paths):
        self.k_sigma = k_sigma
        self.n_obs = n_obs
        self.trials = trials
        self.workers = workers
        self.pinned_hits = pinned_hits
        self.kernel_paths = kernel_paths

    def setup(self, seed: int, smoke: bool) -> None:
        from ktfloor import circuit, floors, noise, quantities

        self.floors = floors
        self.seed = seed
        if smoke:
            self.trials = 512
        self.pin = self.pinned_hits if seed == DEFAULT_SEED and not smoke else None
        env = quantities.PhysicalEnvironment(temperature=TEMPERATURE)
        stage = circuit.RcStage(
            capacitance=CAPACITANCE, resistance=RESISTANCE, swing_voltage=0.0, env=env
        )
        sigma = noise.OuProcess.from_stage(stage).stationary_sigma
        self.kwargs = dict(
            stage=stage,
            threshold=self.k_sigma * sigma,
            observation_time=self.n_obs * stage.correlation_time,
            trials=self.trials,
            workers=self.workers,
        )

    def prepare(self, oracle, root: Path, worker: int) -> None:
        self.exact = oracle(self.k_sigma, self.n_obs, RHO)
        self.base = self.seed + 1_000_000 * worker

    def run(self, j: int) -> list[Outcome]:
        start = time.perf_counter()
        result = self.floors.first_passage_mc(seed=self.base + j, **self.kwargs)
        wall = time.perf_counter() - start
        error = gate_error(result.hits, self.trials, self.exact)
        if result.trials != self.trials or result.n_observations != self.n_obs:
            error = f"ran {result.trials} trials x {result.n_observations} observations"
        if self.base + j == self.seed and self.pin is not None and result.hits != self.pin:
            error = f"hits {result.hits} at seed {self.seed}, pinned {self.pin}"
        return [Outcome("mc", wall, self.trials, error)]

    def kernel(self) -> None:
        calibration.mc_kernel(self.n_obs, self.kernel_paths)

    def cleanup(self) -> None:
        pass


class CliSession:
    """One closed-loop client calling ``ktfloor.cli.main`` in-process.

    Every round issues the same five commands; round 0 is the reference that
    the content checks run on, and every later round must reproduce its
    stdout and written files byte for byte.
    """

    # 1000 trials fit in one chunk, so ``--workers 2`` starts a thread pool that
    # gets a single job: it measures executor start-up, not concurrent dispatch.
    mc_args = dict(k_sigma=2.5, n_obs=10, trials=1000, pinned_hits=55)
    # sha256 of the dumped path (stream (12345, 0)) at the default seed.
    pinned_path_sha256 = "2703b771f8998a0f087d19544c294f416a5370298231d69458a14e15294538b8"

    def setup(self, seed: int, smoke: bool) -> None:
        from ktfloor import cli

        self.cli = cli
        self.seed = seed
        rng = random.Random(seed)
        self.points = 20 if smoke else 500
        self.trials = 100 if smoke else self.mc_args["trials"]
        self.pin = self.mc_args["pinned_hits"] if seed == DEFAULT_SEED and not smoke else None
        tau = CAPACITANCE * RESISTANCE
        q = rng.uniform(20.0, 200.0)  # the tank below has sqrt(L/C) = 1000 ohm, so R = 1000/q
        self.sweep_config = {
            "variable": "C",
            "scale": "log",
            "start": 1e-16,
            "stop": 1e-13,
            "points": self.points,
            "output": "sweep.csv",
            "fixed": {
                "U1": round(rng.uniform(0.1, 1.0), 6),
                "T": TEMPERATURE,
                "epsilon": 10.0 ** -round(rng.uniform(6.0, 30.0), 3),
                "t_o": 10.0 ** round(rng.uniform(-6.0, 7.5), 3),
                "tau": tau,
                "q": round(q, 4),
                "e_switch": round(rng.uniform(0.5, 50.0), 4),
                "n_switches": 2,
            },
            "seed": seed,
        }
        self.commands = {
            "floor": [
                "floor", "--epsilon", "%.6e" % 10.0 ** -rng.uniform(6.0, 40.0),
                "--t-obs", "%.6e" % 10.0 ** rng.uniform(-6.0, 7.5), "--tau", "%.1e" % tau,
            ],
            "cycle": [
                "cycle", "--cap", "%.6e" % 10.0 ** rng.uniform(-16.0, -13.0),
                "--swing", "%.4f" % rng.uniform(0.1, 1.0),
                "--friction-kt", "%.4f" % rng.uniform(0.0, 2.0),
                "--claimed-kt", "%.4f" % rng.uniform(0.1, 5.0),
            ],
            "tank": [
                "tank", "--inductance", "1e-9", "--c1", "1e-15", "--c2", "1e-15",
                "--resistance", "%.6f" % (1000.0 / q), "--v0", "%.4f" % rng.uniform(0.5, 1.5),
                "--simulate", "--dump-waveform", "waveform.csv", "--json",
            ],
            "sweep": ["sweep", "sweep.json"],
            "mc": [
                "mc", "--cap", repr(CAPACITANCE), "--res", repr(RESISTANCE),
                "--threshold-sigma", repr(self.mc_args["k_sigma"]),
                "--t-obs", repr(self.mc_args["n_obs"] * tau),
                "--trials", str(self.trials), "--seed", str(seed), "--workers", "2",
                "--dump-path", "path.csv", "--json",
            ],
        }

    def prepare(self, oracle, root: Path, worker: int) -> None:
        self.exact = oracle(self.mc_args["k_sigma"], self.mc_args["n_obs"], RHO)
        self.workdir = root / ".bench_work" / f"cli-seed{self.seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = {name: self.workdir / name for name in FILE_OWNERS}
        config = dict(self.sweep_config, output=str(self.files["sweep.csv"]))
        (self.workdir / "sweep.json").write_text(json.dumps(config))
        for argv in self.commands.values():
            for i, arg in enumerate(argv):
                if arg in ("waveform.csv", "sweep.json", "path.csv"):
                    argv[i] = str(self.workdir / arg)
        self.reference = None
        self.digest = None

    def run(self, j: int) -> list[Outcome]:
        for path in self.files.values():
            path.unlink(missing_ok=True)
        outcomes, stdout = [], {}
        for name, argv in self.commands.items():
            buffer = io.StringIO()
            error = None
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buffer):
                    code = self.cli.main(list(argv))
            except Exception as exc:  # a crash is a failed command, not a dead run
                code, error = None, f"raised {exc!r}"
            wall = time.perf_counter() - start
            if error is None and code != 0:
                error = f"exit code {code}"
            stdout[name] = buffer.getvalue()
            trials = self.trials if name == "mc" else 0
            outcomes.append(Outcome(name, wall, trials, error))
        files = {
            name: path.read_bytes() if path.exists() else None
            for name, path in self.files.items()
        }
        if self.reference is None:
            self.reference = (stdout, files)
            self._check_reference(outcomes, stdout, files)
            digest = hashlib.sha256()
            for name in sorted(stdout):
                digest.update(stdout[name].encode())
            for name in sorted(files):
                digest.update(files[name] or b"")
            self.digest = digest.hexdigest()
        else:
            ref_stdout, ref_files = self.reference
            for outcome in outcomes:
                if outcome.error is None and stdout[outcome.command] != ref_stdout[outcome.command]:
                    outcome.error = f"stdout differs from round 0 in round {j}"
            for name, data in files.items():
                if data != ref_files[name]:
                    owner = FILE_OWNERS[name]
                    outcome = next(o for o in outcomes if o.command == owner)
                    outcome.error = outcome.error or f"{name} differs from round 0 in round {j}"
        return outcomes

    def _check_reference(self, outcomes, stdout, files) -> None:
        """Content checks on round 0; later rounds are compared to it."""
        errors = {o.command: o.error for o in outcomes}
        if errors["tank"] is None:
            report = json.loads(stdout["tank"])
            closed = report["closed_form"]["efficiency"]
            rel = abs(report["rk4"]["efficiency"] - closed) / closed
            if not rel <= 1e-9:
                errors["tank"] = f"rk4 efficiency off the closed form by {rel:.2e} relative"
            if files["waveform.csv"] is None:
                errors["tank"] = "no waveform written"
        if errors["sweep"] is None:
            csv_bytes = files["sweep.csv"] or b""
            rows = csv_bytes.decode().split("\r\n")[1:-1]
            if len(rows) != self.points:
                errors["sweep"] = f"{len(rows)} CSV rows, config asked for {self.points}"
            elif not all(all(row.split(",")) for row in rows):
                errors["sweep"] = "a CSV cell is empty although every parameter is fixed"
            elif files["sweep.manifest.json"] is None:
                errors["sweep"] = "no manifest written"
        if errors["mc"] is None:
            report = json.loads(stdout["mc"])
            errors["mc"] = gate_error(report["hits"], report["trials"], self.exact)
            if self.pin is not None and report["hits"] != self.pin:
                errors["mc"] = f"hits {report['hits']} at seed {self.seed}, pinned {self.pin}"
            if files["path.csv"] is None:
                errors["mc"] = "no path dump written"
            elif (self.pin is not None
                  and hashlib.sha256(files["path.csv"]).hexdigest() != self.pinned_path_sha256):
                errors["mc"] = f"dumped path at seed {self.seed} differs from the pinned stream"
        for outcome in outcomes:
            outcome.error = errors[outcome.command]

    def kernel(self) -> None:
        calibration.cli_kernel(self.workdir / "kernel.csv")

    def cleanup(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {
    "mc-short-paths": lambda: MonteCarlo(
        k_sigma=3.0, n_obs=10, trials=8192, workers=1, pinned_hits=97, kernel_paths=1024),
    # Serial: with two thread workers the fastest call of a run moved by up to
    # 25 % between runs, because the threads contend for the interpreter lock.
    "mc-long-hold": lambda: MonteCarlo(
        k_sigma=4.0, n_obs=1000, trials=8192, workers=1, pinned_hits=248, kernel_paths=1024),
    "cli-session": CliSession,
}
