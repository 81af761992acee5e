"""ktfloor benchmark: run one workload and print its metrics.

Run from the repository root:

    python3 benchmarks/run.py --workload mc-short-paths --seed 12345 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics.  The measurement is split over
PROCESSES fresh worker processes run one after another, with SETUP_SPAWNS
setup-only processes before each, and ``--seconds`` bounds the whole run.  On
a shared host the same work runs up to 2x slower for stretches of seconds to
minutes, so each setup-only process's spawn-to-ready time is divided by that
of a reference spawn run right before and after it, and each operation's wall
time by that of the workload's calibration kernel run right before and after
it (see calibration.py and README.md).

``--trace 1`` runs one worker that alternates traced and untraced operations
and reports the per-layer metrics plus the tracing overhead; it stops early
once it holds MAX_SPANS spans, which bounds its memory, and writes them to
``.bench_work/``.

Earlier stdout lines describe the run environment, per-command latencies
and failures; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is 0 when
every check passed, 1 when one failed and 2 when the working directory holds
no ktfloor checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import calibration
import tracing
from workloads import WORKLOADS, load_oracle

PROCESSES = 3  # worker processes per untraced run
SETUP_SPAWNS = 1  # setup-only processes before each worker
TIMEOUT_S = 170.0
MAX_SPANS = 500_000  # a traced run stops early once it holds this many spans


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny inputs and a single worker, for the harness self-check",
    )
    parser.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def run_worker_process(root: Path, args, index: int, seconds: float, setup_only=False):
    """Spawn one worker; returns (spawn-to-ready seconds, its result dict)."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(seconds), "--trace", str(args.trace),
            "--worker", str(index)] + (["--smoke"] if args.smoke else [])
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    with subprocess.Popen(argv, cwd=root, env=child_env(root), stdout=subprocess.PIPE,
                          text=True) as proc:
        # The ready line and the result may arrive in one read, so the rest is
        # read from the same buffered stream, under a watchdog.
        watchdog = threading.Timer(TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            watchdog.cancel()
    lines = rest.splitlines()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {index} exited {proc.returncode} without a result")
    return setup_s, json.loads(lines[-1])


def environment(args) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu_model,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def p90(values) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def worker(args, root: Path) -> int:
    """Set up, say ``ready``, run operations for ``--seconds``, print a JSON summary."""
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, args.smoke)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({}))
        return 0
    workload.prepare(load_oracle(root), root, args.worker)
    tracer = tracing.Tracer() if args.trace else None
    walls = {False: [], True: []}  # untraced and traced operation wall times
    by_command: dict[str, list[float]] = {}
    relative: dict[str, list[float]] = {}  # wall over the adjacent kernel time, by command
    attempted, notes, trials = 0, [], 0
    try:
        j = 0
        kernel_before = calibration.time_call(workload.kernel) if tracer is None else None
        deadline = time.perf_counter() + args.seconds
        spans = tracer.spans if tracer else ()
        while j < (3 if tracer else 2) or (
                time.perf_counter() < deadline and len(spans) < MAX_SPANS):
            traced = tracer is not None and j % 2 == 1
            if traced:
                tracer.op = j
                tracer.install()
            try:
                outcomes = workload.run(j)
            finally:
                if traced:
                    tracer.uninstall()
            attempted += len(outcomes)
            notes += [f"op {j} {o.command}: {o.error}" for o in outcomes if o.error]
            if j > 0:  # operation 0 warms up and is the reference
                walls[traced].append(sum(o.wall_s for o in outcomes))
                if not traced:
                    trials += sum(o.trials for o in outcomes)
                    for o in outcomes:
                        by_command.setdefault(o.command, []).append(o.wall_s)
            if tracer is None:  # untraced runs time the kernel around every operation
                kernel_after = calibration.time_call(workload.kernel)
                if j > 0:
                    kernel_s = 0.5 * (kernel_before + kernel_after)
                    for o in outcomes:
                        relative.setdefault(o.command, []).append(o.wall_s / kernel_s)
                    relative.setdefault("op", []).append(walls[False][-1] / kernel_s)
                kernel_before = kernel_after
            j += 1
    finally:
        workload.cleanup()

    summary = {
        "attempted": attempted, "notes": notes, "trials": trials,
        "by_command": by_command, "relative": relative, "digest": workload.digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        spans = tracer.spans
        expected_calls = tracing.traced_trials(spans) + sum(
            1 for s in spans if s[tracing.NAME] == "noise.stationary_path")
        got_calls = sum(1 for s in spans if s[tracing.NAME] == "noise.path_generator")
        summary["attempted"] += 1
        if got_calls != expected_calls:
            notes.append(f"noise.path_generator.calls {got_calls} != trials + dumped paths {expected_calls}")
        layers = tracing.layer_metrics(spans, len(walls[True]))
        traced_p50, untraced_p50 = statistics.median(walls[True]), statistics.median(walls[False])
        layers["trace.overhead_ms"] = (1e3 * (traced_p50 - untraced_p50), "ms")
        layers["trace.overhead_pct"] = (100.0 * (traced_p50 / untraced_p50 - 1.0), "%")
        summary["layers"] = layers
        trace_dir = root / ".bench_work"
        trace_dir.mkdir(exist_ok=True)
        tracer.write_csv(trace_dir / f"trace-{args.workload}-seed{args.seed}.csv")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    for needed in ("src/ktfloor/__init__.py", "tests/ar1_oracle.py"):
        if not (root / needed).is_file():
            print(f"error: {root} holds no ktfloor checkout ({needed} missing)", file=sys.stderr)
            return 2
    sys.path.insert(0, str(root / "src"))
    if args.worker is not None:
        return worker(args, root)

    why = {w["name"]: w["why"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]}
    print(json.dumps({"env": environment(args), "why": why[args.workload]}))
    deadline = time.perf_counter() + args.seconds
    processes = 1 if args.smoke or args.trace else PROCESSES
    setup_spawns = 0 if args.trace else 1 if args.smoke else SETUP_SPAWNS
    attempted = failed = 0
    notes, setup_samples, setup_relative, summaries = [], [], [], []
    for index in range(processes):
        try:
            references = [calibration.time_reference_spawn()] if setup_spawns else []
            for _ in range(setup_spawns):
                attempted += 1
                setup_samples.append(run_worker_process(root, args, index, 0.0, True)[0])
                references.append(calibration.time_reference_spawn())
                setup_relative.append(setup_samples[-1] / (0.5 * sum(references[-2:])))
            attempted += 1
            seconds = (deadline - time.perf_counter()) / (processes - index)
            if setup_samples:  # the worker's own setup is part of its share
                seconds -= statistics.median(setup_samples)
            _, summary = run_worker_process(root, args, index, max(seconds, 0.0))
        except (RuntimeError, ValueError) as exc:
            failed += 1
            notes.append(str(exc))
            continue
        summaries.append(summary)
        attempted += summary["attempted"]
        failed += len(summary["notes"])
        notes += summary["notes"]
    if len({s["digest"] for s in summaries}) > 1:
        failed += 1
        notes.append("workers wrote different reference outputs for the same inputs")

    for note in notes[:20]:
        print("failure:", note)
    print(json.dumps({"failed_ratio": failed / attempted, "attempted": attempted,
                      "workers": len(summaries)}))
    if setup_samples:
        print(json.dumps({"setup_samples": len(setup_samples), "min_s": min(setup_samples),
                          "p50_s": statistics.median(setup_samples),
                          "p50_ref": statistics.median(setup_relative)}))
    by_command: dict[str, list[float]] = {}
    relative: dict[str, list[float]] = {}
    for summary in summaries:
        for command, walls in summary["by_command"].items():
            by_command.setdefault(command, []).extend(walls)
        for command, ratios in summary["relative"].items():
            relative.setdefault(command, []).extend(ratios)
    for command, walls in by_command.items():
        line = {"command": command, "samples": len(walls), "min_ms": 1e3 * min(walls),
                "p50_ms": 1e3 * statistics.median(walls), "p90_ms": 1e3 * p90(walls)}
        if command in relative:
            line["p50_ref"] = statistics.median(relative[command])
            line["p90_ref"] = p90(relative[command])
        print(json.dumps(line))

    if not summaries:
        metrics = {}
    elif args.trace:
        metrics = summaries[0]["layers"]
    else:
        trials_per_call = sum(s["trials"] for s in summaries) / len(relative["mc"])
        metrics = {
            "setup_s": (statistics.median(setup_relative) * calibration.REFERENCE_SPAWN_S, "s"),
            "peak_rss_mb": (statistics.median(s["peak_rss_mb"] for s in summaries), "MB"),
            "op_time_ref": (statistics.median(relative["op"]), "ref"),
            "trials_per_ref": (trials_per_call / statistics.median(relative["mc"]), "1/ref"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
