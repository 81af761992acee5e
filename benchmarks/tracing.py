"""Spans around calls into ktfloor's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at the attribute through
which its callers look it up (``ktfloor.cli.first_passage_mc``,
``ktfloor.floors.path_generator``, ``TankCircuit.simulate_transfer``, ...)
and ``uninstall`` puts the originals back, so the library itself is never
edited.  Spans stay in memory until ``write_csv`` at the end of the run.
"""

from __future__ import annotations

import csv
import inspect
import itertools
import math
import os
import threading
import time
from collections import defaultdict

# Span tuple layout.
ID, NAME, START, END, PARENT, THREAD, OP, EXTRA = range(8)

CLOSED_FORMS = (
    "floor_short",
    "floor_long",
    "required_swing",
    "tail_probability",
    "multi_sample_error",
)


class _TimedGenerator:
    """Proxy for a ``numpy.random.Generator`` that times ``standard_normal``."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def standard_normal(self, *args, **kwargs):
        return self._tracer.call(
            "noise.standard_normal", self._gen.standard_normal, args, kwargs,
            _normals_drawn,
        )

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _normals_drawn(args, kwargs, result):
    return int(result.size) if hasattr(result, "size") else 1


class Tracer:
    """Records (id, name, start, end, parent, thread, op, extra) spans.

    A span's parent is the innermost open span on its own thread or, for a
    worker thread with nothing open, the innermost open span on the thread
    that created the tracer (the caller of ``first_passage_mc``).
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.op = 0
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple] = []

    def call(self, name, fn, args, kwargs, extra=None, cpu=False):
        span_id = next(self._ids)
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else (self._stacks.get(self._main) or [0])[-1]
        stack.append(span_id)
        cpu0 = time.process_time() if cpu else 0.0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            cpu_s = time.process_time() - cpu0 if cpu else None
        value = extra(args, kwargs, result) if extra is not None else None
        if cpu:
            value = (cpu_s, value)
        self.spans.append((span_id, name, start, end, parent, tid, self.op, value))
        return result

    def _wrap(self, name, fn, extra=None, cpu=False):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, extra, cpu)

        return traced

    def install(self) -> None:
        """Patch every traced call site; ``uninstall`` restores them."""
        from ktfloor import audit, circuit, cli, floors, noise, sweep, tank

        def path_generator_at(owner):
            original = owner.path_generator

            def path_generator(*args, **kwargs):
                gen = self.call("noise.path_generator", original, args, kwargs)
                return _TimedGenerator(gen, self)

            return path_generator

        mc_extra = _mc_extra(floors)
        sites = [
            (cli, "main", self._wrap("cli.main", cli.main)),
            (floors, "first_passage_mc", self._wrap(
                "floors.first_passage_mc", floors.first_passage_mc, mc_extra, cpu=True)),
            (cli, "first_passage_mc", self._wrap(
                "floors.first_passage_mc", cli.first_passage_mc, mc_extra, cpu=True)),
            (floors, "path_generator", path_generator_at(floors)),
            (noise, "path_generator", path_generator_at(noise)),
            (cli, "stationary_path", self._wrap("noise.stationary_path", cli.stationary_path)),
            (cli, "run_cycle", self._wrap("audit.run_cycle", cli.run_cycle)),
            (cli, "audit_claim", self._wrap("audit.audit_claim", cli.audit_claim)),
            (circuit.RcStage, "full_cycle_dissipation", self._wrap(
                "circuit.full_cycle_dissipation", circuit.RcStage.full_cycle_dissipation)),
            (tank.TankCircuit, "simulate_transfer", self._wrap(
                "tank.simulate_transfer", tank.TankCircuit.simulate_transfer, _rk4_steps)),
            (cli, "run_sweep", self._wrap("sweep.run_sweep", cli.run_sweep, _bytes_written)),
            (sweep, "compute_rows", self._wrap(
                "sweep.compute_rows", sweep.compute_rows, lambda a, k, rows: len(rows))),
        ]
        for owner in (cli, sweep, audit, floors):
            for fn_name in CLOSED_FORMS:
                if hasattr(owner, fn_name):
                    sites.append((owner, fn_name, self._wrap(
                        "floors." + fn_name, getattr(owner, fn_name))))
        for owner, attr, replacement in sites:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start", "end", "parent", "thread", "op", "extra"])
            writer.writerows(self.spans)


def _mc_extra(floors):
    """(trials, bytes of the (chunk, n_obs+1) float64 arrays in flight)."""
    signature = inspect.signature(floors.first_passage_mc)

    def extra(args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        trials, workers = bound.arguments["trials"], bound.arguments["workers"]
        chunk = min(floors._MC_CHUNK, trials)
        in_flight = min(workers, math.ceil(trials / chunk))
        return trials, chunk * (result.n_observations + 1) * 8 * in_flight

    return extra


def _rk4_steps(args, kwargs, result):
    """Step count of ``simulate_transfer``, from its schedule and dt rule."""
    tank = args[0]
    dt = kwargs.get("dt", args[1] if len(args) > 1 else None)
    if dt is None:
        dt = 0.5 * math.sqrt(tank.inductance * min(tank.c1, tank.c2)) / 100.0
    t1, t2 = tank.transfer_schedule()
    return max(1, math.ceil(t1 / dt)) + max(1, math.ceil(t2 / dt))


def _bytes_written(args, kwargs, result):
    return sum(os.path.getsize(path) for path in result)


def _covered(intervals, lo, hi) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(spans, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, each averaged over ``ops`` traced operations."""
    by_name = defaultdict(list)
    children = defaultdict(list)
    for span in spans:
        by_name[span[NAME]].append(span)
        children[span[PARENT]].append((span[START], span[END]))

    def calls(*names):
        return sum(len(by_name[n]) for n in names) / ops

    def busy(*names):
        return sum(s[END] - s[START] for n in names for s in by_name[n]) / ops

    def self_time(name):
        return sum(
            s[END] - s[START] - _covered(children[s[ID]], s[START], s[END])
            for s in by_name[name]
        ) / ops

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    mc = by_name["floors.first_passage_mc"]
    mc_wall = sum(s[END] - s[START] for s in mc)
    mc_cpu = sum(s[EXTRA][0] for s in mc)
    closed = ["floors." + n for n in CLOSED_FORMS]
    rows = sum(s[EXTRA] for s in by_name["sweep.compute_rows"]) / ops
    steps = sum(s[EXTRA] for s in by_name["tank.simulate_transfer"]) / ops
    return {
        "noise.path_generator.calls": (calls("noise.path_generator"), "count"),
        "noise.path_generator.busy_s": (busy("noise.path_generator"), "s"),
        "noise.standard_normal.calls": (calls("noise.standard_normal"), "count"),
        "noise.standard_normal.busy_s": (busy("noise.standard_normal"), "s"),
        "noise.normals_drawn": (
            sum(s[EXTRA] for s in by_name["noise.standard_normal"]) / ops, "count"),
        "noise.stationary_path.calls": (calls("noise.stationary_path"), "count"),
        "noise.stationary_path.busy_s": (busy("noise.stationary_path"), "s"),
        "floors.first_passage_mc.calls": (calls("floors.first_passage_mc"), "count"),
        "floors.first_passage_mc.busy_s": (busy("floors.first_passage_mc"), "s"),
        "floors.first_passage_mc.self_s": (self_time("floors.first_passage_mc"), "s"),
        "floors.first_passage_mc.cpu_per_wall": (ratio(mc_cpu, mc_wall), "ratio"),
        "floors.mc_chunk_bytes": (max((s[EXTRA][1][1] for s in mc), default=0), "B"),
        "floors.closed_form.calls": (calls(*closed), "count"),
        "floors.closed_form.busy_s": (busy(*closed), "s"),
        "audit.run_cycle.calls": (calls("audit.run_cycle"), "count"),
        "audit.run_cycle.busy_s": (busy("audit.run_cycle"), "s"),
        "audit.audit_claim.calls": (calls("audit.audit_claim"), "count"),
        "circuit.full_cycle_dissipation.calls": (
            calls("circuit.full_cycle_dissipation"), "count"),
        "tank.simulate_transfer.calls": (calls("tank.simulate_transfer"), "count"),
        "tank.simulate_transfer.busy_s": (busy("tank.simulate_transfer"), "s"),
        "tank.rk4_steps": (steps, "count"),
        "tank.rk4_steps_per_s": (ratio(steps, busy("tank.simulate_transfer")), "1/s"),
        "sweep.compute_rows.busy_s": (busy("sweep.compute_rows"), "s"),
        "sweep.rows": (rows, "count"),
        "sweep.rows_per_s": (ratio(rows, busy("sweep.compute_rows")), "1/s"),
        "sweep.write_s": (busy("sweep.run_sweep") - busy("sweep.compute_rows"), "s"),
        "sweep.bytes_written": (
            sum(s[EXTRA] for s in by_name["sweep.run_sweep"]) / ops, "B"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_time("cli.main"), "s"),
    }


def traced_trials(spans) -> int:
    """Trials requested from ``first_passage_mc`` over all traced calls."""
    return sum(s[EXTRA][1][0] for s in spans if s[NAME] == "floors.first_passage_mc")
