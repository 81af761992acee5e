"""Fixed reference work, timed next to what the benchmark measures.

The reference machine shares its cores with other guests, and the same code
runs up to 2x slower for stretches of seconds to minutes.  The benchmark
times a reference right before and right after every measured operation and
set-up, and divides the measured wall time by the mean of the two: host speed
changes act on both, so the ratio follows the program.

Each workload's operations are compared with a kernel that imitates them in
plain Python and numpy (``mc_kernel``, ``cli_kernel``).  A kernel never calls
ktfloor, so a change to ktfloor cannot change it; and it imports nothing that
ktfloor might stop importing, so it leaves set-up time and peak memory alone.
The closer a kernel's mix of work is to the operation's, the better it tracks
the host: a generic mix drifted by 15 % against ``mc-short-paths`` when the
host changed speed, where the imitation stayed within 2 %.

Set-up is compared with a reference spawn: a fresh interpreter that imports
numpy and scipy.signal, the same kind of file, mapping and page-fault work as
importing ktfloor.  Set-up ratios are turned back into seconds with
REFERENCE_SPAWN_S.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

RHO = math.exp(-1.0)
REFERENCE_IMPORT = "import numpy, scipy.signal; print('ready', flush=True)"
# Set-up is reported in seconds on a host where the reference spawn takes
# this long, about its time on the reference machine when the host is quiet.
REFERENCE_SPAWN_S = 1.0


def mc_kernel(n_obs: int, paths: int) -> int:
    """Per-key Philox streams, an AR(1) recursion and a threshold count."""
    x = np.empty((paths, n_obs + 1))
    for key in range(paths):
        x[key] = np.random.Generator(np.random.Philox(key=key)).standard_normal(n_obs + 1)
    for k in range(1, n_obs + 1):
        x[:, k] += RHO * x[:, k - 1]
    return int((x.max(axis=1) > 3.0).sum())


def cli_kernel(path: Path) -> str:
    """Argument parsing, an RK4 loop, a CSV file written and removed, a few streams."""
    parser = argparse.ArgumentParser(prog="kernel")
    commands = parser.add_subparsers(dest="command")
    for name in ("floor", "cycle", "tank", "sweep", "mc"):
        command = commands.add_parser(name)
        command.add_argument("--x", type=float)
        command.add_argument("--y", type=float, default=1.0)
        command.add_argument("--json", action="store_true")
    for name in ("floor", "cycle", "tank", "sweep", "mc"):
        parser.parse_args([name, "--x", "1.5e-3", "--json"])
    q, i, dt = 1.0, 0.0, 1e-3

    def slope(q, i):
        return i, -q - 0.05 * i

    for _ in range(600):
        k1 = slope(q, i)
        k2 = slope(q + 0.5 * dt * k1[0], i + 0.5 * dt * k1[1])
        k3 = slope(q + 0.5 * dt * k2[0], i + 0.5 * dt * k2[1])
        k4 = slope(q + dt * k3[0], i + dt * k3[1])
        q += dt / 6.0 * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        i += dt / 6.0 * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in range(300):
            c = 1e-16 * 10.0 ** (row / 100.0)
            writer.writerow([repr(c), repr(math.log(1.0 / c)),
                             repr(math.sqrt(c * 4.14e-21)), repr(math.erfc(row / 300.0))])
    path.unlink()
    s = sum(np.random.Generator(np.random.Philox(key=key)).standard_normal(11)[0]
            for key in range(100))
    return json.dumps({"q": q, "i": i, "s": float(s)})


def time_call(fn) -> float:
    """Wall time of one call, in seconds."""
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def time_reference_spawn() -> float:
    """Wall time from spawning the reference interpreter to its ready line."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", REFERENCE_IMPORT],
                          stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"reference spawn exited {proc.returncode}")
    return elapsed
