"""Run every workload of BENCHMARK.json once and print each metric with its unit.

Run from the repository root:

    python3 benchmarks/report.py [--seed 12345] [--seconds 12] [--trace 0]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        if not proc.stdout.strip():
            print(f"{workload}: no result (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} failed_ratio={result['failed'] / result['attempted']:.4g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
        status = status or proc.returncode
    return status


if __name__ == "__main__":
    sys.exit(main())
