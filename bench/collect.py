"""Run the benchmark several times per workload and summarise the spread.

    python3 bench/collect.py [--seeds 1,2,...] [--trace 0|1]

Runs the command of `BENCHMARK.json` once per (workload, seed) for every
workload listed there, with its `run_seconds`, one run at a time, from the
repository root.  For every metric it prints the median, the quartiles and
the spread (interquartile range over median, from
`statistics.quantiles(values, n=4)`), plus the share of failed operations.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def machine_facts() -> str:
    import numpy
    import scipy

    return (f"nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [*MANIFEST["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(MANIFEST["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(workload: str, runs: list) -> None:
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"\n{workload}: {len(runs)} runs, correct={correct}, failed share={sorted(shares)}")
    print(f"{'metric':<58} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:<58} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f}  {first['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    print(machine_facts())
    for workload in (w["name"] for w in MANIFEST["workloads"]):
        runs = []
        for seed in (int(s) for s in args.seeds.split(",")):
            runs.append(run_once(workload, seed, args.trace))
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()), file=sys.stderr)
        summarise(workload, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
