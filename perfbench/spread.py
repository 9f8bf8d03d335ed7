"""Run the benchmark over several seeds and report each end-to-end
metric's median and spread (quartile distance over median).

    python3 perfbench/spread.py --workload verify --seeds 1-10 --seconds 15

Runs are untraced (``--trace 0``) and sequential, one process each,
from the checkout root.  Every
run's last output line is appended to ``perfbench/out/spread.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,3,1000")
    parser.add_argument("--seconds", type=float, required=True)
    args = parser.parse_args(argv)

    values = {}
    log = HERE / "out" / "spread.jsonl"
    log.parent.mkdir(parents=True, exist_ok=True)
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=900,
        )
        last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
        if done.returncode != 0 or not last:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}")
            return 1
        result = json.loads(last)
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": seed,
                                     **result}) + "\n")
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for name, series in values.items():
        median = statistics.median(series)
        if len(series) >= 2:
            q1, _, q3 = statistics.quantiles(series, n=4)
        else:
            q1 = q3 = series[0]
        spread = (q3 - q1) / median if median else float("nan")
        print(f"{name:40s} {median:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
