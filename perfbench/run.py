"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the workload untraced and prints the end-to-end
metrics.  ``--trace 1`` runs the same untraced pass first (the base for
``trace.overhead_ratio``), then a second pass with every layer entry
point wrapped, and prints the per-layer metrics.  Every pass runs the
workload's correctness checks; a run that fails one prints
``"correct": false`` with no metrics and exits 1.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md
for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("simulate", "verify", "serve-saturated", "serve-crash")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _source_digest() -> str:
    """SHA-256 over the program's sources: identifies the code measured
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _provenance(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": _git_rev(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }


def _run(workload: str, seed: int, seconds: float, hooks=None):
    if workload in ("simulate", "verify"):
        import batch

        return getattr(batch, workload)(seed, seconds)
    import serve

    fn = serve.serve_crash if workload == "serve-crash" else serve.serve_saturated
    return fn(seed, seconds, hooks)


def _end_to_end(outcome) -> dict:
    from common import peak_rss_bytes, percentile

    return {
        "setup_s": (outcome.setup_s, "s"),
        "work_per_s": (outcome.work / outcome.measured_s, "1/s"),
        "peak_rss_mb": (peak_rss_bytes() / 2**20, "MB"),
        "latency_p50_ms": (percentile(outcome.op_ms, 0.50), "ms"),
        "latency_p99_ms": (percentile(outcome.op_ms, 0.99), "ms"),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'repro'}; run it from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from common import OUT

    provenance = _provenance(args)
    print(json.dumps({"provenance": provenance}, sort_keys=True), flush=True)

    passes = [_run(args.workload, args.seed, args.seconds)]
    problems = []
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        hooks = layers.install(tracer)
        try:
            passes.append(_run(args.workload, args.seed, args.seconds, hooks))
        finally:
            tracer.uninstall()
        tracer.write(
            OUT / f"{args.workload}-s{args.seed}-spans.jsonl", provenance
        )
        values = layers.derive(tracer, passes[0], passes[1])
        problems = layers.coverage(args.workload, values)
        metrics = {
            name: {"value": values[name], "unit": layers.METRICS[name][0]}
            for name in layers.METRICS
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in _end_to_end(passes[0]).items()
        }

    for outcome in passes:
        problems.extend(
            f"check {name} failed: {detail}"
            for name, ok, detail in outcome.checks if not ok
        )
        if not outcome.checks:
            problems.append("no correctness check ran")
    correct = not problems
    summary = {
        "correct": correct,
        "attempted": sum(outcome.attempted for outcome in passes),
        "failed": sum(outcome.failed for outcome in passes),
        "metrics": metrics if correct else {},
    }
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    from common import percentile

    # Batch passes also give their units' median wall time as measured,
    # next to the reference-speed figures the metrics report.
    detail = [
        {"latency_samples": len(outcome.op_ms),
         "measured_s": outcome.measured_s, "cpu_s": outcome.cpu_s,
         **({"wall_p50_ms": percentile(outcome.wall_ms, 0.50)}
            if outcome.wall_ms else {})}
        for outcome in passes
    ]
    print(json.dumps({"passes": detail}, sort_keys=True), flush=True)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "passes": detail, **summary},
                   indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
