"""What every workload shares: the outcome record, set-up timing, the
speed probe for batch work, memory readings and percentiles."""

from __future__ import annotations

import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 7

#: The speed probe runs the reference slice this often during a unit.
PROBE_INTERVAL_S = 0.05
#: Passes of the reference slice (about 1.25 ms on the baseline VM).
SLICE_PASSES = 3
#: The reference slice's median time on the baseline VM (see README.md).
#: Batch times are reported at this speed.
SLICE_BASELINE_S = 0.00125

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"


@dataclass
class Outcome:
    """One measured pass of a workload."""

    setup_s: float
    #: units of work finished inside the measured phase
    work: float
    #: wall seconds of the measured phase
    measured_s: float
    #: process CPU seconds over the measured phase
    cpu_s: float
    #: per-operation latency samples, milliseconds (batch: at reference
    #: speed, see :class:`SpeedProbe`)
    op_ms: List[float]
    attempted: int
    failed: int
    #: ``(check name, passed, detail)``
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    #: workload-specific raw numbers the per-layer metrics are built from
    layer: Dict[str, Any] = field(default_factory=dict)
    #: batch only: wall milliseconds of each unit, as measured
    wall_ms: List[float] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))


def import_seconds() -> float:
    """Time of a fresh interpreter importing ``repro.cli`` -- the
    start-up every user command pays before it does any work -- at
    reference speed.

    The import is CPU-bound and moves with the machine like batch work.
    It runs in a child process, so the median of five reference slices
    before it and five after it stands for the machine's speed (see
    :class:`SpeedProbe`).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    readings = [slice_seconds() for _ in range(5)]
    start = time.perf_counter()
    # No timeout: with one, the wait polls the child every 50 ms and the
    # reading comes out in 50 ms steps.
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=env, check=True,
    )
    wall = time.perf_counter() - start
    readings += [slice_seconds() for _ in range(5)]
    return wall * SLICE_BASELINE_S / statistics.median(readings)


def timed_setup(build: Callable[[], Any]) -> Tuple[float, Any]:
    """Run ``build`` :data:`SETUP_REPEATS` times, each after a fresh
    import; return the median set-up time and the last build.  The
    build is counted as measured."""
    totals: List[float] = []
    built = None
    for _ in range(SETUP_REPEATS):
        cost = import_seconds()
        start = time.perf_counter()
        built = build()
        totals.append(cost + time.perf_counter() - start)
    return statistics.median(totals), built


_SLICE_KEYS = [bytes((i & 255, i >> 8)) for i in range(4096)]


def slice_seconds() -> float:
    """Wall time of the reference slice: a fixed pure-Python loop that
    calls no program code.

    It updates a dict keyed by short ``bytes``, as the explorer's visited
    set and the engines' state tables do.  Over the same minutes its
    readings tracked the batch units' slow-downs better than an
    arithmetic loop did.
    """
    start = time.perf_counter()
    table: Dict[bytes, int] = {}
    for rep in range(SLICE_PASSES):
        for key in _SLICE_KEYS:
            table[key] = table.get(key, 0) + rep
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the machine's speed during one unit of batch work.

    On a shared VM the same Python code runs a fifth slower or faster
    from one second or minute to the next, in CPU time as in wall time,
    and raw batch timings spread that far across runs.  Inside ``with
    SpeedProbe() as probe:`` an interval timer interrupts the unit every
    :data:`PROBE_INTERVAL_S` and times the reference slice, which slows
    down with the machine but never with the program.  ``probe.busy_s``
    is the time the slices took inside the block, and :meth:`scale`
    converts the unit's own wall time to reference speed:
    :data:`SLICE_BASELINE_S` over the mean slice reading.
    """

    def __init__(self) -> None:
        self.readings: List[float] = []
        self.busy_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        reading = slice_seconds()
        self.readings.append(reading)
        self.busy_s += reading

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Call right after the block: adds one reading taken then."""
        self.readings.append(slice_seconds())
        return SLICE_BASELINE_S / statistics.mean(self.readings)


def peak_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def current_rss_bytes() -> int:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank-interpolated percentile (``q`` in [0, 1]); 0 if empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
