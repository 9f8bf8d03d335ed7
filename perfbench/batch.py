"""The two batch workloads: ``simulate`` and ``verify``.

Both call the same public functions the ``repro`` commands call, in the
same order, on inputs made from the seed.  Correctness checks run after
each unit of work, outside its timed region.
"""

from __future__ import annotations

import filecmp
import random
import shutil
import statistics
import time

from repro.analysis import (
    measure_failure_locality,
    plant_priority_cycle,
    steps_to_predicate,
)
from repro.analysis.stabilization import _find_cycle
from repro.core import NADiners
from repro.core import predicates
from repro.fastcore import FastEngine
from repro.obs import trace_io
from repro.sim import AlwaysHungry, System, Topology, from_spec
from repro.sim.scheduler import WeaklyFairDaemon
from repro.sim.trace import TraceRecorder
from repro.verification import FastExplorer

from common import (
    OUT,
    Outcome,
    SpeedProbe,
    current_rss_bytes,
    peak_rss_bytes,
    timed_setup,
)

# ------------------------------------------------------------- simulate

#: ``repro run --topology ring:16 --backend fast --steps RUN_STEPS
#: --trace ... --metrics-out ...``
RUN_SPEC = "ring:16"
RUN_STEPS = 5_000
#: ``repro locality --topology line:16 --victim 7 --malicious 4``.  The
#: victim is fixed: where it sits changes the cost of a step by up to a
#: quarter, which would make the step rate depend on the seed.
LOCALITY_SPEC = "line:16"
LOCALITY_VICTIM = 7
LOCALITY_MALICIOUS_STEPS = 4
LOCALITY_WARMUP = 5_000
LOCALITY_SETTLE = 500
LOCALITY_WINDOW = 2_500
#: ``repro stabilize --topology grid:4:4 --plant-cycle``, checked every step
STABILIZE_SPEC = "grid:4:4"
STABILIZE_TRIALS = 5
STABILIZE_MAX_STEPS = 20_000


class _CountingDaemon(WeaklyFairDaemon):
    """The locality scenario's default daemon, counting the steps it
    schedules: the warm-up until the victim eats varies with the seed and
    the report does not say how long it took."""

    def __init__(self) -> None:
        super().__init__()
        self.selected = 0

    def select(self, *args, **kwargs):
        self.selected += 1
        return super().select(*args, **kwargs)


def _another(outcome: Outcome, seconds: float) -> bool:
    """Run a first unit, then another while one more unit, as long as
    the last, still ends within ``seconds``.  A ring:5 closure takes
    13-22 s, so with ``--seconds 15`` a run is one closure; stopping at
    the limit instead would run one or two, depending on a few percent
    of machine speed."""
    if not outcome.wall_ms:
        return True
    return outcome.measured_s + outcome.wall_ms[-1] / 1000.0 <= seconds


def _timed_unit(outcome: Outcome, unit):
    """Run ``unit()`` as one timed unit of work under a speed probe.

    Records its wall time as measured (``wall_ms``) and at reference
    speed (``op_ms``), both without the probe's own slices, and returns
    ``(unit's result, reference-speed seconds)``.
    """
    probe = SpeedProbe()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with probe:
        done = unit()
    wall = time.perf_counter() - wall0 - probe.busy_s
    outcome.cpu_s += time.process_time() - cpu0 - probe.busy_s
    scaled = wall * probe.scale()
    outcome.measured_s += wall
    outcome.wall_ms.append(wall * 1000.0)
    outcome.op_ms.append(scaled * 1000.0)
    outcome.attempted += 1
    return done, scaled


def _simulate_round(rng: random.Random, out_dir) -> dict:
    """One reproduction round: run + artefacts, locality, stabilization.

    Returns the engine steps taken and the correctness findings.  The
    predicates and trace functions are looked up through their modules
    at call time, so the traced run sees its wrappers.
    """
    steps = 0
    findings = []

    # 1. repro run: fast backend, trace recorded, trace + metrics written.
    topology = from_spec(RUN_SPEC)
    algorithm = NADiners()
    run_seed = rng.randrange(2**31)
    every = max(1, RUN_STEPS // 100)
    recorder = TraceRecorder(snapshot_every=every)
    engine = FastEngine(
        topology, algorithm, hunger=AlwaysHungry(), recorder=recorder,
        seed=run_seed,
    )
    result = engine.run(RUN_STEPS)
    steps += result.steps
    final = engine.snapshot()
    invariant_ok = predicates.invariant_holds(final)
    predicates.invariant_report(final)
    header = trace_io.build_header(
        model="sim",
        algorithm=algorithm.name,
        topology=RUN_SPEC,
        enter_action=algorithm.enter_action,
        exit_action=algorithm.exit_action,
        threshold=topology.diameter,
        has_depth=True,
        seed=run_seed,
        steps_taken=engine.step_count,
        snapshot_every=every,
    )
    trace = trace_io.trace_from_recorder(recorder, header)
    trace_path = trace_io.write_trace(out_dir / "run.trace", trace)
    analysis = trace_io.analyze(trace)
    metrics_path = trace_io.write_analysis_metrics(
        out_dir / "run.metrics", analysis
    )
    events = len(trace.events)

    # 2. repro locality: malicious crash of an interior line process.
    line = from_spec(LOCALITY_SPEC)
    victim = line.nodes[LOCALITY_VICTIM]
    daemon = _CountingDaemon()
    report = measure_failure_locality(
        NADiners(),
        line,
        [victim],
        malicious_steps=LOCALITY_MALICIOUS_STEPS,
        warmup_steps=LOCALITY_WARMUP,
        settle_steps=LOCALITY_SETTLE,
        window=LOCALITY_WINDOW,
        seed=rng.randrange(2**31),
        daemon_factory=lambda: daemon,
    )
    steps += daemon.selected

    # 3. repro stabilize: arbitrary state plus a planted priority cycle.
    grid = from_spec(STABILIZE_SPEC)
    cycle = _find_cycle(grid)
    converged = 0
    for _ in range(STABILIZE_TRIALS):
        system = System(grid, NADiners())
        system.randomize(random.Random(rng.randrange(2**31)))
        plant_priority_cycle(system, cycle)
        outcome = steps_to_predicate(
            system,
            predicates.invariant_holds,
            max_steps=STABILIZE_MAX_STEPS,
            seed=rng.randrange(2**31),
            check_every=1,
        )
        if outcome.converged:
            converged += 1
            steps += outcome.steps

    findings.append(("run.invariant", invariant_ok, "final configuration"))
    findings.append((
        "locality.radius",
        (report.starvation_radius is None or report.starvation_radius <= 2)
        and report.all_beyond_radius_eat(line, 2),
        f"victim {victim!r} radius {report.starvation_radius}",
    ))
    findings.append((
        "stabilize.converged", converged == STABILIZE_TRIALS,
        f"{converged}/{STABILIZE_TRIALS} trials",
    ))
    return {
        "steps": steps,
        "findings": findings,
        "trace_path": trace_path,
        "metrics_path": metrics_path,
        "events": events,
    }


def _artefact_roundtrip(trace_path, metrics_path) -> bool:
    """The metrics artefact equals ``analyze(read_trace(...))`` of the
    written trace, byte for byte."""
    replay = metrics_path.with_name("replay.metrics")
    trace_io.write_analysis_metrics(
        replay, trace_io.analyze(trace_io.read_trace(trace_path))
    )
    return filecmp.cmp(metrics_path, replay, shallow=False)


def simulate(seed: int, seconds: float) -> Outcome:
    out_dir = OUT / f"simulate-{seed}"

    def build():
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        return out_dir

    setup_s, _ = timed_setup(build)
    outcome = Outcome(
        setup_s=setup_s, work=0, measured_s=0.0, cpu_s=0.0, op_ms=[],
        attempted=0, failed=0,
    )
    rates = []
    rounds = 0
    while _another(outcome, seconds):
        rng = random.Random(f"simulate:{seed}:{rounds}")
        done, scaled = _timed_unit(
            outcome, lambda: _simulate_round(rng, out_dir)
        )
        rates.append(done["steps"] / scaled)
        rounds += 1
        findings = done["findings"] + [(
            "artefacts.roundtrip",
            _artefact_roundtrip(done["trace_path"], done["metrics_path"]),
            "metrics == analyze(read_trace(trace))",
        )]
        if not all(ok for _, ok, _ in findings):
            outcome.failed += 1
        for name, ok, detail in findings:
            if not ok:
                outcome.check(f"round {rounds}: {name}", False, detail)
    outcome.check("simulate", outcome.failed == 0, f"{rounds} rounds")
    # Work is credited at the median round's rate at reference speed, so
    # that ``work / measured_s`` in run.py reads that rate.
    outcome.work = statistics.median(rates) * outcome.measured_s
    outcome.layer["rounds"] = rounds
    outcome.layer["trace_bytes"] = (out_dir / "run.trace").stat().st_size
    outcome.layer["trace_events"] = done["events"]
    return outcome


# --------------------------------------------------------------- verify

#: ``repro check --topology ring:5 --reachable --backend fast``.  One
#: closure takes 13-22 s of wall time here, so a 15 s run is one closure;
#: the speed probe samples the machine inside it.
VERIFY_SIZE = 5
EXPECTED_STATES = 446_880
EXPECTED_TRANSITIONS = 2_622_640


def _verify_inputs(seed: int):
    """ring:5 with seed-chosen process labels, in ring order.

    Priorities start from node order, so relabelling keeps the instance
    isomorphic and the closure size fixed while the packed keys and
    pid hashing see different values.
    """
    labels = random.Random(f"verify:{seed}").sample(range(10_000), VERIFY_SIZE)
    topology = Topology(
        labels,
        [(labels[i], labels[(i + 1) % VERIFY_SIZE]) for i in range(VERIFY_SIZE)],
    )
    threshold = topology.diameter
    algorithm = NADiners(depth_cap=threshold + 1, diameter_override=threshold)
    system = System(topology, algorithm)
    for pid in topology.nodes:
        system.write_local(pid, "needs", True)
    return algorithm, topology, system.snapshot()


def verify(seed: int, seconds: float) -> Outcome:
    setup_s, (algorithm, topology, initial) = timed_setup(
        lambda: _verify_inputs(seed)
    )
    outcome = Outcome(
        setup_s=setup_s, work=0, measured_s=0.0, cpu_s=0.0, op_ms=[],
        attempted=0, failed=0,
    )
    rates = []
    while _another(outcome, seconds):
        rss_before = current_rss_bytes()
        stats, scaled = _timed_unit(
            outcome,
            lambda: FastExplorer(algorithm, topology).reachable_count(
                [initial], max_states=1_000_000
            ),
        )
        if "rss_bytes_per_state" not in outcome.layer:
            outcome.layer["rss_bytes_per_state"] = max(
                0, peak_rss_bytes() - rss_before
            ) / stats.states
        rates.append(stats.states / scaled)
        ok = (
            stats.states == EXPECTED_STATES
            and stats.transitions == EXPECTED_TRANSITIONS
            and stats.violations == 0
        )
        if not ok:
            outcome.failed += 1
            outcome.check(
                f"closure {outcome.attempted}", False,
                f"{stats.states} states, {stats.transitions} transitions, "
                f"{stats.violations} violations",
            )
    # Credited at the closures' median rate at reference speed.
    outcome.work = statistics.median(rates) * outcome.measured_s
    outcome.check("verify", outcome.failed == 0, f"{outcome.attempted} closures")
    return outcome
