"""The two serve workloads: a live line:8 lock service behind a gateway.

``serve-saturated`` drives it with a closed loop of logical clients whose
offered load exceeds capacity, so grants per second measure capacity.
``serve-crash`` drives it with an open loop at a fixed rate below
capacity and, on a fixed timeline, crashes interior node 3 maliciously
(a garbage burst on each outgoing link, then a halt) while a client holds
its lock, and restarts it in an arbitrary state.

One operation is one logical acquire.  An attempt that is shed or lost
with its connection is retried after a back-off, as a lock client does;
the operation fails only if no grant arrives within ``DEADLINE_S`` of
its due time.  Latency is timed from the due time, so a stall also
charges the requests queued behind it.
"""

from __future__ import annotations

import asyncio
import heapq
import random
import statistics
import time
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.gateway import AdmissionConfig, FlushPolicy
from repro.gateway.server import GatewayConfig, GatewayServer
from repro.net.chaos import ChaosSchedule, FaultEvent
from repro.net.cluster import ClusterConfig, ClusterSupervisor, RestartPolicy
from repro.net.lock import hold_intervals, neighbour_violations
from repro.sim import from_spec

from common import Outcome, import_seconds, SETUP_REPEATS

SPEC = "line:8"
#: closed loop (serve-saturated)
CLIENTS = 200
THINK_S = 0.5
HOLD_S = 0.010
#: open loop (serve-crash): below the saturated capacity, and high enough
#: that a run holds over 1000 acquires, so p99 has ten samples beyond it
RATE_HZ = 70.0
#: traffic before the measured window, so queues reach steady state
WARMUP_S = 4.0
DEADLINE_S = 10.0
RETRY_BACKOFF_S = 0.05
#: fault timeline of serve-crash, relative to the measured window
CRASH_NODE = 3
CRASH_AT = 0.3  #: share of the window before the crash
RESTART_DELAY_S = 1.0
#: how long the crash waits for a client to hold node 3's lock
HOLD_WAIT_S = 2.0


@dataclass
class Op:
    """One logical acquire, from due time to release."""

    label: str
    node: int
    due: float
    hold: float
    client: int = -1  #: closed-loop client index, -1 in the open loop
    attempts: int = 0
    first_submit: float = -1.0
    granted: float = -1.0
    upstream_wait_s: float = 0.0
    lost: int = 0
    shed: int = 0
    failed: bool = False
    done: bool = False


class Fleet:
    """One coroutine and a timer heap drive every logical client."""

    def __init__(self, gateway: GatewayServer, seed: int, closed: bool,
                 start: float, window: Tuple[float, float]) -> None:
        self.gateway = gateway
        self.closed = closed
        self.window = window
        self.rng = random.Random(f"serve:{seed}:retry")
        self.heap: List[Tuple[float, int, str, Op]] = []
        self.seq = 0
        self.completions: Deque[Tuple[Op, object]] = deque()
        self.wake = asyncio.Event()
        self.ops: List[Op] = []
        self.by_label: Dict[str, Op] = {}
        self.open_ops = 0
        nodes = len(from_spec(SPEC))
        if closed:
            self.client_rng = [
                random.Random(f"serve:{seed}:c{i}") for i in range(CLIENTS)
            ]
            for i in range(CLIENTS):
                due = start + self.client_rng[i].uniform(0.0, THINK_S)
                self._new_op(i, i % nodes, due)
        else:
            # Nodes take arrivals in turn, even nodes then odd ones, so two
            # consecutive acquires never contend for the same fork.  (A
            # seeded random order made p50 depend on how often consecutive
            # arrivals landed on neighbours: 20-29 ms across seeds.)
            arrivals = random.Random(f"serve:{seed}:arrivals")
            order = list(range(0, nodes, 2)) + list(range(1, nodes, 2))
            k = 0
            while True:
                due = start + k / RATE_HZ
                if due >= window[1]:
                    break
                op = Op(
                    label=f"o{k}",
                    node=order[k % nodes],
                    due=due,
                    hold=arrivals.expovariate(1.0 / HOLD_S),
                )
                self._add(op)
                k += 1

    # ------------------------------------------------------------- ops

    def _add(self, op: Op) -> None:
        self.ops.append(op)
        self.by_label[op.label] = op
        self.open_ops += 1
        self.push(op.due, "acquire", op)

    def _new_op(self, client: int, node: int, due: float) -> None:
        rng = self.client_rng[client]
        op = Op(
            label=f"c{client}",
            node=node,
            due=due,
            hold=rng.expovariate(1.0 / HOLD_S),
            client=client,
        )
        self._add(op)

    def push(self, t: float, kind: str, op: Op) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, self.seq, kind, op))

    def _finish(self, op: Op, now: float) -> None:
        op.done = True
        self.open_ops -= 1
        if self.closed and now < self.window[1]:
            rng = self.client_rng[op.client]
            self._new_op(op.client, op.node,
                         now + rng.expovariate(1.0 / THINK_S))

    def _submit(self, op: Op, now: float) -> None:
        op.attempts += 1
        if op.first_submit < 0:
            op.first_submit = now
            self.push(op.due + DEADLINE_S, "deadline", op)
        decision = self.gateway.submit(
            op.label, op.node, "acquire",
            lambda completion, op=op: self._complete(op, completion),
        )
        if decision is not None:
            op.shed += 1
            self.push(now + decision.retry_after_s + self._jitter(),
                      "acquire", op)

    def _jitter(self) -> float:
        return self.rng.uniform(0.0, RETRY_BACKOFF_S)

    def _complete(self, op: Op, completion) -> None:
        self.completions.append((op, completion))
        self.wake.set()

    def _on_completion(self, op: Op, completion, now: float) -> None:
        if completion.op == "release":
            if not op.done:
                self._finish(op, now)
            return
        if op.done:
            # Granted after its deadline failed it: hand the lock back.
            if completion.ok:
                self._release(op, now)
            return
        if completion.ok:
            op.granted = now
            op.upstream_wait_s = completion.wait_s
            self.push(now + op.hold, "release", op)
            return
        if completion.error == "retry":
            op.shed += 1
        else:
            op.lost += 1
        self.push(now + RETRY_BACKOFF_S + self._jitter(), "acquire", op)

    def _release(self, op: Op, now: float) -> None:
        decision = self.gateway.submit(
            op.label, op.node, "release",
            lambda completion, op=op: self._complete(op, completion),
        )
        if decision is not None and not op.done:
            self._finish(op, now)  # the node index was refused outright

    def _expire(self, op: Op, now: float) -> None:
        if not op.done and op.granted < 0:
            op.failed = True
            self._finish(op, now)

    async def run(self) -> None:
        loop = asyncio.get_running_loop()
        while self.open_ops or self.completions:
            now = loop.time()
            while self.completions:
                op, completion = self.completions.popleft()
                self._on_completion(op, completion, now)
            while self.heap and self.heap[0][0] <= now:
                _, _, kind, op = heapq.heappop(self.heap)
                if op.done and kind != "deadline":
                    continue
                if kind == "acquire":
                    self._submit(op, now)
                elif kind == "release":
                    self._release(op, now)
                else:
                    self._expire(op, now)
            if self.completions:
                continue
            self.gateway.flush()
            timeout = 0.05
            if self.heap:
                timeout = max(0.0, min(self.heap[0][0] - loop.time(), 0.05))
            try:
                await asyncio.wait_for(self.wake.wait(), timeout)
            except asyncio.TimeoutError:
                pass
            self.wake.clear()


# ------------------------------------------------------------ cluster


def _cluster_config(seed: int, crash: bool) -> ClusterConfig:
    topology = from_spec(SPEC)
    return ClusterConfig(
        topology=topology,
        topology_spec=SPEC,
        seed=seed,
        lock_service=True,
        # The benchmark plays its own fault timeline; the supervisor's
        # schedule is empty, so no link is flaky and nothing partitions.
        schedule=ChaosSchedule(seed=seed, duration_s=3600.0),
        restart=RestartPolicy(
            max_restarts=1, delay_s=RESTART_DELAY_S, arbitrary_state=True
        ) if crash else None,
    )


async def _boot(config: ClusterConfig):
    supervisor = ClusterSupervisor(config)
    await supervisor.start(3600.0)
    nodes = list(config.topology.nodes)
    gateway = GatewayServer(GatewayConfig(
        upstream_addrs=[
            (config.host, supervisor.nodes[pid].port) for pid in nodes
        ],
        node_labels=[repr(pid) for pid in nodes],
        admission=AdmissionConfig(),
        upstream_flush=FlushPolicy(),
        host=config.host,
    ))
    await gateway.start()
    return supervisor, gateway


async def _shutdown(supervisor, gateway) -> None:
    try:
        await gateway.stop()
    finally:
        await supervisor.stop()


def _crash_events(seed: int, topology) -> Tuple[FaultEvent, FaultEvent]:
    rng = random.Random(f"serve:{seed}:garbage")
    out = tuple(
        (CRASH_NODE, q) for q in sorted(topology.neighbors(CRASH_NODE))
    )
    garbage = tuple(
        bytes(rng.randrange(256) for _ in range(rng.randint(64, 128)))
        for _ in out
    )
    crash = FaultEvent(at_s=0.0, kind="malicious-crash", links=out,
                       node=CRASH_NODE, garbage=garbage)
    restart = FaultEvent(at_s=0.0, kind="restart", links=out, node=CRASH_NODE)
    return crash, restart


async def _serve(seed: int, seconds: float, crash: bool, hooks) -> Outcome:
    loop = asyncio.get_running_loop()
    config = _cluster_config(seed, crash)

    setups: List[float] = []
    for attempt in range(SETUP_REPEATS):
        # Blocks the loop, but nothing else runs on it between boots.
        cost = import_seconds()
        started = time.perf_counter()
        supervisor, gateway = await _boot(config)
        setups.append(cost + time.perf_counter() - started)
        if attempt < SETUP_REPEATS - 1:
            await _shutdown(supervisor, gateway)
    setup_s = statistics.median(setups)

    if hooks is not None:
        hooks.on_cluster(supervisor)
    start = loop.time()
    window = (start + WARMUP_S, start + WARMUP_S + seconds)
    fleet = Fleet(gateway, seed, closed=not crash, start=start,
                  window=window)
    if hooks is not None:
        hooks.on_fleet(fleet)

    faults: Optional[asyncio.Task] = None
    if crash:
        crash_event, restart_event = _crash_events(seed, config.topology)

        async def timeline() -> bool:
            controller = supervisor.controller
            await asyncio.sleep(window[0] + CRASH_AT * seconds - loop.time())
            # Crash while a client holds node 3's lock, as the locality
            # scenario crashes its victim while eating: the crashed node
            # then holds both forks.  ``crash.victim_held`` fails the run
            # if no client held the lock within HOLD_WAIT_S.
            victim = supervisor.nodes[CRASH_NODE].process
            give_up = loop.time() + HOLD_WAIT_S
            while not victim.holding and loop.time() < give_up:
                await asyncio.sleep(0.001)
            held = bool(victim.holding)
            await controller.apply(crash_event)
            await asyncio.sleep(RESTART_DELAY_S)
            await controller.apply(restart_event)
            return held

        faults = asyncio.create_task(timeline())

    cpu_window = 0.0
    victim_held = None
    try:
        runner = asyncio.create_task(fleet.run())
        await asyncio.sleep(max(0.0, window[0] - loop.time()))
        cpu_start = time.process_time()
        await asyncio.sleep(max(0.0, window[1] - loop.time()))
        cpu_window = time.process_time() - cpu_start
        await runner
        if faults is not None:
            victim_held = await faults
    finally:
        if faults is not None and not faults.done():
            faults.cancel()
        end_t = loop.time() - supervisor._t0
        await _shutdown(supervisor, gateway)

    result = supervisor.result(end_t)
    return _outcome(setup_s, seconds, cpu_window, window, fleet, result,
                    config, victim_held)


def _outcome(setup_s, seconds, cpu_window, window, fleet, result, config,
             victim_held) -> Outcome:
    """``victim_held`` is None without a crash, else whether node 3 held
    its lock when it crashed."""
    lo, hi = window
    in_window = [op for op in fleet.ops if lo <= op.due < hi]
    granted = [op for op in in_window if op.granted >= 0]
    outcome = Outcome(
        setup_s=setup_s,
        work=sum(1 for op in fleet.ops if lo <= op.granted < hi),
        measured_s=seconds,
        cpu_s=cpu_window,
        op_ms=[(op.granted - op.due) * 1000.0 for op in granted],
        attempted=len(in_window),
        failed=sum(1 for op in in_window if op.failed),
    )
    outcome.check(
        "ops.accounted",
        all(op.done and (op.failed or op.granted >= 0) for op in fleet.ops),
        "every acquire was granted or failed by its deadline",
    )
    intervals = hold_intervals(result.events, end_t=result.duration_s)
    violations = neighbour_violations(
        config.topology, intervals, exclude=result.killed
    )
    outcome.check("safety.overlaps", not violations,
                  f"{len(violations)} neighbour overlaps")
    silent = [
        node for node, counters in result.counters.items()
        if node not in result.killed and counters.get("grants", 0) == 0
    ]
    outcome.check("liveness.every_node_grants", not silent,
                  f"nodes without grants: {silent}")
    victim = repr(CRASH_NODE)
    if victim_held is not None:
        # A crash while not holding is another scenario (p99 190-540 ms
        # instead of about 1.3 s): the run fails rather than report it.
        outcome.check(
            "crash.victim_held", victim_held,
            f"node {CRASH_NODE} held its lock when it crashed",
        )
        outcome.check(
            "crash.restart_converged",
            result.restarts.get(victim) == 1 and victim in result.convergence_s,
            f"restarts {result.restarts}, convergence {result.convergence_s}",
        )
    counters = result.counters
    outcome.layer.update(
        grants=sum(c.get("grants", 0) for c in counters.values()),
        ticks=sum(c.get("ticks", 0) for c in counters.values()),
        retransmits=sum(c.get("retransmits", 0) for c in counters.values()),
        stale_frames=sum(c.get("stale_frames", 0) for c in counters.values()),
        garbage_bytes=sum(c.get("garbage_bytes", 0) for c in counters.values()),
        resyncs=sum(c.get("resyncs", 0) for c in counters.values()),
        convergence_s=result.convergence_s.get(victim, 0.0),
        gen_lag_ms=[(op.first_submit - op.due) * 1000.0 for op in in_window
                    if op.first_submit >= 0],
        upstream_wait_ms=[op.upstream_wait_s * 1000.0 for op in granted],
        # Attempt-level accounting: every refused, shed or connection-lost
        # attempt and every acquire that ran out of time is a failure.
        attempts=sum(op.attempts for op in in_window),
        failed_attempts=sum(op.shed + op.lost + op.failed for op in in_window),
    )
    return outcome


def serve_saturated(seed: int, seconds: float, hooks=None) -> Outcome:
    return asyncio.run(_serve(seed, seconds, crash=False, hooks=hooks))


def serve_crash(seed: int, seconds: float, hooks=None) -> Outcome:
    return asyncio.run(_serve(seed, seconds, crash=True, hooks=hooks))
