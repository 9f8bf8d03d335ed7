"""Per-layer metrics: which entry points the traced run wraps, how each
metric is derived, and where each layer must (and must not) show up.

``METRICS`` is the single table: name -> (unit, better, workloads where
the layer works and the metric must be non-zero, workloads where the
layer is bypassed and the metric must be zero).  The coverage check
reads it, so a wrapper installed on a name the caller never looks up
fails the traced run instead of reporting a silent zero.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from common import Outcome, percentile
from spans import Tracer

SIM = frozenset({"simulate"})
VER = frozenset({"verify"})
SAT = frozenset({"serve-saturated"})
CRASH = frozenset({"serve-crash"})
SERVE = SAT | CRASH
ALL = SIM | VER | SERVE
NONE: frozenset = frozenset()

METRICS: Dict[str, Tuple[str, str, frozenset, frozenset]] = {
    # engines, guards and predicates
    "sim.engine.step_us": ("us", "lower", SIM, VER | SERVE),
    "sim.engine.steps": ("count", "higher", SIM, VER | SERVE),
    "fastcore.engine.step_us": ("us", "lower", SIM, VER | SERVE),
    "fastcore.engine.steps": ("count", "higher", SIM, VER | SERVE),
    "core.predicates.eval_us": ("us", "lower", SIM, VER | SERVE),
    "core.predicates.calls": ("count", "higher", SIM, VER | SERVE),
    # snapshot cadence and artefacts
    "sim.trace.snapshots_built": ("count", "lower", SIM, VER | SERVE),
    "sim.trace.snapshots_kept": ("count", "higher", SIM, VER | SERVE),
    "sim.trace.keep_ratio": ("ratio", "higher", SIM, VER | SERVE),
    "obs.trace_io.write_s": ("s", "lower", SIM, VER | SERVE),
    "obs.trace_io.bytes_per_event": ("B", "lower", SIM, VER | SERVE),
    "obs.trace_io.analyze_s": ("s", "lower", SIM, VER | SERVE),
    "obs.metrics.write_s": ("s", "lower", SIM, VER | SERVE),
    "analysis.locality_s": ("s", "lower", SIM, VER | SERVE),
    "analysis.stabilization_s": ("s", "lower", SIM, VER | SERVE),
    # model checker
    "fastcore.explorer.expand_us": ("us", "lower", VER, SIM | SERVE),
    "fastcore.explorer.expanded": ("count", "higher", VER, SIM | SERVE),
    "fastcore.explorer.transitions": ("count", "higher", VER, SIM | SERVE),
    "fastcore.explorer.rss_bytes_per_state": ("B", "lower", VER, SIM | SERVE),
    "fastcore.packed.key_bytes": ("B", "lower", VER, SERVE),
    # gateway
    "gateway.queue_wait_ms.p50": ("ms", "lower", SERVE, SIM | VER),
    "gateway.queue_wait_ms.p99": ("ms", "lower", SERVE, SIM | VER),
    "gateway.admission.try_admit_us": ("us", "lower", SERVE, SIM | VER),
    "gateway.admission.shed_ratio": ("ratio", "lower", NONE, SIM | VER),
    "gateway.mux.upstream_wait_ms.p50": ("ms", "lower", SERVE, SIM | VER),
    "gateway.mux.upstream_wait_ms.p99": ("ms", "lower", SERVE, SIM | VER),
    "gateway.batch.frames_per_flush": ("count", "higher", SERVE, SIM | VER),
    # wire codec
    "net.codec.encode_us": ("us", "lower", SERVE, SIM | VER),
    "net.codec.decode_us": ("us", "lower", SERVE, SIM | VER),
    "net.codec.frames_per_grant": ("count", "lower", SERVE, SIM | VER),
    "net.codec.json_frame_share": ("ratio", "lower", SERVE, SIM | VER),
    "net.codec.garbage_bytes": ("B", "lower", CRASH, SIM | VER),
    "net.codec.resyncs": ("count", "lower", CRASH, SIM | VER),
    # node and diner
    "net.node.tick_wait_ms.p50": ("ms", "lower", SERVE, SIM | VER),
    "net.node.tick_wait_ms.p99": ("ms", "lower", SERVE, SIM | VER),
    "net.node.ticks_per_grant": ("count", "lower", SERVE, SIM | VER),
    "net.node.retransmits_per_grant": ("count", "lower", NONE, SIM | VER),
    "net.node.stale_frames": ("count", "lower", NONE, SIM | VER),
    "mp.diners_mp.msgs_per_grant": ("count", "lower", SERVE, SIM | VER),
    "mp.diners_mp.handler_us": ("us", "lower", SERVE, SIM | VER),
    "net.cluster.convergence_s": ("s", "lower", CRASH, SIM | VER | SAT),
    # the measurement itself
    "loadgen.gen_lag_ms.p99": ("ms", "lower", SERVE, SIM | VER),
    "loadgen.failed_ratio": ("ratio", "lower", CRASH, SIM | VER),
    "process.cpu_busy_share": ("ratio", "lower", ALL, NONE),
    "trace.overhead_ratio": ("ratio", "lower", ALL, NONE),
}


class ServeHooks:
    """Cluster- and fleet-side observers for the serve workloads."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.fleet = None
        #: node-side arrival time of each acquire, by request id
        self.arrivals: Dict[str, float] = {}
        #: encoded request frame (by id()) -> request id
        self.frame_req: Dict[int, str] = {}
        #: request id -> logical client label
        self.req_client: Dict[str, str] = {}
        self.written: set = set()

    def on_cluster(self, supervisor) -> None:
        from repro.obs.events import NetEventKind

        def on_event(event) -> None:
            if event.kind != NetEventKind.GRANT:
                return
            detail = event.detail if isinstance(event.detail, dict) else {}
            req = detail.get("req")
            arrived = self.arrivals.pop(str(req), None)
            if arrived is not None:
                self.tracer.sample(
                    "tick_wait_ms", (time.monotonic() - arrived) * 1000.0
                )

        supervisor.bus.subscribe_all(on_event)

    def on_fleet(self, fleet) -> None:
        self.fleet = fleet

    # ------------------------------------------------------- observers

    def node_request(self, tracer, args) -> None:
        frame = args[1]
        body = frame.body if isinstance(frame.body, dict) else {}
        if body.get("op") == "acquire":
            self.arrivals[str(body.get("id"))] = time.monotonic()

    def request_encoded(self, tracer, args, frame) -> None:
        tracer.count("frames_binary")
        if args and args[0] == "acquire":
            self.frame_req[id(frame)] = args[1]

    def mux_submitted(self, tracer, args, decision) -> None:
        if decision.admitted and decision.op == "acquire":
            self.req_client[decision.req_id] = decision.client

    def batch_flush(self, tracer, args) -> None:
        batch = args[0]
        pending = batch._pending
        if not pending or batch.closed:
            return
        tracer.count("flushes")
        tracer.count("flushed_frames", len(pending))
        now = time.monotonic()
        fleet = self.fleet
        for frame in pending:
            req = self.frame_req.pop(id(frame), None)
            if req is None:
                continue
            label = self.req_client.pop(req, None)
            op = None if fleet is None else fleet.by_label.get(label)
            if op is None or id(op) in self.written:
                continue
            self.written.add(id(op))
            tracer.sample("queue_wait_ms", (now - op.due) * 1000.0)


def _count_len(key: str):
    def observe(tracer, args, result) -> None:
        tracer.count(key, len(result))
    return observe


def _kept_snapshot(tracer, args, result) -> None:
    recorder, _step, configuration = args[0], args[1], args[2]
    snapshots = recorder._snapshots
    if snapshots and snapshots[-1][1] is configuration:
        tracer.count("snapshots_kept")


def install(tracer: Tracer) -> ServeHooks:
    """Wrap every layer entry point; returns the serve-side hooks."""
    from repro.analysis import locality, stabilization
    from repro.core import predicates
    from repro.fastcore.engine import FastEngine
    from repro.fastcore.explorer import FastTransitionSystem
    from repro.fastcore.packed import PackedCodec
    from repro.gateway.admission import AdmissionController
    from repro.gateway.batch import BatchWriter
    from repro.gateway.mux import GatewayMux
    from repro.mp.diners_mp import DinersMpProcess
    from repro.net import codec
    from repro.net.node import NodeServer
    from repro.obs import trace_io
    from repro.sim.engine import Engine
    from repro.sim.trace import TraceRecorder

    hooks = ServeHooks(tracer)
    method = tracer.wrap_method
    function = tracer.wrap_function

    method(Engine, "step", "Engine.step", "sim.engine")
    method(FastEngine, "step", "FastEngine.step", "fastcore.engine")
    method(PackedCodec, "unpack", "PackedCodec.unpack", "fastcore.packed")
    method(PackedCodec, "key", "PackedCodec.key", "fastcore.packed",
           observe=lambda t, a, key: t.count("key_bytes", len(key)))
    for name in ("invariant_holds", "invariant_report", "nc_holds",
                 "st_holds", "e_holds", "red_set"):
        function(predicates, name, name, "core.predicates")
    method(TraceRecorder, "maybe_snapshot", "TraceRecorder.maybe_snapshot",
           "sim.trace", observe=_kept_snapshot)
    method(TraceRecorder, "force_snapshot", "TraceRecorder.force_snapshot",
           "sim.trace", observe=_kept_snapshot)
    function(trace_io, "write_trace", "write_trace", "obs.trace_io.write")
    function(trace_io, "analyze", "analyze", "obs.trace_io.analyze")
    function(trace_io, "write_analysis_metrics", "write_analysis_metrics",
             "obs.metrics.write")
    function(locality, "measure_failure_locality",
             "measure_failure_locality", "analysis.locality")
    function(stabilization, "steps_to_predicate", "steps_to_predicate",
             "analysis.stabilization")

    method(FastTransitionSystem, "successors_packed",
           "FastTransitionSystem.successors_packed", "fastcore.explorer",
           observe=_count_len("transitions"))

    function(codec, "encode_frame", "encode_frame", "net.codec.encode",
             observe=lambda t, a, r: t.count("frames_json"))
    function(codec, "encode_request", "encode_request", "net.codec.encode",
             observe=hooks.request_encoded)
    function(codec, "encode_response", "encode_response", "net.codec.encode",
             observe=lambda t, a, r: t.count("frames_binary"))
    method(codec.Decoder, "feed", "Decoder.feed", "net.codec.decode",
           observe=_count_len("frames_decoded"))
    method(AdmissionController, "try_admit", "AdmissionController.try_admit",
           "gateway.admission",
           observe=lambda t, a, r: t.count("sheds", r is not None))
    method(GatewayMux, "submit", "GatewayMux.submit", "gateway.mux",
           observe=hooks.mux_submitted)
    method(GatewayMux, "resolve", "GatewayMux.resolve", "gateway.mux")
    method(BatchWriter, "flush", "BatchWriter.flush", "gateway.batch",
           before=hooks.batch_flush)
    method(DinersMpProcess, "on_tick", "DinersMpProcess.on_tick",
           "mp.diners_mp")
    method(DinersMpProcess, "on_message", "DinersMpProcess.on_message",
           "mp.diners_mp")
    method(NodeServer, "_handle_request", "NodeServer._handle_request",
           "net.node", before=hooks.node_request)
    return hooks


def _per(total: float, n: float, scale: float = 1.0) -> float:
    return total / n * scale if n else 0.0


def derive(tracer: Tracer, base: Outcome, traced: Outcome) -> Dict[str, float]:
    """Every per-layer metric from the traced pass (``traced``) and the
    untraced pass of the same run (``base``)."""
    t = tracer
    c = t.counts
    lay = traced.layer
    grants = lay.get("grants", 0)
    attempts = t.calls("AdmissionController.try_admit")
    built = t.calls("TraceRecorder.maybe_snapshot") + t.calls(
        "TraceRecorder.force_snapshot")
    encoded = c.get("frames_json", 0) + c.get("frames_binary", 0)
    base_cost = _per(base.cpu_s, base.work)
    traced_cost = _per(traced.cpu_s, traced.work)
    m = {
        "sim.engine.step_us": _per(
            t.layer_self_s("sim.engine"), t.layer_calls("sim.engine"), 1e6),
        "sim.engine.steps": t.calls("Engine.step"),
        "fastcore.engine.step_us": _per(
            t.layer_self_s("fastcore.engine"),
            t.layer_calls("fastcore.engine"), 1e6),
        "fastcore.engine.steps": t.calls("FastEngine.step"),
        "core.predicates.eval_us": _per(
            t.layer_self_s("core.predicates"),
            t.layer_calls("core.predicates"), 1e6),
        "core.predicates.calls": t.layer_calls("core.predicates"),
        "sim.trace.snapshots_built": built,
        "sim.trace.snapshots_kept": c.get("snapshots_kept", 0),
        "sim.trace.keep_ratio": _per(c.get("snapshots_kept", 0), built),
        "obs.trace_io.write_s": _per(
            t.inclusive_s("write_trace"), t.calls("write_trace")),
        "obs.trace_io.bytes_per_event": _per(
            lay.get("trace_bytes", 0), lay.get("trace_events", 0)),
        "obs.trace_io.analyze_s": _per(
            t.inclusive_s("analyze"), t.calls("analyze")),
        "obs.metrics.write_s": _per(
            t.inclusive_s("write_analysis_metrics"),
            t.calls("write_analysis_metrics")),
        "analysis.locality_s": _per(
            t.inclusive_s("measure_failure_locality"),
            t.calls("measure_failure_locality")),
        "analysis.stabilization_s": _per(
            t.inclusive_s("steps_to_predicate"),
            t.calls("steps_to_predicate")),
        "fastcore.explorer.expand_us": _per(
            t.layer_self_s("fastcore.explorer"),
            t.layer_calls("fastcore.explorer"), 1e6),
        "fastcore.explorer.expanded": t.calls(
            "FastTransitionSystem.successors_packed"),
        "fastcore.explorer.transitions": c.get("transitions", 0),
        "fastcore.explorer.rss_bytes_per_state": base.layer.get(
            "rss_bytes_per_state", 0.0),
        "fastcore.packed.key_bytes": _per(
            c.get("key_bytes", 0), t.calls("PackedCodec.key")),
        "gateway.queue_wait_ms.p50": percentile(
            t.samples.get("queue_wait_ms", []), 0.50),
        "gateway.queue_wait_ms.p99": percentile(
            t.samples.get("queue_wait_ms", []), 0.99),
        "gateway.admission.try_admit_us": _per(
            t.layer_self_s("gateway.admission"), attempts, 1e6),
        "gateway.admission.shed_ratio": _per(c.get("sheds", 0), attempts),
        "gateway.mux.upstream_wait_ms.p50": percentile(
            lay.get("upstream_wait_ms", []), 0.50),
        "gateway.mux.upstream_wait_ms.p99": percentile(
            lay.get("upstream_wait_ms", []), 0.99),
        "gateway.batch.frames_per_flush": _per(
            c.get("flushed_frames", 0), c.get("flushes", 0)),
        "net.codec.encode_us": _per(
            t.layer_self_s("net.codec.encode"),
            t.layer_calls("net.codec.encode"), 1e6),
        "net.codec.decode_us": _per(
            t.layer_self_s("net.codec.decode"),
            c.get("frames_decoded", 0), 1e6),
        "net.codec.frames_per_grant": _per(encoded, grants),
        "net.codec.json_frame_share": _per(c.get("frames_json", 0), encoded),
        "net.codec.garbage_bytes": lay.get("garbage_bytes", 0),
        "net.codec.resyncs": lay.get("resyncs", 0),
        "net.node.tick_wait_ms.p50": percentile(
            t.samples.get("tick_wait_ms", []), 0.50),
        "net.node.tick_wait_ms.p99": percentile(
            t.samples.get("tick_wait_ms", []), 0.99),
        "net.node.ticks_per_grant": _per(lay.get("ticks", 0), grants),
        "net.node.retransmits_per_grant": _per(
            lay.get("retransmits", 0), grants),
        "net.node.stale_frames": lay.get("stale_frames", 0),
        "mp.diners_mp.msgs_per_grant": _per(
            t.calls("DinersMpProcess.on_message"), grants),
        "mp.diners_mp.handler_us": _per(
            t.layer_self_s("mp.diners_mp"), t.layer_calls("mp.diners_mp"),
            1e6),
        "net.cluster.convergence_s": lay.get("convergence_s", 0.0),
        "loadgen.gen_lag_ms.p99": percentile(lay.get("gen_lag_ms", []), 0.99),
        "loadgen.failed_ratio": _per(
            lay.get("failed_attempts", 0), lay.get("attempts", 0)),
        "process.cpu_busy_share": _per(base.cpu_s, base.measured_s),
        "trace.overhead_ratio": _per(traced_cost, base_cost),
    }
    missing = set(METRICS) - set(m)
    if missing:
        raise AssertionError(f"per-layer metrics not derived: {missing}")
    return {name: float(value) for name, value in m.items()}


def coverage(workload: str, metrics: Dict[str, float]) -> List[str]:
    """Metrics that break the layer map: zero where their layer works,
    non-zero where it is bypassed."""
    problems = []
    for name, (_unit, _better, works, bypassed) in METRICS.items():
        value = metrics.get(name, 0.0)
        if workload in works and not value:
            problems.append(f"{name} is 0 on {workload}, where its layer works")
        if workload in bypassed and value:
            problems.append(
                f"{name} is {value} on {workload}, which bypasses its layer")
    return problems
