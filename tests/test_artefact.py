"""The artefact module: one writer, one lenient reader, one kind table."""

import dataclasses
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro
from repro.adversary.corpus import read_schedule, write_schedule
from repro.artefact import KINDS, sniff, write_document
from repro.campaign import TrialRecord, write_records
from repro.campaign.record import CampaignTraceLog
from repro.cli import main
from repro.gateway.report import build_report, write_loadgen_report
from repro.net import write_cluster_events
from repro.obs import (
    EventKind, FlightRecorder, MetricsRegistry, SloObservations, Trace,
    build_header, dump_flight, evaluate, ingest_artefact, read_slo_spec,
    write_metrics, write_slo_report, write_spans, write_trace,
)
from repro.obs.timeline import TimelineEntry, write_timeline
from repro.obs.tracing import SpanRecorder
from repro.perf.bench import BenchResult
from repro.perf.bench_io import write_bench
from repro.sim import SimulationError, TraceEvent

REPO = Path(__file__).resolve().parents[1]
SPEC = REPO / "examples/slo.json"


def _trace(detail="ok"):
    header = build_header(model="sim", algorithm="x", seed=1, steps_taken=1)
    event = TraceEvent(step=1, kind=EventKind.ACTION, pid=0, detail=detail)
    return Trace(header=header, events=(event,))


def _spans():
    tracer = SpanRecorder("2")
    span = tracer.open("acquire", lc=1, t=0.5)
    tracer.event(span, "grant", lc=2, t=1.0)
    tracer.close(span, lc=3, t=1.5)
    return tracer


def _record(seed):
    return TrialRecord(key=f"k{seed}", kind="sim", params={}, seed=seed,
                       result={}, duration_s=0.25 * seed)


def _metrics(path):
    registry = MetricsRegistry()
    registry.counter("a/count").inc(3)
    return write_metrics(path, registry, header={"source": "test"})


def _flight(path):
    recorder = FlightRecorder("2", capacity=8)
    recorder.note_frame(1.0, "in", "request", peer="1")
    recorder.note_event({"t": 2.0, "event": "net-grant"})
    return dump_flight(path, recorder, reason="soak-violation", tracer=_spans())


def _cluster_events(path):
    result = types.SimpleNamespace(
        mode="soak", topology_spec="ring:3", seed=7, duration_s=1.0,
        nodes=[0, 1, 2], schedule={}, killed=[], byzantine=[], restarts={},
        convergence_s={}, events=[{"t": 0.1, "node": "0", "event": "grant"}],
    )
    return write_cluster_events(path, result)


def _campaign_trace(path):
    log = CampaignTraceLog(path)
    progress = log.wrap(None)
    for seed in (1, 2):
        progress(_record(seed), seed, 2)
    log.close()
    return log.path


def _slo_report(path):
    obs = SloObservations()
    ingest_artefact(obs, REPO / "tests/obs/fixtures/slo/violation.events")
    return write_slo_report(path, evaluate(read_slo_spec(SPEC), obs))


def _schedule(path):
    doc = read_schedule(REPO / "corpus/ring3-s1-r0.json")
    return write_schedule(path, doc.schedule, topology_spec=doc.topology_spec)


#: kind -> (its writer, the first line ``repro stats`` prints for it).
WRITERS = {
    "metrics": (_metrics, "metrics file: 1 metrics"),
    "campaign-records": (
        lambda p: write_records(p, [_record(1)]) or p, "campaign records: 1"
    ),
    "trace": (
        lambda p: write_trace(p, _trace()),
        "trace file: sim / x on None, 1 steps",
    ),
    "spans": (
        lambda p: write_spans(p, _spans()),
        "span log: 1 spans (1 closed, 1 events)",
    ),
    "flight": (_flight, "flight dump: node 2 — reason soak-violation"),
    "timeline": (
        lambda p: write_timeline(p, [TimelineEntry(1, "0", 0, "s", "a", "open", 0.1)]),
        "timeline: 1 entries across 1 nodes",
    ),
    "cluster-events": (
        _cluster_events, "cluster event log: 1 events (soak-events)"
    ),
    "campaign-trace": (_campaign_trace, "campaign trace: 2 shards"),
    "bench": (
        lambda p: write_bench(p, [BenchResult("a/b", 1, 3, 0, (1.0, 2.0))], env={}),
        "BENCH file: 1 benchmarks",
    ),
    "loadgen-report": (
        lambda p: write_loadgen_report(p, build_report({"engine": "sim"}, {})),
        "loadgen report [sim]: ? seed=? clients=? mode=?",
    ),
    "slo-report": (
        _slo_report, "SLO report: soak-defaults — EXHAUSTED (8 objectives"
    ),
    "slo-spec": (
        lambda p: write_document(p, read_slo_spec(SPEC).to_json()),
        "SLO spec: soak-defaults (8 objectives)",
    ),
    "chaos-schedule": (
        _schedule, "chaos schedule: ring:3 seed=1000 duration 4.0s"
    ),
}

#: The JSONL kinds whose reader counts a torn line instead of failing.
LENIENT = ("metrics", "spans", "flight", "timeline", "cluster-events",
           "campaign-trace")


@pytest.mark.parametrize("kind", list(KINDS))
def test_each_kind_is_sniffed_and_summarised(kind, tmp_path, capsys):
    writer, first_line = WRITERS[kind]
    path = writer(tmp_path / f"artefact-{kind}")
    assert sniff(path) == kind
    assert main(["stats", str(path)]) == 0
    assert capsys.readouterr().out.startswith(first_line)


@pytest.mark.parametrize("kind", LENIENT)
def test_foreign_lines_and_a_torn_tail_are_counted(kind, tmp_path):
    path = WRITERS[kind][0](tmp_path / f"artefact-{kind}")
    whole = KINDS[kind].read(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('\nnot json\n[1]\n{"kind": "mystery"}\n{"kind": "ev')
    cut = KINDS[kind].read(path)
    if isinstance(cut, tuple):
        assert cut == (*whole[:2], 4)
    else:
        assert cut == dataclasses.replace(whole, skipped=4)


@pytest.mark.parametrize(
    "path", sorted(str(p) for p in (REPO / "corpus").glob("*.json"))
    + [str(REPO / "examples/slo.json")],
)
def test_committed_documents_are_readable(path, capsys):
    assert main(["stats", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("SLO spec:" if "slo" in path else "chaos schedule:")


def test_failing_write_keeps_the_previous_file(tmp_path):
    path = write_trace(tmp_path / "run.trace", _trace())
    before = path.read_bytes()
    with pytest.raises(SimulationError):
        write_trace(path, _trace(detail=object()))
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["run.trace"]


def test_import_cli_loads_no_heavy_subsystem():
    code = "import json, sys, repro.cli; print(json.dumps(list(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    heavy = ("repro.gateway", "repro.perf", "repro.adversary", "repro.fastcore")
    assert [m for m in json.loads(out) if m.startswith(heavy)] == []
