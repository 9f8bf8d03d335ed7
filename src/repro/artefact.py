"""How this repository writes and recognises its artefacts, in one place.

The paper's fault model is a malicious crash that can stop a process at
any point, and the artefacts here are written by nodes going down that
way: flight dumps, span logs, soak event logs.  So every artefact goes
through the same two guarantees:

* **durable writes** — :func:`write_atomic` streams the lines into
  ``path.tmp``, flushes and fsyncs it, then renames it over ``path``; a
  crash leaves the old file or the new one, never a torn one, and a
  writer that raises mid-way leaves ``path`` untouched and no ``.tmp``;
* **lenient reads** — :func:`read_jsonl` parses a header-first JSONL
  artefact line by line and counts, rather than fails on, a line that
  is not a record (the torn tail of a file cut off by a crash).

:data:`KINDS` is the one table of artefact kinds: for each, the reader
and the summary ``repro stats`` prints.  :func:`sniff` decides the kind
of a file; ``repro stats`` and :func:`repro.obs.slo.ingest_artefact` both
go through it.  Readers and summaries are imported on first use, so this
module costs ``import repro.cli`` nothing.
"""

from __future__ import annotations

import importlib
import json
import os
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple,
)

_CANONICAL = dict(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Any) -> str:
    """Deterministic JSON text for ``payload`` (sorted keys, compact)."""
    return json.dumps(payload, **_CANONICAL)


# ------------------------------------------------------------------ write


def write_atomic(path: Path | str, lines: Iterable[str]) -> Path:
    """Write ``lines`` (each without its newline) to ``path`` durably.

    Parents are created.  Lines are written to ``path.tmp`` as the
    iterable yields them, so a large artefact is never joined in memory;
    the file is flushed and fsynced before it replaces ``path``.  If
    producing a line raises, the ``.tmp`` file is removed and ``path``
    keeps its previous contents.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def write_jsonl(
    path: Path | str,
    header: Mapping[str, Any],
    rows: Iterable[Mapping[str, Any]],
) -> Path:
    """A header line, then one canonical line per row (atomic, fsynced)."""
    return write_atomic(path, map(canonical_json, chain([header], rows)))


def write_document(path: Path | str, doc: Any, *, indent: int = 2) -> Path:
    """One JSON document with sorted keys (atomic, fsynced)."""
    return write_atomic(path, [json.dumps(doc, sort_keys=True, indent=indent)])


# ------------------------------------------------------------------- read


def read_jsonl(
    path: Path | str, parse_row: Callable[[Dict[str, Any]], Any]
) -> Tuple[Dict[str, Any], List[Any], int]:
    """Parse a header-first JSONL artefact leniently.

    Returns ``(header, rows, skipped)``: the ``kind: header`` line, every
    value ``parse_row`` returns for the other lines, and the number of
    lines that are not JSON objects or that ``parse_row`` rejects by
    returning ``None``.  Blank lines are ignored.
    """
    header: Dict[str, Any] = {}
    rows: List[Any] = []
    skipped = 0
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except ValueError:
                skipped += 1
                continue
            if not isinstance(row, dict):
                skipped += 1
            elif row.get("kind") == "header":
                header = row
            else:
                parsed = parse_row(row)
                if parsed is None:
                    skipped += 1
                else:
                    rows.append(parsed)
    return header, rows, skipped


def read_document(
    path: Path | str, kind: str, version: int, *, tag: str = "kind"
) -> Dict[str, Any]:
    """Load a JSON document whose ``tag`` field is ``kind``.

    :class:`ValueError` names the path when the file is not JSON, is
    another kind of document, has no integer ``format``, or has a format
    newer than ``version``.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get(tag) != kind:
        raise ValueError(f"{path}: not a {kind} document")
    if not isinstance(doc.get("format"), int):
        raise ValueError(f"{path}: {kind} without a format version")
    if doc["format"] > version:
        raise ValueError(
            f"{path}: {kind} format {doc['format']} is newer than "
            f"this tool ({version})"
        )
    return doc


# ------------------------------------------------------------------ kinds


@dataclass(frozen=True)
class Kind:
    """One artefact kind: how :func:`sniff` names it, and where its reader
    and ``repro stats`` summary live (``module`` is imported on use)."""

    module: str
    reader: str
    summary: str
    #: Header ``source`` values (JSONL) or document ``kind``/``source``
    #: values (JSON) that name this kind.
    tags: Tuple[str, ...] = ()

    def read(self, path: Path | str) -> Any:
        return getattr(importlib.import_module(self.module), self.reader)(path)

    def summarize(self, parsed: Any) -> Iterator[str]:
        return getattr(importlib.import_module(self.module), self.summary)(parsed)


#: Every artefact kind, by name.  ``trace`` is the JSONL header without a
#: ``source``, ``metrics`` the one with a source no other kind claims, and
#: ``campaign-records`` a headerless file of campaign records.
KINDS: Dict[str, Kind] = {
    "metrics": Kind("repro.obs.metrics", "read_metrics", "summarize_metrics"),
    "campaign-records": Kind(
        "repro.campaign.record", "read_records", "summarize_records"
    ),
    "trace": Kind("repro.obs.trace_io", "read_trace", "summarize_trace"),
    "spans": Kind(
        "repro.obs.tracing", "read_spans", "summarize_spans", ("spans",)
    ),
    "flight": Kind(
        "repro.obs.flight", "read_flight", "summarize_flight", ("flight",)
    ),
    "timeline": Kind(
        "repro.obs.timeline", "read_timeline", "summarize_timeline",
        ("timeline",),
    ),
    "cluster-events": Kind(
        "repro.net.cluster", "read_cluster_events", "summarize_cluster_events",
        ("cluster-events", "soak-events"),
    ),
    "campaign-trace": Kind(
        "repro.campaign.record", "read_campaign_trace",
        "summarize_campaign_trace", ("campaign-trace",),
    ),
    "bench": Kind(
        "repro.perf.bench_io", "read_bench", "summarize_bench", ("bench",)
    ),
    "loadgen-report": Kind(
        "repro.gateway.report", "read_loadgen_report",
        "summarize_loadgen_report", ("loadgen-report",),
    ),
    "slo-report": Kind(
        "repro.obs.slo", "read_slo_report", "summarize_slo_report",
        ("slo-report",),
    ),
    "slo-spec": Kind(
        "repro.obs.slo", "read_slo_spec", "summarize_slo_spec", ("slo-spec",)
    ),
    "chaos-schedule": Kind(
        "repro.adversary.corpus", "read_schedule", "summarize_schedule",
        ("chaos-schedule",),
    ),
}


def _tagged(tag: Any) -> Optional[str]:
    for name, kind in KINDS.items():
        if tag in kind.tags:
            return name
    return None


def sniff(path: Path | str) -> Optional[str]:
    """The name of ``path``'s artefact kind, or ``None`` if it has none.

    Decided from the first line alone, or from the whole file when the
    first line is not JSON (a pretty-printed document).  A file that is
    not UTF-8 raises :class:`UnicodeDecodeError`.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        first = handle.readline()
    try:
        doc = json.loads(first)
    except ValueError:
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except ValueError:
            return None
    if not isinstance(doc, dict):
        return None
    if doc.get("kind") == "header":
        if "source" not in doc:
            return "trace"
        return _tagged(doc["source"]) or "metrics"
    name = _tagged(doc.get("kind", doc.get("source")))
    if name is not None:
        return name
    from .campaign.record import parse_line

    return "campaign-records" if parse_line(first) is not None else None
