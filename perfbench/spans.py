"""In-memory span recorder for the traced benchmark run.

The traced run wraps the public entry points of each layer from outside
the program (nothing under ``src/`` knows about it).  Every wrapped call
becomes a span with a name, a layer, a start, an end and the index of
its parent span.  Spans are kept in memory and written out once, when
the run ends.

Two aggregates are kept exactly, however many spans there are:

* per span name: calls and inclusive seconds;
* per layer: the *outermost* calls (a call whose parent span belongs to
  another layer, or that has no parent) and their self time -- the span's
  length minus the part of it that child spans of *other* layers cover.
  A call nested inside the same layer (``encode_hello`` calling
  ``encode_frame``) is part of its parent's work, not a second call.

Raw spans beyond :data:`SPAN_CAP` are counted but not stored, so a traced
model-checking run (millions of key computations) stays small.

All wrapped entry points are synchronous functions; on the asyncio
paths they run to completion without yielding, so one stack per process
is enough to nest spans correctly.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Raw spans kept for the span file; the aggregates never drop anything.
SPAN_CAP = 50_000


class Tracer:
    """Span stack, aggregates and the installed wrappers."""

    def __init__(self) -> None:
        #: name -> [calls, inclusive seconds]
        self.by_name: Dict[str, List[float]] = {}
        #: layer -> [outermost calls, self seconds]
        self.by_layer: Dict[str, List[float]] = {}
        #: free-form counters and samples the observers fill in
        self.counts: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}
        #: (name, start, end, parent index); slots are reserved at span
        #: start so children can name their parent before it ends.
        self.spans: List[Optional[Tuple[str, float, float, int]]] = []
        self.dropped = 0
        # Each frame: [layer, time covered by other-layer children, span idx]
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------- record

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def _wrap(self, fn: Callable, name: str, layer: str,
              observe: Optional[Callable],
              before: Optional[Callable]) -> Callable:
        stack = self._stack
        by_name = self.by_name
        by_layer = self.by_layer
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args)
            parent = stack[-1] if stack else None
            index = -1
            if len(spans) < SPAN_CAP:
                index = len(spans)
                spans.append(None)
            frame = [layer, 0.0, index]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                length = end - start
                entry = by_name.get(name)
                if entry is None:
                    entry = by_name[name] = [0, 0.0]
                entry[0] += 1
                entry[1] += length
                if parent is not None and parent[0] == layer:
                    # Same-layer nesting: the parent owns this time; pass
                    # up what other layers covered inside it.
                    parent[1] += frame[1]
                else:
                    agg = by_layer.get(layer)
                    if agg is None:
                        agg = by_layer[layer] = [0, 0.0]
                    agg[0] += 1
                    agg[1] += length - frame[1]
                    if parent is not None:
                        parent[1] += length
                if index >= 0:
                    spans[index] = (
                        name, start, end, -1 if parent is None else parent[2]
                    )
                else:
                    tracer.dropped += 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------ install

    def wrap_method(self, cls: type, attr: str, name: str, layer: str,
                    observe: Optional[Callable] = None,
                    before: Optional[Callable] = None) -> None:
        """Replace ``cls.attr`` (looked up per call through the class).

        ``before(tracer, args)`` runs ahead of the span and
        ``observe(tracer, args, result)`` after it; neither is timed.
        """
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrap(original, name, layer, observe, before))
        self._undo.append(lambda: setattr(cls, attr, original))

    def wrap_function(self, module: Any, attr: str, name: str, layer: str,
                      observe: Optional[Callable] = None,
                      before: Optional[Callable] = None) -> None:
        """Replace a module-level function in *every* loaded module that
        holds a reference to it (``from .codec import encode_frame`` copies
        the name into the importer).
        """
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, layer, observe, before)
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(
                        lambda ns=namespace, k=key: ns.__setitem__(k, original)
                    )

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ results

    def calls(self, name: str) -> int:
        return int(self.by_name.get(name, (0, 0.0))[0])

    def inclusive_s(self, name: str) -> float:
        return float(self.by_name.get(name, (0, 0.0))[1])

    def layer_calls(self, layer: str) -> int:
        return int(self.by_layer.get(layer, (0, 0.0))[0])

    def layer_self_s(self, layer: str) -> float:
        return float(self.by_layer.get(layer, (0, 0.0))[1])

    def write(self, path: Path, header: Dict[str, Any]) -> Path:
        """One header line (aggregates), then one line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        kept = [span for span in self.spans if span is not None]
        origin = kept[0][1] if kept else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                **header,
                "kind": "perfbench-spans",
                "spans_kept": len(kept),
                "spans_dropped": self.dropped,
                "by_name": self.by_name,
                "by_layer": self.by_layer,
            }, sort_keys=True) + "\n")
            for i, span in enumerate(self.spans):
                if span is None:
                    continue
                name, start, end, parent = span
                handle.write(json.dumps({
                    "i": i,
                    "name": name,
                    "start_us": round((start - origin) * 1e6, 3),
                    "end_us": round((end - origin) * 1e6, 3),
                    "parent": parent,
                }) + "\n")
        return path
