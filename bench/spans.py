"""In-memory span recorder for the traced run.

A span is ``(name, start, end, parent, op)``: the layer it times, wall
clock bounds, the index of the span that caused it (-1 for a root) and
the id of the operation (apply, solve, request) it belongs to.  Spans
live in a list until the run ends and are written once, as a
Chrome-trace file (``chrome://tracing`` / Perfetto load it directly).

The recorder sits in ``bench/`` on purpose: this benchmark measures the
program from outside, around calls into each layer's public functions.
Spans inside ``src/`` are a later change (ROADMAP item 1).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from harness import median

__all__ = ["SpanRecorder"]


class _Span:
    """Context manager for one open span (class-based: ~3x cheaper than a
    generator context manager, which matters inside a 400 us apply)."""

    __slots__ = ("rec", "name", "idx")

    def __init__(self, rec: "SpanRecorder", name: str) -> None:
        self.rec = rec
        self.name = name

    def __enter__(self) -> "_Span":
        rec = self.rec
        stack = rec._stack()
        parent = stack[-1] if stack else -1
        self.idx = len(rec.spans)
        rec.spans.append(
            [self.name, perf_counter(), 0.0, parent, rec.op, threading.get_ident()]
        )
        stack.append(self.idx)
        return self

    def __exit__(self, *exc) -> None:
        rec = self.rec
        rec.spans[self.idx][2] = perf_counter()
        rec._stack().pop()


class SpanRecorder:
    """Nested spans per thread, plus explicit spans for intervals that do
    not nest on a call stack (a request from its due time to its result)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = 0  # id stamped on spans opened from now on
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def add(self, name: str, start: float, end: float, op: int = 0, parent: int = -1) -> int:
        """Record a finished interval; returns its index (usable as a parent)."""
        self.spans.append([name, start, end, parent, op, threading.get_ident()])
        return len(self.spans) - 1

    # -- derived numbers -----------------------------------------------------
    def durations(self, name: str) -> List[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def p50(self, name: str) -> float:
        """Median duration of a span name, 0.0 when it never ran."""
        d = self.durations(name)
        return median(d) if d else 0.0

    def self_times(self) -> Dict[str, List[float]]:
        """Per span name, each span's duration minus what its children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: Dict[str, List[float]] = {}
        for i, s in enumerate(self.spans):
            out.setdefault(s[0], []).append(s[2] - s[1] - child[i])
        return out

    def self_p50(self, name: str) -> float:
        d = self.self_times().get(name)
        return median(d) if d else 0.0

    # -- output ----------------------------------------------------------------
    def write_chrome_trace(self, path: Path) -> None:
        """Write every span as a complete ('X') event, microseconds from
        the first span's start; ``args`` keeps parent and op id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        t0 = min((s[1] for s in self.spans), default=0.0)
        tids: Dict[int, int] = {}
        events = []
        for i, (name, start, end, parent, op, ident) in enumerate(self.spans):
            tid = tids.setdefault(ident, len(tids))
            events.append(
                {
                    "name": name,
                    "ph": "X",
                    "ts": (start - t0) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 0,
                    "tid": tid,
                    "args": {"id": i, "parent": parent, "op": op},
                }
            )
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
