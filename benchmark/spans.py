"""Spans recorded from the benchmark's side of each call into the program.

`Tracer.call(name, fn, *args)` runs `fn` inside a span; `Untraced.call` just
runs it, so the timed loop and the traced loop execute the same operation
code.  Spans stay in memory (name, start, end, parent, op id) until the run
ends; self time is a span's duration minus the part its child spans cover.
Durations are CPU seconds read by `timing.clock`.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from dataclasses import dataclass

from timing import clock


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None   # index of the enclosing span, None at top level
    op: int | None       # id of the operation this span belongs to


class Untraced:
    """Tracing off: calls go straight through and counts are dropped."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    op = call

    def count(self, name: str, k: int = 1) -> None:
        pass


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._next_op = 0
        self._op: int | None = None

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(index)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = clock()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] += k

    def op(self, name, fn, *args):
        """Run one operation as a top-level span with its own op id."""
        self._op = self._next_op
        self._next_op += 1
        try:
            return self.call(name, fn, *args)
        finally:
            self._op = None

    def _child_time(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        return child

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per span name."""
        out: defaultdict[str, float] = defaultdict(float)
        for s, child in zip(self.spans, self._child_time()):
            out[s.name] += (s.end - s.start) - child
        return dict(out)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def coverage(self) -> tuple[float, float]:
        """(summed wall time of all ops, the part of it no child span covers)."""
        wall = glue = 0.0
        for s, child in zip(self.spans, self._child_time()):
            if s.parent is None and s.op is not None:
                wall += s.end - s.start
                glue += (s.end - s.start) - child
        return wall, glue

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
