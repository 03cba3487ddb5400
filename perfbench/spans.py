"""In-memory spans and counters recorded around calls into the program.

A span has a name, a start, an end, the span that was open when it began
(its parent) and a run id. Spans stay in memory and are written out once,
at the end of the benchmark. Only single-threaded code is traced: the
parent of a span is the innermost span open on the tracer's stack.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, span_name: str | None = None, counter: str | None = None):
        """`fn` with a span around each call and/or a count of its calls."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                self.counts[counter] += 1
            if span_name is None:
                return fn(*args, **kwargs)
            with self.span(span_name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patched(self, targets):
        """Replace `module.attr` by a traced wrapper for the duration.

        `targets` holds (module, attr, span_name, counter) tuples; the
        original attributes come back even if the body raises.
        """
        saved = []
        try:
            for module, attr, span_name, counter in targets:
                orig = getattr(module, attr)
                saved.append((module, attr, orig))
                setattr(module, attr, self.wrap(orig, span_name, counter))
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)

    def total(self, name: str, parent_name: str | None = None) -> float:
        """Summed duration of spans called `name` (optionally under `parent_name`)."""
        by_id = {s.id: s for s in self.spans}
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == name
            and (parent_name is None or (s.parent is not None and by_id[s.parent].name == parent_name))
        )

    def self_total(self, name: str) -> float:
        times = self_times(self.spans)
        return sum(times[s.id] for s in self.spans if s.name == name)

    def dump(self, f) -> None:
        """Write one JSON line per span, with its self time, to an open file."""
        times = self_times(self.spans)
        for s in self.spans:
            f.write(json.dumps({**asdict(s), "self": times[s.id]}) + "\n")


def self_times(spans) -> dict[int, float]:
    """Span duration minus the durations of its direct children.

    A Tracer's stack makes sibling spans sequential and nests every child
    inside its parent, so the children never overlap.
    """
    out = {s.id: s.end - s.start for s in spans}
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out
