"""In-memory span recorder for traced benchmark runs.

A span is [name, start, end, parent, attrs]; parent is the index of the
enclosing span or -1. Spans are opened only in the benchmark's own code,
around calls into phasesync's public functions, and are written out once
when the run ends.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record one span; yields its attribute dict so callers can add
        counts once the call returns (a plain dict when disabled)."""
        if not self.enabled:
            yield attrs
            return
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def named(self, name: str, first: int = 0, last: int | None = None) -> list:
        """Spans called name among spans[first:last]."""
        return [s for s in self.spans[first:last] if s[0] == name]

    def self_times(self) -> dict:
        """Total self time per span name: duration minus the time covered
        by its direct children (children of one span never overlap)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def write(self, path, facts: dict):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = {
            "facts": facts,
            "self_s": self.self_times(),
            "spans": [
                {"name": n, "start": s - t0, "end": e - t0, "parent": p, **a}
                for n, s, e, p, a in self.spans
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def span_seconds(span) -> float:
    return span[2] - span[1]
