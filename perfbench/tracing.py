"""In-memory spans for the traced replay, and self times derived from them.

A span records name, start, end, parent span id and run id. The layer of a
span is the part of its name before the first dot (``engine.run`` belongs
to ``engine``). Spans live in a list until the replay ends and writes them
out once.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

ROOT = "replay"


class Tracer:
    def __init__(self):
        self.spans = []
        self.run_id = 0
        self._stack = []

    @contextmanager
    def span(self, name):
        """Record one span; yields its dict so counts can be attached."""
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def current(self):
        """The innermost open span, or None."""
        return self.spans[self._stack[-1]] if self._stack else None


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a = max(a, reach)
            if b > a:
                covered += b - a
                reach = b
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def self_by_name(spans):
    """Span name -> summed self time, root span excluded."""
    own = self_times(spans)
    out = {}
    for s in spans:
        if s["name"] != ROOT:
            out[s["name"]] = out.get(s["name"], 0.0) + own[s["id"]]
    return out

