"""In-memory spans for the traced run.

A span has a name, a start and end (``time.monotonic`` seconds), its parent
and the id of the top-level span it belongs to (one per workload
iteration).  Spans are kept in memory and written as one JSON file at the
end.  A span's self time is its duration minus the part of that interval
its children cover.

With tracing off, :meth:`Tracer.span` records nothing and costs one branch.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def _new(self, name: str, start: float, end: float | None,
             parent: int | None, attrs: dict) -> dict:
        root = self.spans[parent]["root"] if parent is not None else len(self.spans)
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": parent,
            "root": root,
            "start": start,
            "end": end,
            "attrs": attrs,
        }
        self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, **attrs):
        """Record a span around the enclosed block (no-op when disabled)."""
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1] if self._stack else None
        rec = self._new(name, time.monotonic(), None, parent, attrs)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.monotonic()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, parent: int | None,
            **attrs) -> int:
        """Add a finished span (used for rounds and phases read back from
        the engine's manifests and sidecars)."""
        return self._new(name, start, end, parent, attrs)["id"]

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals
        (clipped to the span)."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            lo_run = hi_run = None
            ivals = sorted(
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in children.get(s["id"], [])
            )
            for lo, hi in ivals:
                if hi <= lo:
                    continue
                if hi_run is None or lo > hi_run:
                    if hi_run is not None:
                        covered += hi_run - lo_run
                    lo_run, hi_run = lo, hi
                else:
                    hi_run = max(hi_run, hi)
            if hi_run is not None:
                covered += hi_run - lo_run
            out[s["id"]] = (s["end"] - s["start"]) - covered
        return out

    def write(self, path: str, **info) -> None:
        selfs = self.self_times()
        doc = {
            **info,
            "spans": [
                {**s, "dur_s": s["end"] - s["start"], "self_s": selfs[s["id"]]}
                for s in self.spans
            ],
        }
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)
