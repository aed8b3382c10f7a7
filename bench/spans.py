"""In-memory spans for the traced benchmark run.

A span is one call across a layer boundary: [name, start, end, parent,
pass_id], with `parent` the index of the enclosing span (-1 for an operation
the benchmark calls itself).  Spans stay in memory while passes run and are
written out at the end; self times are derived from them afterwards.

Wrapping is done from outside the package: `patched` swaps module-level names
that facetkit resolves at call time for timing wrappers and restores them on
exit, so no file under `src/` is touched.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

FIELDS = ("name", "start", "end", "parent", "pass")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.pass_id = -1
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a span named `name`."""
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.pass_id]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """A stand-in for `fn` that records a span, but only inside an
        operation the benchmark started; elsewhere it calls straight through."""

        def wrapped(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            return self.call(name, fn, *args, **kwargs)

        return wrapped

    def summary(self, pass_id: int) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds, where
        self time is a span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, span_pass) in enumerate(self.spans):
            if span_pass != pass_id:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[i]
        return out

    def write(self, path: Path, header: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(header, fields=list(FIELDS), spans=self.spans)
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")


@contextmanager
def patched(targets):
    """Set each (owner, attribute, replacement) for the duration of the block."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
