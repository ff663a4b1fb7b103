"""In-memory spans around calls into the library, and per-layer self times.

A span is (name, start, end, parent, task) plus any attributes the caller
adds, such as the pass number.  Spans are recorded only by the
benchmark's own code, around calls to public functions of ``isoset``; the
span name is ``<module>.<function>``, e.g. ``oracle.boolean_rank_exact``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class NullTracer:
    """Tracing off: ``call`` is a plain call and no span is kept."""

    def call(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name: str, task: str | None = None, **attrs):
        yield


class Tracer:
    """Tracing on: every ``span`` and ``call`` appends one span record."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, task: str | None = None, **attrs):
        parent = self._stack[-1] if self._stack else None
        if task is None and parent is not None:
            task = self.spans[parent]["task"]
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "task": task, **attrs}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, fn, *args, **kwargs):
        with self.span(span_name(fn)):
            return fn(*args, **kwargs)


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own

