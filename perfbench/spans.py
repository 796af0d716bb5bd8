"""In-memory span tracer for the benchmark's traced run.

Spans wrap the benchmark's own calls into the library's public functions;
the library itself is not instrumented.  Spans are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    failed: bool
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next = 1

    def _open(self) -> tuple[int, int | None]:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, start, failed, attrs):
        end = perf_counter()
        self._stack.pop()
        self.spans.append(Span(sid, parent, name, start, end, failed, attrs))

    @contextmanager
    def span(self, name: str, **attrs):
        sid, parent = self._open()
        start = perf_counter()
        failed = True
        try:
            yield attrs
            failed = False
        finally:
            self._close(sid, parent, name, start, failed, attrs)

    def call(self, name: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` inside a span called ``name``."""
        sid, parent = self._open()
        start = perf_counter()
        failed = True
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            self._close(sid, parent, name, start, failed, {})


class NullTracer:
    """Same interface as Tracer, recording nothing: the untraced runs."""

    @contextmanager
    def span(self, name: str, **attrs):
        yield attrs

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its children cover (children of one
    span never overlap: the traced program is serial)."""
    own = {s.sid: s.duration for s in spans}
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own
