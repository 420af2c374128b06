"""Boundary tracing for the benchmark's traced run.

A :class:`Tracer` replaces chosen module attributes with wrappers that
record one span per call (name, start, end, parent span, operation id)
plus optional counts taken from the call's arguments and result. The
wrappers live only in this benchmark: nothing under ``src/`` changes,
and :meth:`Tracer.restore` puts every original attribute back.

Spans from worker threads (the simulator's solver pool) have no open
span of their own thread, so their parent is the innermost span open on
the thread that installed the tracer.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float  # perf_counter seconds
    end: float
    parent: int  # span id, or -1 for an operation's root span
    op: int  # operation index within the traced loop

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._lock = threading.Lock()
        self._next_id = 0
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else -1

    def call(self, name: str, func, *args, **kwargs):
        """Run ``func`` inside a span called ``name``."""
        stack = self._stack()
        span_id = self._new_id()
        parent = self._parent(stack)
        op = self.op
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return func(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, op))

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] += value

    # ---------------------------------------------------------- wrappers

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``name`` is the span name, or a function of (args, kwargs) giving
        it. ``count(tracer, args, kwargs, result)`` may add counts after
        each successful call.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            result = tracer.call(span_name, original, *args, **kwargs)
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.start):
                out.write(json.dumps(s.__dict__) + "\n")


# ------------------------------------------------------------- analysis

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, spans) -> float:
    """``span``'s duration minus the part its direct children cover."""
    children = [
        (max(s.start, span.start), min(s.end, span.end))
        for s in spans
        if s.parent == span.span_id
    ]
    return span.duration - union_length(c for c in children if c[1] > c[0])
