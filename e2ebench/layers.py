"""Span recording for the traced run.

The traced run times calls into each layer's public functions from the
benchmark's own files; the program itself is not changed.  A
:class:`Tracer` keeps every span in memory as ``(op, name, start, end,
parent)`` and writes them out once, at the end of the run.  A layer's
self time is its span's duration minus the part its direct child spans
cover.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.obs.events import PLAN_FALLBACK, EventSink
from repro.runtimes.costs import CostModel


class Tracer:
    """In-memory spans of one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: list = []
        self._stack = [-1]
        self._op = [-1]
        self._op_start: list[int] = []

    def begin_op(self) -> int:
        """Start a new operation; later spans belong to it."""
        self._op[0] += 1
        self._op_start.append(len(self.spans))
        return self._op[0]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        spans, stack, op, clock = self.spans, self._stack, self._op, time.perf_counter

        def timed(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (op[0], name, t0, t1, parent)

        return timed

    @contextmanager
    def span(self, name: str):
        """Record the ``with`` body as one span called ``name``."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1]
        stack.append(idx)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            spans[idx] = (self._op[0], name, t0, t1, parent)

    @contextmanager
    def materialize(self, graph):
        """Time ``graph.task`` (task materialization) for the body.

        Controllers run on a memoizing view built from ``graph.task``,
        so each task's first materialization in a run is recorded.
        """
        graph.task = self.wrap("graphs.materialize", graph.task)
        try:
            yield
        finally:
            del graph.task

    def op_totals(self, op: int) -> tuple[dict, dict]:
        """``(total seconds, self seconds)`` per span name within ``op``."""
        start = self._op_start[op]
        stop = (
            self._op_start[op + 1] if op + 1 < len(self._op_start) else len(self.spans)
        )
        rows = range(start, stop)
        spans = self.spans
        total: dict = defaultdict(float)
        covered: dict = defaultdict(float)
        for i in rows:
            _, name, t0, t1, parent = spans[i]
            total[name] += t1 - t0
            if parent >= 0:
                covered[parent] += t1 - t0
        own: dict = defaultdict(float)
        for i in rows:
            _, name, t0, t1, _ = spans[i]
            own[name] += (t1 - t0) - covered.get(i, 0.0)
        return total, own

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fp:
            for i, s in enumerate(self.spans):
                if s is None:
                    continue
                op, name, t0, t1, parent = s
                fp.write(
                    json.dumps(
                        {"id": i, "op": op, "name": name, "start": t0,
                         "end": t1, "parent": parent}
                    )
                    + "\n"
                )


class TimedCost(CostModel):
    """A cost model whose every evaluation is a ``costs.model`` span."""

    def __init__(self, inner: CostModel, tracer: Tracer) -> None:
        self.needs_wall_time = inner.needs_wall_time
        self._duration = tracer.wrap("costs.model", inner.duration)

    def duration(self, task, inputs, wall_time):
        return self._duration(task, inputs, wall_time)


class TimedSink(EventSink):
    """Forwards events to ``inner``, timing each ``emit`` as an
    ``obs.emit`` span and counting events and ``plan.fallback``s.
    Keeps the inner sink's ``wants_context``, so the stream is the one
    the inner sink would have seen."""

    def __init__(self, inner: EventSink, tracer: Tracer) -> None:
        self.inner = inner
        self.wants_context = inner.wants_context
        self.events = 0
        self.fallbacks = 0
        self._emit = tracer.wrap("obs.emit", inner.emit)

    def emit(self, event) -> None:
        self.events += 1
        if event.type == PLAN_FALLBACK:
            self.fallbacks += 1
        self._emit(event)

    def close(self) -> None:
        self.inner.close()


def timed_controller(cls, tracer: Tracer):
    """A subclass of controller ``cls`` whose ``run`` is a
    ``runtimes.run`` span.  It keeps ``cls``'s name, so the event
    stream's run labels are unchanged."""

    def run(self, initial_inputs):
        with tracer.span("runtimes.run"):
            return cls.run(self, initial_inputs)

    return type(cls.__name__, (cls,), {"run": run, "__qualname__": cls.__qualname__})
