"""Spans around calls into the program's layers, recorded from outside.

The traced run patches a list of public functions (``Target``) with
wrappers that record one span per call: name, start, end, parent span
and the request the call served.  Spans stay in memory until the run
ends and are then written as a Chrome trace.  Patches are undone when
the ``instrument`` block exits, so untraced work in the same process
runs the original functions.

A layer's *self time* is its span duration minus the part of that
interval covered by its child spans.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    request: Optional[str]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to time: ``owner.attr`` recorded as span *name*.

    ``observe(attrs, args, kwargs, result)`` may add counts measured at
    the same boundary (tokens encoded, simulated cycles, ...)."""

    owner: Any
    attr: str
    name: str
    observe: Optional[Callable[[dict, tuple, dict, Any], None]] = None


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, request: Optional[str] = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            span_id=next(self._ids),
            parent=parent.span_id if parent else None,
            request=request,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        def wrapper(*args, **kwargs):
            with self.span(target.name) as span:
                result = fn(*args, **kwargs)
                if target.observe is not None:
                    target.observe(span.attrs, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def instrument(self, targets: Iterable[Target]):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for target in targets:
                original = target.owner.__dict__[target.attr]
                saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(original, target))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for start, stop in sorted(intervals):
        if stop <= end:
            continue
        total += stop - max(start, end)
        end = stop
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.span_id: span.duration - _covered(children.get(span.span_id, []))
        for span in spans
    }


@dataclass
class LayerTotals:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    attrs: dict = field(default_factory=dict)


def totals_by_name(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: call count, summed self and inclusive time, and
    summed numeric attrs."""
    own = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for span in spans:
        entry = out.setdefault(span.name, LayerTotals())
        entry.calls += 1
        entry.self_s += own[span.span_id]
        entry.total_s += span.duration
        for key, value in span.attrs.items():
            entry.attrs[key] = entry.attrs.get(key, 0) + value
    return out


def write_chrome_trace(spans: list[Span], path: str) -> None:
    """Complete ("X") events in microseconds, loadable by Perfetto."""
    origin = min((span.start for span in spans), default=0.0)
    events = [
        {
            "name": span.name,
            "ph": "X",
            "ts": round((span.start - origin) * 1e6, 3),
            "dur": round(span.duration * 1e6, 3),
            "pid": 1,
            "tid": 1,
            "args": {
                "id": span.span_id,
                "parent": span.parent,
                "request": span.request,
                **span.attrs,
            },
        }
        for span in sorted(spans, key=lambda s: s.start)
    ]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
