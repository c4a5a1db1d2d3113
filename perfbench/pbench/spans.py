"""In-memory span tracing around the program's public functions.

A :class:`Tracer` replaces chosen functions and methods with timing wrappers
(from the benchmark's side only -- the program is not edited).  Every call
records one :class:`Span`: name, start, end, the enclosing span, the current
operation id, and an optional unit count (rows priced, steps decoded).
Spans stay in memory; :meth:`Tracer.dump` writes them out when the run ends,
and :func:`summarize` turns them into per-name call counts, units, total
time and self time (duration minus the time covered by child spans).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import pathlib
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: Counts units of work from a wrapped call's ``(args, kwargs)``.
UnitFn = Callable[[tuple, dict], int]


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # -1 for a root span
    op: str
    units: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class SpanTotals:
    """Aggregate of every span of one name."""

    calls: int = 0
    units: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans from wrapped callables; thread-safe, one stack per thread.

    :attr:`op` (the operation id stamped on new spans) is per thread too, so
    concurrent clients each label their own requests.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: List[Tuple[object, str, object]] = []

    @property
    def op(self) -> str:
        return getattr(self._local, "op", "")

    @op.setter
    def op(self, value: str) -> None:
        self._local.op = value

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, units: int = 0) -> None:
        """Add a span measured by the caller (e.g. one HTTP exchange)."""
        stack = self._stack()
        span = Span(next(self._ids), name, start, end, stack[-1] if stack else -1, self.op, units)
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn: Callable, units: Optional[UnitFn] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                count = units(args, kwargs) if units is not None else 0
                with tracer._lock:
                    tracer.spans.append(Span(span_id, name, start, end, parent, tracer.op, count))

        return traced

    def patch(self, owner: object, attribute: str, name: str, units: Optional[UnitFn] = None) -> None:
        """Replace ``owner.attribute`` with a traced wrapper (undone by :meth:`restore`)."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), units))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        with self._lock:
            spans, self.spans = self.spans, []
        return spans

    @staticmethod
    def dump(path: pathlib.Path, spans: Iterable[Span]) -> None:
        """Write spans as JSON lines (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in spans:
                handle.write(json.dumps(dataclasses.asdict(span)) + "\n")


def covered(intervals: Sequence[Tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total = 0.0
    cursor = start
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Per span id: its duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration - covered(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def summarize(spans: Sequence[Span]) -> Dict[str, SpanTotals]:
    """Per span name: calls, units, total seconds and self seconds."""
    own = self_times(spans)
    totals: Dict[str, SpanTotals] = {}
    for span in spans:
        entry = totals.setdefault(span.name, SpanTotals())
        entry.calls += 1
        entry.units += span.units
        entry.total_s += span.duration
        entry.self_s += own[span.id]
    return totals
