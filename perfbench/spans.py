"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: it replaces a layer's public entry
point (a class method or a module-level function, as looked up by its
caller) with a wrapper that records a span, and puts the original back
afterwards.  A span holds its name, start, end, the index of the span
that was open when it started, and the query it belongs to.  Spans stay
in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Name of the span the benchmark opens around each whole query.
QUERY = "query"


@dataclass(frozen=True, slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    query: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans on one thread."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.query: Optional[int] = None
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self.query)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def finished(self) -> List[Span]:
        if self._stack:
            raise RuntimeError("spans still open")
        return [s for s in self.spans if s is not None]

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as f:
            for s in self.finished():
                f.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "query": s.query,
                        }
                    )
                    + "\n"
                )


@contextlib.contextmanager
def patched(tracer: Tracer, targets: Sequence[Tuple[object, str, str]]) -> Iterator[None]:
    """Wrap ``getattr(owner, attr)`` as span ``name`` for each
    ``(owner, attr, name)`` target, restoring the originals on exit."""
    originals = []
    try:
        for owner, attr, name in targets:
            own = attr in vars(owner)
            # Read a class's own attribute from its dict so a plain function
            # stays a plain function (and still binds as a method).
            raw = vars(owner)[attr] if own and isinstance(owner, type) else getattr(owner, attr)
            originals.append((owner, attr, raw, own))
            setattr(owner, attr, tracer.wrap(name, raw))
        yield
    finally:
        for owner, attr, raw, own in reversed(originals):
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)


def covered(intervals: Sequence[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [
        s.duration - covered(children.get(i, ()), s.start, s.end)
        for i, s in enumerate(spans)
    ]


@dataclass(frozen=True, slots=True)
class Ledger:
    """Per-layer self time over the traced queries."""

    queries: int
    query_s: float  # summed duration of the query spans
    self_s: Dict[str, float]  # layer name -> summed self time inside queries
    calls: Dict[str, int]  # layer name -> spans inside queries
    outside_s: Dict[str, float]  # layer name -> summed time outside queries
    outside_calls: Dict[str, int]

    @property
    def other_s(self) -> float:
        """Query time that no layer span covers."""
        return self.self_s.get(QUERY, 0.0)

    @property
    def gap_ratio(self) -> float:
        """|sum of self times - query time| / query time; 0 for a valid trace."""
        total = sum(self.self_s.values())
        return abs(total - self.query_s) / self.query_s if self.query_s else 0.0


def ledger(spans: Sequence[Span]) -> Ledger:
    """Fold spans into self time per layer, split by whether the span runs
    inside a :data:`QUERY` span."""
    own = self_times(spans)
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        # Parents are recorded before their children, so one forward pass
        # settles every span's ancestry.
        inside[i] = s.name == QUERY or (s.parent is not None and inside[s.parent])
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    outside_s: Dict[str, float] = {}
    outside_calls: Dict[str, int] = {}
    query_s = 0.0
    queries = 0
    for s, t, ins in zip(spans, own, inside):
        if s.name == QUERY:
            query_s += s.duration
            queries += 1
        if ins:
            self_s[s.name] = self_s.get(s.name, 0.0) + t
            calls[s.name] = calls.get(s.name, 0) + 1
        else:
            outside_s[s.name] = outside_s.get(s.name, 0.0) + s.duration
            outside_calls[s.name] = outside_calls.get(s.name, 0) + 1
    return Ledger(queries, query_s, self_s, calls, outside_s, outside_calls)
