"""In-memory span tracing of spinsat's public functions, applied from outside.

A span is (id, name, start, end, parent, op): ``name`` is the layer metric it
belongs to (``ising.compile``), ``parent`` the id of the span that was open
when it began, and ``op`` the instance or trajectory being processed. Spans
are kept in a list and written out when the benchmark ends.

The program is never edited: ``patch_everywhere`` replaces a function on
every module that holds it (including the names ``spinsat.cli`` imported,
such as ``compile_hamiltonian``), so the real driver is traced, and
``Patches.undo`` puts the originals back.
"""
from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: str


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    Children are the spans whose ``parent`` is the span's id; overlapping
    children are merged, and a child reaching outside its parent is clipped.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(span.id, ()), key=lambda c: c.start):
            lo = max(child.start, cursor)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    """Sum of self time per span name."""
    names = {span.id: span.name for span in spans}
    totals: dict[str, float] = defaultdict(float)
    for span_id, value in self_times(spans).items():
        totals[names[span_id]] += value
    return dict(totals)


def outside_time(spans: list[Span], wall: float) -> float:
    """Part of ``wall`` that no root span covers (the benchmark's own work)."""
    return wall - sum(s.end - s.start for s in spans if s.parent is None)


class Patches:
    """Replacements of module or class attributes, undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def patch_everywhere(self, modules, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` by ``make(original)`` on every holder.

        A holder is ``owner`` itself or any module in ``modules`` that binds
        the same object under any name.
        """
        original = getattr(owner, attr)
        replacement = make(original)
        holders = [(owner, attr)]
        for module in modules:
            for key, value in vars(module).items():
                if value is original and (module, key) != (owner, attr):
                    holders.append((module, key))
        for holder, key in holders:
            self._undo.append((holder, key, original))
            setattr(holder, key, replacement)

    def undo(self) -> None:
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()


@dataclass
class Tracer:
    """Records spans and counters around the functions it wraps."""

    spans: list[Span] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    op: str = ""
    _stack: list[int] = field(default_factory=list)

    def wrap(self, fn, name: str, count=None):
        """Return ``fn`` recording a span named ``name`` around each call.

        ``count(counters, result, args, kwargs)`` runs after the call, so
        counts are taken where the work happens.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = Span(len(spans), name, clock(), 0.0, stack[-1] if stack else None, self.op)
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
            if count is not None:
                count(self.counters, result, args, kwargs)
            return result

        return traced

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()
        self.op = ""
