"""Spans around the program's public layer calls, recorded from outside.

The tracer replaces module attributes with wrappers for the length of a
``with installed(...)`` block. Each wrapper records a span (name, start,
end, parent span, fund id) or bumps a counter, and calls straight through
while the tracer is paused. Spans stay in memory; ``write`` dumps them
as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    fund: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.paused = False
        self._stack: list[Span] = []

    def span(self, name: str, fn, fund_of=None, on_result=None):
        """Wrap ``fn`` in a span.

        ``fund_of(args)`` names the fund a top-level call belongs to;
        nested spans inherit their parent's fund. ``on_result(result,
        args)`` runs after the span has closed.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                fund = parent.fund
            else:
                fund = fund_of(args) if fund_of else ""
            span = Span(len(self.spans), name, fund, parent.id if parent else None)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        return traced

    def counter(self, name: str, fn, amount=lambda args: 1):
        """Wrap ``fn`` so each call adds ``amount(args)`` to ``counts[name]``."""

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not self.paused:
                self.counts[name] += amount(args)
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def self_times(self) -> dict[int, float]:
        """Span id to duration minus the time its direct children cover."""
        out = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.duration
        return out

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


@contextlib.contextmanager
def installed(patches: list[tuple[object, str, object]]):
    """Set ``module.attr = wrapper`` for each patch; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in patches]
    try:
        for module, attr, wrapper in patches:
            setattr(module, attr, wrapper)
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
