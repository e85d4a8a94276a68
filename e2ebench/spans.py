"""Span recording and the per-layer ledger arithmetic.

A :class:`Recorder` wraps functions of the program under test from the
outside: each call becomes one span ``(id, parent, name, start, end)``
on the calling thread's stack, kept in memory and dumped when the
process ends.  :func:`self_times` turns spans into per-name self time,
a span's duration minus the time of its direct children, and
:func:`unattributed` checks that the self times account for the wall
time they were recorded in.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Sequence

#: (span id, parent span id or -1, name, start seconds, end seconds)
Span = tuple[int, int, str, float, float]


class Recorder:
    """In-memory spans plus named counts, safe across threads."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(span_id)
        start = self.clock()
        try:
            yield span_id
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        after: Callable[[tuple, Any, Any, int], None] | None = None,
        before: Callable[[tuple], Any] | None = None,
        on_error: Callable[[BaseException], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* timed as span *name*; hooks run outside the span."""

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            state = before(args) if before is not None else None
            try:
                with self.span(name) as span_id:
                    result = fn(*args, **kwargs)
            except BaseException as error:
                if on_error is not None:
                    on_error(error)
                raise
            if after is not None:
                after(args, result, state, span_id)
            return result

        return wrapper


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per span name.

    Children of one span run on the parent's thread, one after the
    other, so the part of the parent's interval they cover is the sum
    of their durations.
    """
    spans = list(spans)
    covered: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: defaultdict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        out[name] += (end - start) - covered[span_id]
    return dict(out)


def durations(spans: Iterable[Span], name: str) -> list[float]:
    """Wall duration of every span called *name*, in seconds."""
    return [end - start for _, _, n, start, end in spans if n == name]


def unattributed(wall_s: float, selfs: dict[str, float]) -> float:
    """Traced wall time the self times leave unexplained."""
    return wall_s - sum(selfs.values())


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(round(q * len(ordered), 9))
    return ordered[min(max(rank, 1), len(ordered)) - 1]
