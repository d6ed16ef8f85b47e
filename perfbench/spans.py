"""In-memory span tracer for the pinchsim benchmark.

Spans are recorded from the benchmark's own files: around the library calls
the benchmark makes itself, and around library functions re-bound at their
call sites (``setattr(pinchsim.montecarlo, "zf_gains_batch", wrapped)``).
Each span keeps its name, start, end and the span that caused it; stacks are
per thread. Spans stay in memory and are reduced to per-name totals when the
run ends. Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns


@dataclass(frozen=True)
class SpanTotals:
    calls: int
    total_ns: int
    self_ns: int


@dataclass(frozen=True)
class TraceSummary:
    """Per-name totals plus the tracer self-check.

    ``sum(self_ns) + unattributed_ns == wall_ns`` holds when every span
    nests inside its parent and inside the traced wall time.
    """

    by_name: dict[str, SpanTotals]
    counts: dict[str, Counter]
    wall_ns: int
    unattributed_ns: int
    consistent: bool


class Tracer:
    """Records spans and counters; re-binds library names while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, int, int]] = []
        self.counts: dict[str, Counter] = defaultdict(Counter)
        self.unmeasured: list[str] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._counts_lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _add_counts(self, name: str, values: dict[str, int]) -> None:
        with self._counts_lock:
            self.counts[name].update(values)

    def call(self, name: str, fn, *args, counter=None, **kwargs):
        """Run ``fn`` inside a span; ``counter(args, result)`` adds counts."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))
        if counter is not None:
            self._add_counts(name, counter(args, result))
        return result

    def patch(self, module, attr: str, name: str, counter=None, *,
              span: bool = True) -> None:
        """Re-bind ``module.attr`` to a traced wrapper until :meth:`unpatch`.

        A target that no longer exists is listed in ``unmeasured`` by its
        dotted name, so its metrics read as unmeasured rather than as zero.
        ``span=False`` only counts calls, for functions too small to time.
        """
        target = f"{module.__name__}.{attr}"
        fn = getattr(module, attr, None)
        if fn is None:
            if target not in self.unmeasured:
                self.unmeasured.append(target)
            return

        if span:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, counter=counter, **kwargs)
        else:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self._add_counts(name, {"calls": 1})
                return fn(*args, **kwargs)

        self._patches.append((module, attr, fn))
        setattr(module, attr, traced)

    def unpatch(self) -> None:
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def summary(self, wall_ns: int) -> TraceSummary:
        """Reduce the recorded spans; ``wall_ns`` is the traced wall time."""
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        total: Counter = Counter()
        self_ns: Counter = Counter()
        top_ns = 0
        consistent = True
        for span_id, parent, name, start, end in self.spans:
            own = end - start - child_ns.get(span_id, 0)
            consistent &= own >= 0
            calls[name] += 1
            total[name] += end - start
            self_ns[name] += own
            if parent is None:
                top_ns += end - start
        unattributed = wall_ns - top_ns
        consistent &= (unattributed >= 0
                       and sum(self_ns.values()) + unattributed == wall_ns)
        by_name = {name: SpanTotals(calls[name], total[name], self_ns[name])
                   for name in calls}
        return TraceSummary(by_name=by_name, counts=dict(self.counts),
                            wall_ns=wall_ns, unattributed_ns=unattributed,
                            consistent=consistent)
