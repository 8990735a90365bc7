"""Spans around the benchmark's calls into b3image, kept in memory.

A span records a name, start and end (perf_counter_ns), its parent span and
the id of the case it belongs to.  Spans are opened only by the benchmark's
own code, around calls into a layer's public function; nothing inside the
package is instrumented.  The untraced run uses NULL_TRACER, whose spans cost
one no-op context manager each.
"""

from __future__ import annotations

import contextlib
import resource
import time

_PAGE_KB = resource.getpagesize() // 1024


def _rss_kb() -> int:
    """Current resident set size, from /proc/self/statm."""
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_KB


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Tracer:
    """Collects spans; `spans` rows are (name, start_ns, end_ns, parent, case, rss_kb).

    rss_kb is filled only for spans opened with rss=True: the rise of the
    process's peak RSS over the RSS current when the span opened.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int | None, str | None, int | None]] = []
        self._stack: list[int] = []
        self._case: str | None = None

    @contextlib.contextmanager
    def span(self, name: str, case: str | None = None, rss: bool = False):
        if case is not None:
            self._case = case
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append((name, 0, 0, parent, self._case, None))
        self._stack.append(index)
        rss_before = _rss_kb() if rss else None
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            growth = max(0, _maxrss_kb() - rss_before) if rss else None
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self._case, growth)

    def intervals(self, name: str) -> list[tuple[float, float]]:
        """(start, end) in perf_counter seconds of every span with this name."""
        return [(s / 1e9, e / 1e9) for n, s, e, _, _, _ in self.spans if n == name]

    def rss_growth_kb(self) -> list[int]:
        return [r for *_, r in self.spans if r is not None]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name, in seconds: duration minus children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = {}
        for i, (name, start, end, _, _, _) in enumerate(self.spans):
            totals[name] = totals.get(name, 0.0) + (end - start - child[i]) / 1e9
        return totals


class _NullTracer:
    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str, case: str | None = None, rss: bool = False):
        return self._null


NULL_TRACER = _NullTracer()
