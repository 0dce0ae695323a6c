"""In-memory span tracing for the benchmark's traced run.

A span is (id, name, start, end, parent, run, counts): `run` is the
iteration the span belongs to, `parent` the id of the enclosing span or -1. Spans are kept in
a list and written once, when the benchmark ends. The program is not edited:
the traced run swaps the module-level names a calling module looks up (for
example `paylens.pipeline.tokenize_post`) for timing wrappers, and puts the
originals back afterwards. The untraced run never installs a wrapper.
"""

from __future__ import annotations

import gzip
import itertools
import json
import threading
import time
import contextlib
from contextlib import contextmanager
from typing import Callable

ID, NAME, START, END, PARENT, RUN, COUNTS = range(7)


class Tracer:
    """Collects spans from any thread.

    Each thread keeps its own stack of open spans. A span opened by a thread
    with an empty stack takes the innermost open span of the thread that
    created the tracer as its parent, so worker threads nest under the call
    that started them. A span is stored as a tuple when it closes, which
    keeps the garbage collector from scanning it again and again.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.run = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[tuple] = []

    def _stack(self) -> list[tuple]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> None:
        stack = self._stack()
        outer = stack or self._main_stack
        parent = outer[-1][0] if outer else -1
        stack.append((next(self._ids), name, parent, time.perf_counter()))

    def close(self, counts: dict | None = None,
              end: float | None = None) -> None:
        if end is None:
            end = time.perf_counter()
        sid, name, parent, start = self._stack().pop()
        # list.append is atomic under the GIL
        self.spans.append((sid, name, start, end, parent, self.run,
                           counts or None))

    @contextmanager
    def span(self, name: str):
        """Span around a block; yields a dict the block may fill with counts."""
        counts: dict = {}
        self.open(name)
        try:
            yield counts
        finally:
            self.close(counts)

    def wrap(self, fn: Callable, name: str,
             count: Callable | None = None) -> Callable:
        """`fn` inside a span.

        `count(result, args)` gives the span's counts; it runs after the span
        has ended, so its own cost is not charged to the span.
        """
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close({"raised": 1})
                raise
            end = time.perf_counter()
            self.close(count(result, args) if count is not None else None, end)
            return result
        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines: id, name, start, end, parent, run, counts."""
        with gzip.open(path, "wt", encoding="utf-8") as fp:
            for rec in self.spans:
                fp.write(json.dumps(rec))
                fp.write("\n")


class NullTracer:
    """Stands in for Tracer in untraced iterations: a span costs one call."""

    _span = contextlib.nullcontext({})

    def span(self, name: str):
        return self._span


NULL_TRACER = NullTracer()


@contextmanager
def patched(targets):
    """Temporarily replace attributes: targets are (owner, attr, replacement)."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, new in targets:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] >= 0:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for rec in spans:
        start, end = rec[START], rec[END]
        kids = [(max(s, start), min(e, end)) for s, e in children.get(rec[ID], ())]
        covered = union_length([(s, e) for s, e in kids if e > s])
        out.append(end - start - covered)
    return out


class Summary:
    """Per-name aggregates over the spans of the traced iterations."""

    def __init__(self, spans: list[tuple]):
        self.spans = spans
        selfs = self_times(spans)
        self.busy: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        for rec, self_t in zip(spans, selfs):
            name = rec[NAME]
            dur = rec[END] - rec[START]
            self.busy[name] = self.busy.get(name, 0.0) + dur
            self.self_s[name] = self.self_s.get(name, 0.0) + self_t
            self.calls[name] = self.calls.get(name, 0) + 1
            self.durations.setdefault(name, []).append(dur)
            if rec[COUNTS]:
                bucket = self.counts.setdefault(name, {})
                for key, value in rec[COUNTS].items():
                    bucket[key] = bucket.get(key, 0) + value

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0)

    def covered(self, prefixes: tuple[str, ...]) -> float:
        """Seconds covered by the union of spans whose name has a prefix."""
        return union_length([(r[START], r[END]) for r in self.spans
                             if r[NAME].startswith(prefixes)])

    def top_level(self) -> float:
        return union_length([(r[START], r[END]) for r in self.spans
                             if r[PARENT] < 0])
