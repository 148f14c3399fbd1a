"""Span recorder that instruments sfgof from outside, by rebinding module attributes.

Each traced function is replaced, in every loaded ``sfgof`` module namespace
that holds it, by a wrapper that records a span (name, start, end, parent,
thread id) in memory.  Callers inside the library look these names up in
their module globals at call time, so the wrappers see every call without
any change to the library.  ``uninstall`` puts the original objects back.
The first wrapped call in each thread after a ``mark`` reads the process's
OS thread count, so every study pays the same one read per thread.
"""

from __future__ import annotations

import functools
import itertools
import sys
import statistics
import threading
import time
from collections import Counter
from pathlib import Path


def read_os_threads() -> int:
    """``Threads:`` of this process from /proc (0 where /proc is absent)."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Tracer:
    """In-memory spans and call counts for the functions it wraps."""

    def __init__(self):
        self.spans: list[tuple] = []  # (span_id, name, start, end, parent_id, thread_id)
        self.counts: Counter = Counter()
        self.os_threads: list[int] = []  # one read per thread per marked phase
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple] = []  # (module, attribute, original)

    def _count(self, name: str) -> None:
        with self._lock:
            self.counts[name] += 1

    def _span_wrapper(self, name: str, fn, count: bool, eval_count: str | None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
                n = read_os_threads()
                with tracer._lock:
                    tracer.os_threads.append(n)
            if count:
                tracer._count(name)
            if eval_count is not None:
                args = (tracer._counting(eval_count, args[0]),) + args[1:]
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, threading.get_ident()))

        return wrapper

    def _counting(self, name: str, objective):
        def counted(theta):
            self._count(name)
            return objective(theta)

        return counted

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, targets) -> None:
        """Wrap each (span name, module, attribute, mode) target.

        mode is "span" (span only), "span+count" (span and call count),
        "count" (call count only) or "span+evals" (span, call count, and a
        count of objective evaluations for an optimizer whose first argument
        is the objective).  Targets whose attribute does not exist are skipped.
        """
        modules = [m for n, m in list(sys.modules.items()) if n == "sfgof" or n.startswith("sfgof.")]
        for name, module, attr, mode in targets:
            original = getattr(module, attr, None)
            if original is None:
                continue
            if mode == "count":
                wrapper = self._count_wrapper(name, original)
            else:
                wrapper = self._span_wrapper(
                    name, original, count=mode != "span", eval_count=f"{name}.evals" if mode == "span+evals" else None
                )
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def mark(self) -> tuple[int, Counter, int]:
        """Position to slice spans, counts and thread reads recorded after this point.

        Call it while no wrapped call is running: it starts a new phase, in
        which each thread's first wrapped call reads the OS thread count again.
        """
        with self._lock:
            self._local = threading.local()
            return len(self.spans), Counter(self.counts), len(self.os_threads)

    def since(self, mark: tuple[int, Counter, int]) -> tuple[list[tuple], Counter, list[int]]:
        start, counts, reads = mark
        with self._lock:
            return self.spans[start:], self.counts - counts, self.os_threads[reads:]


def wrapper_costs(calls: int = 20_000, repeats: int = 5) -> dict[str, float]:
    """Seconds that one wrapped call adds, per wrapper mode, timed on a no-op function.

    "evals" is the cost of one counted objective evaluation inside an
    optimizer wrapped in "span+evals" mode.  Each figure is the median of
    ``repeats`` batches of ``calls`` calls, less the same calls unwrapped.
    """

    def noop(*args):
        return None

    def per_call(fn, *args) -> float:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(calls):
                fn(*args)
            times.append((time.perf_counter() - start) / calls)
        return statistics.median(times)

    tracer = Tracer()
    bare = per_call(noop)
    costs = {
        mode: per_call(tracer._span_wrapper("cost", noop, count=mode != "span", eval_count=None)) - bare
        for mode in ("span", "span+count")
    }
    costs["count"] = per_call(tracer._count_wrapper("cost", noop)) - bare
    costs["evals"] = per_call(tracer._counting("cost", noop), 0.0) - per_call(noop, 0.0)
    return costs


def total(spans, name: str) -> float:
    """Summed duration of the spans called name that are not nested in another span of that name."""
    ids = {s[0]: s for s in spans}
    out = 0.0
    for span_id, span_name, start, end, parent, _ in spans:
        if span_name != name:
            continue
        while parent is not None and parent in ids and ids[parent][1] != name:
            parent = ids[parent][4]
        if parent is None or parent not in ids:
            out += end - start
    return out


def root_time(spans) -> float:
    """Summed duration of spans that have no parent span (their own thread's top level)."""
    return sum(end - start for _, _, start, end, parent, _ in spans if parent is None)


def self_times(spans) -> dict[str, float]:
    """Per-name self time: each span's duration minus its direct children's."""
    child = Counter()
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out = Counter()
    for span_id, name, start, end, _, _ in spans:
        out[name] += (end - start) - child[span_id]
    return dict(out)
