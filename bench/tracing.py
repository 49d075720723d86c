"""Timing wrappers placed around the public calls into motifshap.

Nothing here changes what the program computes: each wrapper forwards to
the real object and adds the elapsed time and call count under a layer
name. Totals are kept in memory in one Tracer and written out when a run
ends. Traced runs (--trace 1) use the timing wrappers; untraced runs
measure the plain objects, except that the wire client always counts
the queries it sends.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from motifshap import BlackBox, ExternalBlackBox, MaskingStrategy


class Tracer:
    """Seconds, calls and work counters per layer name."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, name: str, seconds: float, calls: int = 1) -> None:
        self.seconds[name] += seconds
        self.calls[name] += calls

    def count(self, name: str, n: int) -> None:
        self.counts[name] += n

    def wrap(self, name: str, fn: Callable,
             on_result: Callable[[object], None] | None = None) -> Callable:
        """fn with each call timed under name; on_result sees each result."""
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.add(name, time.perf_counter() - start)
            if on_result is not None:
                on_result(result)
            return result
        return timed

    def merge_json(self, doc: dict) -> None:
        """Add the totals of a trace written by another process."""
        for name, s in doc["seconds"].items():
            self.add(name, s, doc["calls"].get(name, 0))
        for name, n in doc["counts"].items():
            self.count(name, n)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"seconds": self.seconds, "calls": self.calls,
                       "counts": self.counts}, fh)


class TimedBlackBox(BlackBox):
    """Forwards to a black box and times every evaluation.

    Not concurrency_safe, so the engine always takes the batch path."""

    def __init__(self, inner: BlackBox, tracer: Tracer, name: str = "blackbox.eval"):
        self.inner = inner
        self.tracer = tracer
        self.name = name

    def evaluate(self, g):
        start = time.perf_counter()
        p = self.inner.evaluate(g)
        self.tracer.add(self.name, time.perf_counter() - start)
        return p

    def evaluate_batch(self, graphs):
        start = time.perf_counter()
        values = self.inner.evaluate_batch(graphs)
        self.tracer.add(self.name, time.perf_counter() - start, len(graphs))
        return values


@dataclass(frozen=True)
class TimedMasking(MaskingStrategy):
    """A masking strategy whose mask() calls are timed."""

    tracer: Tracer | None = field(default=None, compare=False, repr=False)

    def mask(self, g, motifs):
        start = time.perf_counter()
        masked = super().mask(g, motifs)
        self.tracer.add("masking.mask", time.perf_counter() - start)
        return masked


class CountingExternal(ExternalBlackBox):
    """External client that counts the queries it sends and, given a
    tracer, times each round trip (request written to reply parsed)."""

    def __init__(self, command, tracer: Tracer | None = None, timeout: float = 30.0):
        self.queries = 0
        self.tracer = tracer
        super().__init__(command, timeout=timeout)

    def evaluate(self, g):
        self.queries += 1
        if self.tracer is None:
            return super().evaluate(g)
        start = time.perf_counter()
        p = super().evaluate(g)
        self.tracer.add("blackbox.wire", time.perf_counter() - start)
        return p
