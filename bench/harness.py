"""Pieces every workload shares: the run context, closed-loop timing
and peak memory."""

from __future__ import annotations

import resource
import statistics
import time


class Context:
    """What a workload needs from the harness: its seed, run length and
    tracer, a scratch directory, and the operation counters."""

    def __init__(self, seed: int, seconds: float, tracer, work: str, bench_dir: str):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.work = work
        self.bench_dir = bench_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def attempt(self, op):
        """Run one operation; a failure is counted and the run goes on."""
        self.attempted += 1
        try:
            return op()
        except Exception as exc:  # any failed operation is a result to report
            self.failed += 1
            self.errors.append(f"operation {self.attempted}: {type(exc).__name__}: {exc}")
            return None

    def repeated_setup(self, make, repeats: int, discard=None):
        """Call make() repeats times; returns the last state and the median
        set-up time. discard(state) ends a state, untimed."""
        times = []
        state = None
        for _ in range(repeats):
            if state is not None and discard is not None:
                discard(state)
            start = time.perf_counter()
            state = make()
            times.append(time.perf_counter() - start)
        return state, statistics.median(times)

    def closed_loop(self, one_round) -> tuple[float, int]:
        """Run whole rounds until the run length has passed; returns the
        elapsed time and the number of rounds."""
        rounds = 0
        start = time.perf_counter()
        while True:
            one_round()
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= self.seconds:
                return elapsed, rounds


def peak_rss_mb() -> float:
    """Highest peak RSS of this process and of its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def per(total: float, n: float) -> float:
    return total / n if n else 0.0


def explain_layers(tracer, n_ex: int, queries: int, blackbox: str) -> dict:
    """Engine and masking metrics per explanation from a traced loop;
    blackbox names the span of the black-box calls the engine made."""
    s, c = tracer.seconds, tracer.calls
    masks = c["masking.mask"]
    return {
        "engine.explain_s": per(s["engine.explain"], n_ex),
        "engine.self_s": per(s["engine.explain"] - s["masking.mask"] - s[blackbox], n_ex),
        "engine.coalitions": per(masks, n_ex),
        "engine.queries": per(queries, n_ex),
        "engine.dedup_ratio": per(queries, masks),
        "masking.mask_s": per(s["masking.mask"], n_ex),
        "masking.calls": per(masks, n_ex),
        "masking.us_per_call": 1e6 * per(s["masking.mask"], masks),
        "blackbox.eval_s": per(s[blackbox], n_ex),
    }
