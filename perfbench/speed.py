"""CPU speed sampling, to take machine-speed swings out of the timings.

On a shared virtual machine a core's speed swings by up to about 2x within
seconds, as other tenants load the host. A fixed pure-Python probe, timed on
the same core as the measured work, reads that speed. A time divided by the
run's mean slowdown (mean probe time over `REFERENCE_PROBE_S`) is the time
the run would have taken with the probe at its reference speed; the benchmark
reports such reference seconds and prints the raw wall time beside them.

Pin the process first (`pin_to_one_cpu`), so the probe and the work share a
core. A process that fans out to worker processes cannot be corrected this
way, because the probe sees only one core.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

# A round unit: an undisturbed probe takes 0.09-0.13 ms on the 2-vCPU Intel
# Xeon virtual machine the benchmark was tuned on.
REFERENCE_PROBE_S = 1.0e-4
SAMPLE_EVERY_S = 0.02


class _Check:
    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: int, a: int, b: int):
        self.kind, self.a, self.b = kind, a, b

    def holds(self, plan: tuple[int, ...]) -> bool:
        if self.kind == 0:
            return self.a not in plan
        return all(plan[i] != self.a for i in range(self.b, len(plan), 2))


_PLAN = tuple(range(12))
_CHECKS = [_Check(i % 2, i % 17, i % 2) for i in range(40)]


def probe() -> float:
    """Seconds taken by a fixed batch of interpreter work: method calls,
    attribute reads, tuple scans and generators. A tight integer loop
    under-reads the slowdown of hoardbench's code (log-log slope 1.4-1.8
    against run time); this mix tracks it (slope 1.0-1.2 on families A, C
    and D)."""
    start = time.perf_counter()
    for _ in range(4):
        [c for c in _CHECKS if not c.holds(_PLAN)]
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    return statistics.fmean(samples) / REFERENCE_PROBE_S


def pin_to_one_cpu() -> set[int]:
    """Pin this process (and what it starts later) to one CPU; returns the
    previous CPU set for `os.sched_setaffinity(0, ...)`."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    return allowed


class Sampler:
    """Probes every SAMPLE_EVERY_S from a background thread, plus once at
    entry and exit, while the `with` block runs. Samples are kept as
    (perf_counter at the start, probe seconds)."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.samples.append((time.perf_counter(), probe()))

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    def slowdown(self, start: float = float("-inf"), end: float = float("inf")) -> float:
        """Mean slowdown of the samples taken in [start, end], or of all
        samples when none falls inside."""
        inside = [p for t, p in self.samples if start <= t <= end]
        return slowdown(inside or [p for _, p in self.samples])
