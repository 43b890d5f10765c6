"""Shared measurement helpers: percentiles, memory, the result record."""

from __future__ import annotations

import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence

from speed import probe, scale

perf_counter = time.perf_counter

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile, linearly interpolated between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def whole_cycles(records: list, cycle: int) -> list:
    """The records of every complete pass through a *cycle*-shape list.

    Percentiles over whole passes weigh every shape equally however
    many ops a run completed, so a faster or slower run does not shift
    them by over-sampling a few shapes.  A run shorter than one pass
    keeps everything."""
    whole = len(records) // cycle * cycle
    return records[:whole] if whole else records


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_setup(step: Callable[[int], None]) -> float:
    """Run ``step(repeat)`` ``SETUP_REPEATS`` times and return the median
    of its times at reference speed (see :mod:`speed`).  The median
    damps one slow repetition."""

    def once(repeat: int) -> float:
        before = probe()
        start = perf_counter()
        step(repeat)
        elapsed = perf_counter() - start
        return elapsed * scale(before, probe())

    return statistics.median(once(repeat) for repeat in range(SETUP_REPEATS))


class Metrics:
    """An ordered ``name -> {"value", "unit"}`` map."""

    def __init__(self):
        self.values: Dict[str, Dict[str, object]] = {}

    def add(self, name: str, value: float, unit: str) -> None:
        self.values[name] = {"value": float(value), "unit": unit}


class Outcome:
    """What one workload run reports besides its metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, ok: bool, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(problem)

    @property
    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


class InvalidRun(RuntimeError):
    """The run's own validity guards failed: report no numbers."""
