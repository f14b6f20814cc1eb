"""Counters and aggregation for Monte-Carlo runs.

:class:`SimulationStats` accumulates everything one simulated run
produces; :func:`aggregate_stats` averages a collection of runs and
derives the per-hour / per-day frequencies plotted by the paper's
Figures 6-9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, Iterable, List, Sequence

import numpy as np

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

#: Counter fields that are summed over a run and averaged over runs.
#: Shared with the vectorised engines, which track one per-instance
#: array per counter (struct-of-arrays) and reduce to these fields.
COUNTER_FIELDS = (
    "disk_checkpoints",
    "memory_checkpoints",
    "partial_verifications",
    "guaranteed_verifications",
    "disk_recoveries",
    "memory_recoveries",
    "fail_stop_errors",
    "silent_errors",
    "silent_detections_partial",
    "silent_detections_guaranteed",
)


@dataclass
class SimulationStats:
    """Counters for one simulated run (a sequence of patterns).

    ``total_time`` is wall-clock (including all rework); ``useful_work``
    is the error-free work content (#patterns x W), so the simulated
    overhead is ``total_time / useful_work - 1``.
    """

    total_time: float = 0.0
    useful_work: float = 0.0
    patterns_completed: int = 0
    disk_checkpoints: int = 0
    memory_checkpoints: int = 0
    partial_verifications: int = 0
    guaranteed_verifications: int = 0
    disk_recoveries: int = 0
    memory_recoveries: int = 0
    fail_stop_errors: int = 0
    silent_errors: int = 0
    silent_detections_partial: int = 0
    silent_detections_guaranteed: int = 0

    # -- derived quantities ---------------------------------------------------
    @property
    def overhead(self) -> float:
        """Simulated overhead ``total_time / useful_work - 1``."""
        if self.useful_work <= 0:
            raise ValueError("no useful work recorded; cannot compute overhead")
        return self.total_time / self.useful_work - 1.0

    @property
    def verifications(self) -> int:
        """All verifications executed (partial + guaranteed)."""
        return self.partial_verifications + self.guaranteed_verifications

    @property
    def hours(self) -> float:
        """Simulated wall-clock duration in hours."""
        return self.total_time / SECONDS_PER_HOUR

    @property
    def days(self) -> float:
        """Simulated wall-clock duration in days."""
        return self.total_time / SECONDS_PER_DAY

    def per_hour(self, counter: str) -> float:
        """Frequency of a counter per simulated hour."""
        value = getattr(self, counter)
        if self.total_time <= 0:
            raise ValueError("no simulated time; cannot compute a rate")
        return value / self.hours

    def per_day(self, counter: str) -> float:
        """Frequency of a counter per simulated day."""
        value = getattr(self, counter)
        if self.total_time <= 0:
            raise ValueError("no simulated time; cannot compute a rate")
        return value / self.days

    def per_pattern(self, counter: str) -> float:
        """Average of a counter per completed pattern."""
        value = getattr(self, counter)
        if self.patterns_completed <= 0:
            raise ValueError("no completed patterns; cannot compute a rate")
        return value / self.patterns_completed

    def merge(self, other: "SimulationStats") -> None:
        """Accumulate another run's counters into this one (in place)."""
        self.total_time += other.total_time
        self.useful_work += other.useful_work
        self.patterns_completed += other.patterns_completed
        for name in COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass(frozen=True)
class AggregatedStats:
    """Mean statistics over many Monte-Carlo runs.

    Rates are computed per run and then averaged (matching the paper's
    "averaging the values from the 1000 runs").
    """

    n_runs: int
    mean_overhead: float
    std_overhead: float
    mean_total_time: float
    mean_counters: Dict[str, float]
    rates_per_hour: Dict[str, float]
    rates_per_day: Dict[str, float]
    per_pattern: Dict[str, float]

    @property
    def sem_overhead(self) -> float:
        """Standard error of the mean overhead."""
        if self.n_runs <= 1:
            return math.nan
        return self.std_overhead / math.sqrt(self.n_runs)

    def overhead_ci95(self) -> tuple:
        """Approximate 95% confidence interval on the mean overhead."""
        half = 1.96 * self.sem_overhead
        return (self.mean_overhead - half, self.mean_overhead + half)


def aggregate_stats(runs: Sequence[SimulationStats]) -> AggregatedStats:
    """Average per-run overheads, counters and frequencies."""
    if not runs:
        raise ValueError("need at least one run to aggregate")
    overheads = np.array([r.overhead for r in runs], dtype=np.float64)
    total_times = np.array([r.total_time for r in runs], dtype=np.float64)
    hours = total_times / SECONDS_PER_HOUR
    days = total_times / SECONDS_PER_DAY
    pats = np.array(
        [max(r.patterns_completed, 1) for r in runs], dtype=np.float64
    )
    mean_counters: Dict[str, float] = {}
    rates_hour: Dict[str, float] = {}
    rates_day: Dict[str, float] = {}
    per_pattern: Dict[str, float] = {}
    for name in COUNTER_FIELDS:
        vals = np.array([getattr(r, name) for r in runs], dtype=np.float64)
        mean_counters[name] = float(vals.mean())
        rates_hour[name] = float(np.mean(vals / hours))
        rates_day[name] = float(np.mean(vals / days))
        per_pattern[name] = float(np.mean(vals / pats))
    # A combined "verifications" pseudo-counter (partial + guaranteed),
    # plotted by Figures 6c, 7d, 9e, 9i.
    verif_vals = np.array([r.verifications for r in runs], dtype=np.float64)
    rates_hour["verifications"] = float(np.mean(verif_vals / hours))
    rates_day["verifications"] = float(
        np.mean(verif_vals / (total_times / SECONDS_PER_DAY))
    )
    mean_counters["verifications"] = float(verif_vals.mean())

    return AggregatedStats(
        n_runs=len(runs),
        mean_overhead=float(overheads.mean()),
        std_overhead=float(overheads.std(ddof=1)) if len(runs) > 1 else 0.0,
        mean_total_time=float(total_times.mean()),
        mean_counters=mean_counters,
        rates_per_hour=rates_hour,
        rates_per_day=rates_day,
        per_pattern=per_pattern,
    )
