"""Monte-Carlo runners: many independent runs, aggregated statistics.

The paper's experiments execute 1000 optimal patterns per run and repeat
1000 times (Section 6.1).  Those counts are configurable here: tests and
benchmarks use smaller, seeded configurations; the CLI exposes ``--full``
for paper-scale replication.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.core.builders import PatternKind
from repro.core.formulas import OptimalPattern, optimal_pattern, simulation_costs
from repro.core.pattern import Pattern
from repro.errors.rng import SeedLike
from repro.platforms.platform import Platform
from repro.simulation.dispatch import run_stats
from repro.simulation.stats import (
    AggregatedStats,
    SimulationStats,
    aggregate_stats,
)


@dataclass(frozen=True)
class MonteCarloResult:
    """Aggregated outcome of a Monte-Carlo campaign on one configuration.

    Attributes
    ----------
    pattern:
        The simulated pattern.
    platform:
        The platform (with the verification costs actually charged).
    n_patterns, n_runs:
        Campaign size.
    runs:
        The per-run statistics, in run order.
    predicted_overhead:
        First-order model prediction to compare against, when available.
    """

    pattern: Pattern
    platform: Platform
    n_patterns: int
    n_runs: int
    runs: Tuple[SimulationStats, ...]
    predicted_overhead: Optional[float] = None
    engine: Optional[str] = None

    @cached_property
    def aggregated(self) -> AggregatedStats:
        """Averaged counters, rates and overhead across runs."""
        return aggregate_stats(self.runs)

    @property
    def simulated_overhead(self) -> float:
        """Mean simulated overhead across runs."""
        return self.aggregated.mean_overhead

    @property
    def prediction_gap(self) -> Optional[float]:
        """``simulated - predicted`` overhead (positive: model optimistic)."""
        if self.predicted_overhead is None:
            return None
        return self.simulated_overhead - self.predicted_overhead


def run_monte_carlo(
    pattern: Pattern,
    platform: Platform,
    *,
    n_patterns: int = 100,
    n_runs: int = 100,
    seed: SeedLike = None,
    fail_stop_in_operations: bool = True,
    predicted_overhead: Optional[float] = None,
    engine: str = "auto",
) -> MonteCarloResult:
    """Run ``n_runs`` independent simulations of ``n_patterns`` patterns.

    The request is dispatched to the fastest engine tier covering it
    (see :mod:`repro.simulation.dispatch`); pass ``engine="step"`` to
    force the historical per-operation engine, whose per-run random
    streams are spawned from ``seed`` exactly as before (reproducible,
    statistically independent).
    """
    if n_runs <= 0:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    dispatched = run_stats(
        pattern,
        platform,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
        fail_stop_in_operations=fail_stop_in_operations,
        engine=engine,
    )
    return MonteCarloResult(
        pattern=pattern,
        platform=platform,
        n_patterns=n_patterns,
        n_runs=n_runs,
        runs=tuple(dispatched.runs),
        predicted_overhead=predicted_overhead,
        engine=dispatched.tier.value,
    )


def simulate_optimal_pattern(
    kind: PatternKind,
    platform: Platform,
    *,
    n_patterns: int = 100,
    n_runs: int = 100,
    seed: SeedLike = None,
    fail_stop_in_operations: bool = True,
    engine: str = "auto",
) -> MonteCarloResult:
    """Optimise a family on a platform, then Monte-Carlo simulate it.

    This is the paper's experimental unit: compute ``W*, n*, m*`` from
    Table 1, then simulate the resulting pattern and compare the simulated
    overhead against the predicted ``H*``.
    """
    opt: OptimalPattern = optimal_pattern(kind, platform)
    sim_platform = simulation_costs(kind, platform)
    return run_monte_carlo(
        opt.pattern,
        sim_platform,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
        fail_stop_in_operations=fail_stop_in_operations,
        predicted_overhead=opt.H_star,
        engine=engine,
    )


def simulate_pattern_overhead(
    kind: PatternKind,
    platform: Platform,
    *,
    n_patterns: int = 100,
    n_runs: int = 100,
    seed: SeedLike = None,
) -> Dict[str, float]:
    """Convenience wrapper returning the headline numbers as a dict.

    Keys: ``predicted`` (first-order H*), ``simulated`` (mean overhead),
    ``gap`` (simulated - predicted), ``W_star``, ``n``, ``m``.
    """
    opt = optimal_pattern(kind, platform)
    result = simulate_optimal_pattern(
        kind,
        platform,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
    )
    return {
        "predicted": float(opt.H_star),
        "simulated": float(result.simulated_overhead),
        "gap": float(result.simulated_overhead - opt.H_star),
        "W_star": float(opt.W_star),
        "n": float(opt.n),
        "m": float(opt.m),
    }
