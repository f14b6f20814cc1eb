"""Microbenchmarks of the simulation engine and analytical kernels.

These measure the library's own performance (not a paper figure): pattern
throughput of the Monte-Carlo engine at low and high error rates, the
exact-model evaluator, and the closed-form optimiser.
"""

import numpy as np
import pytest

from repro.core.builders import PatternKind, build_pattern
from repro.core.exact import exact_expected_time
from repro.core.formulas import optimal_pattern, optimize_all_patterns
from repro.platforms.catalog import hera
from repro.platforms.scaling import weak_scaling_platform
from repro.simulation.engine import PatternSimulator


@pytest.mark.benchmark(group="simulator")
def test_engine_throughput_low_error_rate(benchmark):
    """Patterns/second on Hera (errors rare: the fast path dominates)."""
    plat = hera()
    opt = optimal_pattern(PatternKind.PDMV, plat)
    sim = PatternSimulator(opt.pattern, plat)
    rng = np.random.default_rng(1)
    stats = benchmark(sim.run, 50, rng)
    assert stats.patterns_completed == 50


@pytest.mark.benchmark(group="simulator")
def test_engine_throughput_high_error_rate(benchmark):
    """Patterns/second at 100k nodes (recovery paths dominate)."""
    plat = weak_scaling_platform(100_000)
    opt = optimal_pattern(PatternKind.PDMV, plat)
    sim = PatternSimulator(opt.pattern, plat)
    rng = np.random.default_rng(2)
    benchmark(sim.run, 20, rng)


@pytest.mark.benchmark(group="analytical")
def test_exact_model_evaluation(benchmark):
    """Exact E(P) of a 6x17-chunk PDMV pattern (the recursion's cost)."""
    plat = hera()
    pat = build_pattern(PatternKind.PDMV, 25000.0, n=6, m=17, r=plat.r)
    E = benchmark(exact_expected_time, pat, plat)
    assert E > pat.W


@pytest.mark.benchmark(group="analytical")
def test_closed_form_optimiser(benchmark):
    """Optimising all six families on one platform (Table-1 cell cost)."""
    plat = hera()
    opts = benchmark(optimize_all_patterns, plat)
    assert len(opts) == 6
