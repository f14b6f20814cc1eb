"""Benchmark: engine tiers -- step vs fast-general vs fast-pd.

Measures the claim the dispatch layer is built on: on a paper-scale
general-pattern batch (the Hera-optimal ``PDMV`` pattern, 1000
instances) the fast tier -- a packed batch of one job, timed through
``run_stats(engine="fast")`` -- is **>= 10x** faster than the step
engine while producing statistically equivalent results, and the PD
specialisation is faster still on its home shape.

The measured trajectory point is written to ``BENCH_engine.json`` at the
repository root so successive PRs can track engine throughput.
"""

import os
import time

import numpy as np
import pytest

from repro.core.builders import PatternKind, pattern_pd
from repro.core.formulas import optimal_pattern, simulation_costs
from repro.platforms.catalog import hera
from repro.simulation.dispatch import run_stats
from repro.simulation.engine import PatternSimulator
from repro.simulation.fast_pd import simulate_pd_batch

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_engine.json",
)

N_INSTANCES = 1000


def _hera_pdmv():
    plat = hera()
    opt = optimal_pattern(PatternKind.PDMV, plat)
    return opt.pattern, simulation_costs(PatternKind.PDMV, plat)


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _fast_mean_time(pattern, platform, n, seed, **kwargs):
    """Mean pattern time of ``n`` instances on the fast tier (one run)."""
    (run,) = run_stats(
        pattern, platform, n_patterns=n, n_runs=1, seed=seed,
        engine="fast", **kwargs,
    ).runs
    return run.total_time / n


@pytest.fixture(autouse=True)
def _fast_tier_imported():
    """Import the fast tier's engine before any timing.

    ``run_stats`` imports it on first use; the timed calls measure the
    engine, as the step engine's timings exclude its import.  The
    warm-up runs a PD pattern, so the timed patterns' schedules are
    still built inside the timed calls.
    """
    _fast_mean_time(pattern_pd(100.0), hera(), 1, 0)


@pytest.mark.benchmark(group="engine")
def test_fast_engine_vs_step_engine(once):
    """>= 10x on a 1000-instance general-pattern (PDMV) batch."""
    pattern, platform = _hera_pdmv()

    step_time, step_stats = _time(
        lambda: PatternSimulator(pattern, platform).run(
            N_INSTANCES, np.random.default_rng(1)
        )
    )
    fast_time, fast_mean = _time(
        lambda: once(_fast_mean_time, pattern, platform, N_INSTANCES, 2)
    )
    pd_pattern = pattern_pd(pattern.W)
    pd_plat = platform  # same cost vector; PD ignores V/r
    fast_pd_time, pd_batch = _time(
        lambda: simulate_pd_batch(
            pd_pattern.W, pd_plat, N_INSTANCES, np.random.default_rng(3)
        )
    )

    speedup = step_time / fast_time
    print(
        f"\nstep {step_time * 1e3:.1f} ms, fast {fast_time * 1e3:.1f} ms "
        f"({speedup:.1f}x), fast-pd {fast_pd_time * 1e3:.1f} ms "
        f"(PD shape, {N_INSTANCES} instances)"
    )

    # Equivalence sanity on top of the speed claim.
    step_mean = step_stats.total_time / N_INSTANCES
    assert fast_mean == pytest.approx(step_mean, rel=0.05)

    record = {
        "bench": "engine",
        "pattern": f"PDMV(W={pattern.W:.0f}, n={pattern.n}, m={pattern.m[0]})",
        "platform": "hera",
        "n_instances": N_INSTANCES,
        "step_seconds": step_time,
        "fast_seconds": fast_time,
        "fast_pd_seconds": fast_pd_time,
        "speedup_fast_vs_step": speedup,
        "step_patterns_per_second": N_INSTANCES / step_time,
        "fast_patterns_per_second": N_INSTANCES / fast_time,
    }
    if os.environ.get("REPRO_BENCH_SMOKE", "") in ("", "0"):
        from _history import write_bench_record

        write_bench_record(BENCH_PATH, record)

    assert speedup >= 10.0


@pytest.mark.benchmark(group="engine")
def test_fast_pd_fastest_on_pd_shape(once):
    """The PD specialisation beats the general engine on PD batches."""
    plat = hera()
    W = optimal_pattern(PatternKind.PD, plat).W_star
    pattern = pattern_pd(W)
    n = 50_000

    gen_time, gen_mean = _time(
        lambda: _fast_mean_time(
            pattern, plat, n, 4, fail_stop_in_operations=False
        )
    )
    pd_time, pd = _time(
        lambda: once(
            simulate_pd_batch, W, plat, n, np.random.default_rng(5)
        )
    )
    print(
        f"\nfast-general {gen_time * 1e3:.1f} ms, "
        f"fast-pd {pd_time * 1e3:.1f} ms "
        f"({gen_time / pd_time:.1f}x) on {n} PD instances"
    )
    assert pd.mean_time() == pytest.approx(gen_mean, rel=0.02)
    # Allow scheduling noise; the PD tier must not lose its home game.
    assert pd_time <= gen_time


@pytest.mark.benchmark(group="engine")
def test_weak_scaling_sweep_throughput(once):
    """A Figure-7-style sweep through the dispatcher stays interactive."""
    from repro.platforms.scaling import weak_scaling_platform
    from repro.simulation.runner import simulate_optimal_pattern

    def sweep():
        rows = []
        for nodes in (2**10, 2**12, 2**14):
            plat = weak_scaling_platform(nodes)
            res = simulate_optimal_pattern(
                PatternKind.PDMV, plat,
                n_patterns=100, n_runs=20, seed=7,
            )
            rows.append((nodes, res.simulated_overhead, res.engine))
        return rows

    elapsed, rows = _time(lambda: once(sweep))
    assert all(engine == "fast" for _, _, engine in rows)
    print(f"\n3-point weak-scaling sweep (100x20 each): {elapsed:.2f} s")
    assert elapsed < 30.0
