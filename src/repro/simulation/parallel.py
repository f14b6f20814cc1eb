"""Process-parallel Monte-Carlo campaigns.

Monte-Carlo runs are embarrassingly parallel; following the HPC guides'
recommendation for multi-core Python, this module fans independent runs
out to a :class:`concurrent.futures.ProcessPoolExecutor`.  Reproducibility
is preserved exactly: each run receives a child ``SeedSequence`` spawned
from the root seed, so the set of per-run results is identical to the
sequential runner's (aggregation is order-insensitive).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional

import numpy as np

from repro.core.pattern import Pattern
from repro.errors.rng import SeedLike
from repro.platforms.platform import Platform
from repro.simulation.dispatch import EngineTier, run_stats, select_engine
from repro.simulation.engine import PatternSimulator
from repro.simulation.runner import MonteCarloResult
from repro.simulation.stats import SimulationStats, aggregate_stats


def _run_one(
    pattern: Pattern,
    platform: Platform,
    n_patterns: int,
    fail_stop_in_operations: bool,
    seed_entropy: tuple,
) -> SimulationStats:
    """Worker: one independent run from a serialised seed."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed_entropy[0],
                                               spawn_key=seed_entropy[1]))
    )
    sim = PatternSimulator(
        pattern, platform, fail_stop_in_operations=fail_stop_in_operations
    )
    return sim.run(n_patterns, rng)


def _run_chunk(
    pattern: Pattern,
    platform: Platform,
    n_patterns: int,
    fail_stop_in_operations: bool,
    seed_payloads: List[tuple],
) -> List[SimulationStats]:
    """Worker: a batch of independent runs, one simulator per chunk.

    Batching many small runs per submitted task amortises the per-task
    pickling/submission overhead of the pool; each run still gets its own
    spawned ``SeedSequence``, so results are bit-identical to submitting
    runs one by one.
    """
    sim = PatternSimulator(
        pattern, platform, fail_stop_in_operations=fail_stop_in_operations
    )
    out: List[SimulationStats] = []
    for entropy, spawn_key in seed_payloads:
        rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence(entropy=entropy, spawn_key=spawn_key)
            )
        )
        out.append(sim.run(n_patterns, rng))
    return out


def available_cpus() -> int:
    """CPUs this process may run on: the default worker-pool size.

    Honours ``taskset`` and cpusets through the scheduler affinity mask
    where the platform has one; ``os.cpu_count()`` counts every CPU of
    the machine.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def default_chunksize(
    n_tasks: int, n_workers: int, *, cap: Optional[int] = None
) -> int:
    """Work items per submitted task: ~4 tasks per worker.

    This keeps the pool load-balanced while cutting submission overhead
    for small per-item workloads.  The one heuristic is shared by the
    Monte-Carlo runner (items = runs, uncapped) and the campaign
    executor (items = scenario points, capped so journal streaming
    stays responsive).
    """
    if n_tasks <= 0:
        return 1
    workers = max(1, n_workers)
    size = max(1, -(-n_tasks // (workers * 4)))
    return size if cap is None else min(cap, size)


def run_monte_carlo_parallel(
    pattern: Pattern,
    platform: Platform,
    *,
    n_patterns: int = 100,
    n_runs: int = 100,
    seed: SeedLike = None,
    fail_stop_in_operations: bool = True,
    predicted_overhead: Optional[float] = None,
    n_workers: Optional[int] = None,
    chunksize: Optional[int] = None,
    engine: str = "auto",
) -> MonteCarloResult:
    """Parallel equivalent of :func:`repro.simulation.runner.run_monte_carlo`.

    Parameters
    ----------
    n_workers:
        Process count; defaults to :func:`available_cpus` capped at
        ``n_runs``.
        ``n_workers=1`` falls back to in-process execution (no pool), which
        is also the deterministic reference for tests.
    chunksize:
        Runs batched per submitted task (default: the
        :func:`default_chunksize` heuristic).  Chunking amortises the
        pool's per-task overhead when ``n_patterns`` is small; it never
        changes the results.
    engine:
        Engine tier (see :mod:`repro.simulation.dispatch`).  When the
        request dispatches to a vectorised tier (``fast-pd``, ``fast``,
        or the ``packed`` execution strategy) the whole campaign runs
        as one in-process NumPy batch -- the batch is faster than a
        process pool for this workload, and the results match the
        sequential runner bit-for-bit because the same generator path is
        used.  Only the step tier fans out to processes.  For
        cross-*configuration* process fan-out, the campaign executor
        packs whole mega-batches per task instead
        (:mod:`repro.campaign.executor`).

    Notes
    -----
    On the step tier, per-run seeds are spawned from the root ``seed``
    exactly like the sequential runner, so for a given seed the multiset
    of per-run statistics matches the sequential result bit-for-bit.
    """
    if n_runs <= 0:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    tier = select_engine(
        pattern,
        fail_stop_in_operations=fail_stop_in_operations,
        engine=engine,
    )
    if tier is not EngineTier.STEP:
        dispatched = run_stats(
            pattern,
            platform,
            n_patterns=n_patterns,
            n_runs=n_runs,
            seed=seed,
            fail_stop_in_operations=fail_stop_in_operations,
            engine=tier.value,
        )
        return MonteCarloResult(
            pattern=pattern,
            platform=platform,
            n_patterns=n_patterns,
            n_runs=n_runs,
            aggregated=aggregate_stats(dispatched.runs),
            predicted_overhead=predicted_overhead,
            engine=dispatched.tier.value,
        )
    if isinstance(seed, np.random.SeedSequence):
        root = seed
    elif isinstance(seed, np.random.Generator):
        entropy = seed.integers(0, 2**63, size=4)
        root = np.random.SeedSequence(entropy.tolist())
    else:
        root = np.random.SeedSequence(seed)
    children = root.spawn(n_runs)
    seed_payloads = [(c.entropy, c.spawn_key) for c in children]

    workers = n_workers if n_workers is not None else available_cpus()
    workers = max(1, min(workers, n_runs))

    if workers == 1:
        runs: List[SimulationStats] = [
            _run_one(
                pattern, platform, n_patterns, fail_stop_in_operations, sp
            )
            for sp in seed_payloads
        ]
    else:
        size = (
            chunksize
            if chunksize is not None
            else default_chunksize(n_runs, workers)
        )
        size = max(1, size)
        batches = [
            seed_payloads[i : i + size]
            for i in range(0, len(seed_payloads), size)
        ]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(
                    _run_chunk,
                    pattern,
                    platform,
                    n_patterns,
                    fail_stop_in_operations,
                    batch,
                )
                for batch in batches
            ]
            runs = [stats for f in futures for stats in f.result()]

    return MonteCarloResult(
        pattern=pattern,
        platform=platform,
        n_patterns=n_patterns,
        n_runs=n_runs,
        aggregated=aggregate_stats(runs),
        predicted_overhead=predicted_overhead,
        engine=EngineTier.STEP.value,
    )
