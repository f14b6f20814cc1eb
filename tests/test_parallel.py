"""Unit tests for the process-parallel Monte-Carlo runner."""

import os

import pytest

from repro.core.builders import PatternKind, pattern_pd
from repro.core.formulas import optimal_pattern
from repro.simulation.parallel import (
    available_cpus,
    run_monte_carlo_parallel,
)
from repro.simulation.runner import run_monte_carlo


class TestParallelRunner:
    def test_single_worker_matches_sequential(self, tiny_platform):
        """Same root seed => identical aggregated results."""
        pat = optimal_pattern(PatternKind.PD, tiny_platform).pattern
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=5, n_runs=8, seed=42
        )
        par = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=5, n_runs=8, seed=42, n_workers=1
        )
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )
        assert (
            par.aggregated.mean_counters["disk_checkpoints"]
            == seq.aggregated.mean_counters["disk_checkpoints"]
        )

    def test_multi_worker_matches_sequential(self, tiny_platform):
        """Parallel fan-out preserves the per-run seed mapping."""
        pat = pattern_pd(400.0)
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=4, n_runs=6, seed=7
        )
        par = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=4, n_runs=6, seed=7, n_workers=2
        )
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )

    def test_worker_cap(self, tiny_platform):
        res = run_monte_carlo_parallel(
            pattern_pd(100.0),
            tiny_platform,
            n_patterns=2,
            n_runs=3,
            seed=1,
            n_workers=64,  # capped at n_runs internally
        )
        assert res.n_runs == 3

    def test_invalid_runs(self, tiny_platform):
        with pytest.raises(ValueError):
            run_monte_carlo_parallel(
                pattern_pd(100.0), tiny_platform, n_runs=0
            )

    def test_prediction_passthrough(self, tiny_platform):
        res = run_monte_carlo_parallel(
            pattern_pd(100.0),
            tiny_platform,
            n_patterns=2,
            n_runs=2,
            seed=1,
            n_workers=1,
            predicted_overhead=0.25,
        )
        assert res.predicted_overhead == 0.25


class TestStepEnginePool:
    """The process pool is the step tier's scaling path; the fast tiers
    bypass it (one in-process NumPy batch beats process fan-out), so
    these tests force ``engine="step"``."""

    def test_multi_worker_matches_sequential(self, tiny_platform):
        pat = pattern_pd(400.0)
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=4, n_runs=6, seed=7,
            engine="step",
        )
        par = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=4, n_runs=6, seed=7,
            n_workers=2, engine="step",
        )
        assert par.engine == "step"
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )
        assert (
            par.aggregated.mean_counters["silent_errors"]
            == seq.aggregated.mean_counters["silent_errors"]
        )

    def test_chunked_matches_sequential(self, tiny_platform):
        pat = pattern_pd(400.0)
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=4, n_runs=9, seed=17,
            engine="step",
        )
        par = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=4, n_runs=9, seed=17,
            n_workers=2, chunksize=4, engine="step",
        )
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )

    def test_single_worker_in_process(self, tiny_platform):
        pat = pattern_pd(300.0)
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=3, n_runs=4, seed=2,
            engine="step",
        )
        par = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=3, n_runs=4, seed=2,
            n_workers=1, engine="step",
        )
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )


class TestChunkedRunner:
    def test_chunked_matches_sequential(self, tiny_platform):
        """Explicit chunking preserves the per-run seed mapping exactly."""
        pat = pattern_pd(400.0)
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=4, n_runs=9, seed=17
        )
        par = run_monte_carlo_parallel(
            pat,
            tiny_platform,
            n_patterns=4,
            n_runs=9,
            seed=17,
            n_workers=2,
            chunksize=4,
        )
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )
        assert (
            par.aggregated.mean_counters["silent_errors"]
            == seq.aggregated.mean_counters["silent_errors"]
        )

    def test_chunksize_one_matches_heuristic(self, tiny_platform):
        pat = pattern_pd(400.0)
        a = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=3, n_runs=6, seed=3,
            n_workers=2, chunksize=1,
        )
        b = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=3, n_runs=6, seed=3,
            n_workers=2,
        )
        assert a.simulated_overhead == b.simulated_overhead

    def test_default_chunksize_heuristic(self):
        from repro.simulation.parallel import default_chunksize

        assert default_chunksize(8, 8) == 1  # small: one run per task
        assert default_chunksize(1000, 4) == 63  # ~4 tasks per worker
        assert default_chunksize(0, 4) == 1


class TestDefaultWorkers:
    @pytest.fixture
    def one_cpu(self, monkeypatch):
        """A process pinned to one CPU of an eight-CPU machine."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_available_cpus_follows_affinity_mask(self, one_cpu):
        assert available_cpus() == 1

    def test_available_cpus_without_affinity_api(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert available_cpus() == 3

    def test_pinned_process_runs_in_process(
        self, one_cpu, tiny_platform, monkeypatch
    ):
        """The step tier's default pool size follows the affinity mask:
        pinned to one CPU, no pool is forked."""

        def no_pool(*args, **kwargs):
            raise AssertionError("forked a worker pool on one CPU")

        monkeypatch.setattr(
            "repro.simulation.parallel.ProcessPoolExecutor", no_pool
        )
        pat = pattern_pd(400.0)
        par = run_monte_carlo_parallel(
            pat, tiny_platform, n_patterns=4, n_runs=6, seed=7,
            engine="step",
        )
        seq = run_monte_carlo(
            pat, tiny_platform, n_patterns=4, n_runs=6, seed=7,
            engine="step",
        )
        assert par.simulated_overhead == pytest.approx(
            seq.simulated_overhead, rel=1e-12
        )
