"""Process-parallel Monte-Carlo through the campaign pool.

A point's records must not depend on where it ran: in-process, on any
number of pool workers, or in buckets of any size.  Each test compares
pool output against the direct in-process Monte-Carlo call with the
same seed.
"""

import os

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.planner import DEFAULT_PACK_ROWS, plan_buckets
from repro.campaign.pool import EvalFleet
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.simulation.runner import simulate_optimal_pattern


def _points(tiny_platform, seeds, *, kind="PD", engine="auto", **sizes):
    pdict = platform_to_dict(tiny_platform)
    return [
        ScenarioPoint(
            mode="simulate",
            kind=kind,
            platform=pdict,
            n_patterns=sizes.get("n_patterns", 4),
            n_runs=sizes.get("n_runs", 6),
            seed=seed,
            engine=engine,
        )
        for seed in seeds
    ]


def _direct(point, tiny_platform):
    """The same point, simulated in-process without the campaign layer."""
    return simulate_optimal_pattern(
        point.build_kind(),
        tiny_platform,
        n_patterns=point.n_patterns,
        n_runs=point.n_runs,
        seed=point.seed,
        engine=point.engine,
    )


def _fleet_records(points, size, procs=2):
    """Records of ``points`` run as ``size``-point buckets on a fleet."""
    items = [(str(i), p) for i, p in enumerate(points)]
    out = [None] * len(points)
    with EvalFleet(procs) as fleet:
        for bucket, records in fleet.run_buckets(
            [items[i : i + size] for i in range(0, len(items), size)]
        ):
            for (key, _), record in zip(bucket, records):
                out[int(key)] = record
    return out


def _assert_matches_direct(records, points, tiny_platform):
    for point, record in zip(points, records):
        direct = _direct(point, tiny_platform)
        assert record["engine"] == direct.engine
        assert record["simulated"] == direct.aggregated.mean_overhead
        assert (
            record["disk_ckpts_per_hour"]
            == direct.aggregated.rates_per_hour["disk_checkpoints"]
        )


class TestParallelRunner:
    def test_single_worker_matches_sequential(self, tiny_platform):
        """Same root seed => identical aggregated results."""
        points = _points(tiny_platform, (42,), n_patterns=5, n_runs=8)
        result = run_campaign(points, n_workers=1)
        _assert_matches_direct(result.records, points, tiny_platform)

    def test_multi_worker_matches_sequential(self, tiny_platform):
        """Parallel fan-out preserves the per-point seed mapping."""
        points = _points(tiny_platform, (7, 8, 9), engine="fast")
        result = run_campaign(points, n_workers=2)
        _assert_matches_direct(result.records, points, tiny_platform)

    def test_invalid_runs(self, tiny_platform):
        with pytest.raises(ValueError, match="positive"):
            _points(tiny_platform, (1,), n_runs=0)


class TestStepEnginePool:
    """Step-tier points never pack: they reach the process pool as
    per-point chunks, and their records must not depend on the worker
    count or the bucket size."""

    def test_multi_worker_matches_sequential(self, tiny_platform):
        points = _points(tiny_platform, (7, 8, 9), engine="step")
        seq = run_campaign(points, n_workers=1)
        par = run_campaign(points, n_workers=2)
        assert {r["engine"] for r in par.records} == {"step"}
        assert par.n_packed == 0
        assert par.records == seq.records

    def test_chunked_matches_sequential(self, tiny_platform):
        points = _points(
            tiny_platform, range(17, 25), engine="step", n_runs=9
        )
        seq = run_campaign(points, n_workers=1)
        assert _fleet_records(points, 4) == seq.records

    def test_single_worker_in_process(self, tiny_platform, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("forked a worker pool for one worker")

        monkeypatch.setattr("repro.campaign.pool.EvalFleet", no_pool)
        points = _points(
            tiny_platform, (2, 3), engine="step", n_patterns=3, n_runs=4
        )
        result = run_campaign(points, n_workers=1)
        _assert_matches_direct(result.records, points, tiny_platform)


class TestChunkedRunner:
    def test_chunked_matches_sequential(self, tiny_platform):
        """Four-point buckets preserve the per-point seed mapping."""
        points = _points(
            tiny_platform, range(17, 25), engine="fast", n_runs=9
        )
        records = _fleet_records(points, 4)
        _assert_matches_direct(records, points, tiny_platform)
        seq = run_campaign(points, n_workers=1)
        assert records == seq.records

    def test_chunksize_one_matches_heuristic(self, tiny_platform):
        points = _points(
            tiny_platform, range(3, 12), engine="step", n_patterns=3
        )
        items = [(str(i), p) for i, p in enumerate(points)]
        planned = plan_buckets(items, DEFAULT_PACK_ROWS, workers=2)
        assert max(len(b) for b in planned) > 1
        heuristic = run_campaign(points, n_workers=2)
        assert _fleet_records(points, 1) == heuristic.records

    def test_default_chunksize_heuristic(self, chunk_sizes):
        assert chunk_sizes(8, 8) == [1] * 8  # small: one point per task
        assert max(chunk_sizes(1000, 4)) == 63  # ~4 tasks per worker
        assert chunk_sizes(0, 4) == []


class TestDefaultWorkers:
    @pytest.fixture
    def one_cpu(self, monkeypatch):
        """A process pinned to one CPU of an eight-CPU machine."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        monkeypatch.setattr(os, "cpu_count", lambda: 8)

    def test_pinned_process_runs_in_process(
        self, one_cpu, tiny_platform, monkeypatch
    ):
        """Step-tier points take the default pool size from the
        affinity mask: pinned to one CPU, no pool is forked."""

        def no_pool(*args, **kwargs):
            raise AssertionError("forked a worker pool on one CPU")

        monkeypatch.setattr("repro.campaign.pool.EvalFleet", no_pool)
        points = _points(tiny_platform, (7, 8), engine="step")
        result = run_campaign(points)
        _assert_matches_direct(result.records, points, tiny_platform)
