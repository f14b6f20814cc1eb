"""Executor tests: cache/journal provenance, resume, and equivalence
of campaign results with direct Monte-Carlo calls."""

import json
import os

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.executor import (
    available_cpus,
    default_chunksize,
    evaluate_point,
    run_campaign,
)
from repro.campaign.report import journal_records
from repro.campaign.spec import CampaignSpec, ScenarioPoint, platform_to_dict
from repro.core.builders import PatternKind
from repro.simulation.runner import simulate_optimal_pattern


def _points(tiny_platform, kinds=("PD", "PDM", "PDMV"), seed=13):
    pdict = platform_to_dict(tiny_platform)
    return [
        ScenarioPoint(
            mode="simulate",
            kind=kind,
            platform=pdict,
            n_patterns=3,
            n_runs=3,
            seed=seed,
            labels={"pattern": kind},
        )
        for kind in kinds
    ]


class TestChunksize:
    def test_small_campaign_full_parallelism(self):
        assert default_chunksize(4, 8) == 1

    def test_large_campaign_batches(self):
        assert default_chunksize(1000, 4) == 63

    def test_capped(self):
        assert default_chunksize(100_000, 2) == 64

    def test_degenerate(self):
        assert default_chunksize(0, 4) == 1


class TestEngineRouting:
    def test_record_carries_resolved_engine(self, tiny_platform):
        point = _points(tiny_platform, kinds=("PDMV",))[0]
        record = evaluate_point(point)
        assert record["engine"] == "fast"

    def test_forced_step_engine(self, tiny_platform):
        from repro.campaign.spec import ScenarioPoint

        point = ScenarioPoint.from_dict(
            {**_points(tiny_platform, kinds=("PD",))[0].to_dict(),
             "engine": "step"}
        )
        record = evaluate_point(point)
        assert record["engine"] == "step"


class TestEquivalence:
    """Campaign records equal direct run_monte_carlo with the same seeds."""

    @pytest.mark.parametrize("kind", ["PD", "PDV", "PDM", "PDMV"])
    def test_point_matches_direct_call(self, tiny_platform, kind):
        point = _points(tiny_platform, kinds=(kind,), seed=99)[0]
        record = evaluate_point(point)
        direct = simulate_optimal_pattern(
            point.build_kind(),
            tiny_platform,
            n_patterns=3,
            n_runs=3,
            seed=99,
        )
        assert record["simulated"] == direct.aggregated.mean_overhead
        assert record["predicted"] == direct.predicted_overhead
        assert (
            record["verifs_per_hour"]
            == direct.aggregated.rates_per_hour["verifications"]
        )

    def test_campaign_matches_direct_calls(self, tiny_platform):
        points = _points(tiny_platform)
        result = run_campaign(points, n_workers=1)
        for point, record in zip(points, result.records):
            direct = simulate_optimal_pattern(
                point.build_kind(),
                tiny_platform,
                n_patterns=point.n_patterns,
                n_runs=point.n_runs,
                seed=point.seed,
            )
            assert record["simulated"] == direct.aggregated.mean_overhead

    def test_parallel_matches_sequential(self, tiny_platform):
        points = _points(tiny_platform)
        seq = run_campaign(points, n_workers=1)
        par = run_campaign(points, n_workers=2, chunksize=2)
        assert seq.records == par.records

    def test_journal_round_trip_is_exact(self, tiny_platform, tmp_path):
        """JSON journaling must not perturb a single bit of any value."""
        points = _points(tiny_platform)
        fresh = run_campaign(points, n_workers=1)
        journal = str(tmp_path / "j.jsonl")
        run_campaign(points, journal_path=journal, n_workers=1)
        resumed = run_campaign(points, journal_path=journal, n_workers=1)
        assert resumed.n_computed == 0
        assert resumed.records == fresh.records


class TestCacheIntegration:
    def test_cold_then_warm(self, tiny_platform, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        points = _points(tiny_platform)
        cold = run_campaign(points, cache=cache, n_workers=1)
        assert cold.n_computed == len(points)
        warm = run_campaign(points, cache=cache, n_workers=1)
        assert warm.n_computed == 0
        assert warm.n_from_cache == len(points)
        assert warm.records == cold.records

    def test_cache_shared_across_overlapping_campaigns(
        self, tiny_platform, tmp_path
    ):
        cache = ResultCache(str(tmp_path / "c"))
        run_campaign(
            _points(tiny_platform, kinds=("PD", "PDM")),
            cache=cache,
            n_workers=1,
        )
        # Different campaign, different labels, overlapping configurations.
        overlapping = [
            ScenarioPoint.from_dict(
                {**p.to_dict(), "labels": {"other": True}}
            )
            for p in _points(tiny_platform, kinds=("PDM", "PDMV"))
        ]
        second = run_campaign(overlapping, cache=cache, n_workers=1)
        assert second.n_from_cache == 1  # PDM reused
        assert second.n_computed == 1  # PDMV fresh
        assert all(r["other"] is True for r in second.records)

    def test_cache_accepts_directory_path(self, tiny_platform, tmp_path):
        points = _points(tiny_platform, kinds=("PD",))
        root = str(tmp_path / "c")
        run_campaign(points, cache=root, n_workers=1)
        warm = run_campaign(points, cache=root, n_workers=1)
        assert warm.n_from_cache == 1

    def test_duplicate_points_computed_once(self, tiny_platform):
        point = _points(tiny_platform, kinds=("PD",))[0]
        twin = ScenarioPoint.from_dict(
            {**point.to_dict(), "labels": {"copy": 2}}
        )
        result = run_campaign([point, twin], n_workers=1)
        assert result.n_computed == 1
        assert result.records[0]["simulated"] == result.records[1]["simulated"]
        assert result.records[1]["copy"] == 2


class TestResume:
    def test_interrupted_campaign_resumes_without_recompute(
        self, tiny_platform, tmp_path, monkeypatch
    ):
        """Kill mid-campaign (simulated by truncating the journal), re-run,
        and verify only the missing points are recomputed."""
        points = _points(tiny_platform, kinds=("PD", "PDM", "PDMV"))
        journal = str(tmp_path / "j.jsonl")
        full = run_campaign(points, journal_path=journal, n_workers=1)
        assert full.n_computed == 3

        # Simulate a kill after two completed points: keep two journal
        # lines plus a truncated third (a partially-written line).
        lines = open(journal).read().splitlines()
        with open(journal, "w") as fh:
            fh.write("\n".join(lines[:2]) + "\n")
            fh.write(lines[2][: len(lines[2]) // 2])

        computed = []
        import repro.campaign.executor as executor_mod

        real_points = executor_mod.evaluate_points

        def spy_points(points_):
            computed.extend(p.kind for p in points_)
            return real_points(points_)

        monkeypatch.setattr(
            "repro.campaign.executor.evaluate_points", spy_points
        )
        resumed = run_campaign(points, journal_path=journal, n_workers=1)
        assert computed == ["PDMV"]  # only the lost point
        assert resumed.n_from_journal == 2
        assert resumed.n_computed == 1
        assert resumed.records == full.records

    def test_complete_journal_never_reevaluates(
        self, tiny_platform, tmp_path, monkeypatch
    ):
        points = _points(tiny_platform, kinds=("PD", "PDM"))
        journal = str(tmp_path / "j.jsonl")
        run_campaign(points, journal_path=journal, n_workers=1)

        def boom(point):  # pragma: no cover - must not run
            raise AssertionError("recomputed a journaled point")

        monkeypatch.setattr("repro.campaign.executor.evaluate_point", boom)
        resumed = run_campaign(points, journal_path=journal, n_workers=1)
        assert resumed.n_from_journal == 2

    def test_journal_contents(self, tiny_platform, tmp_path):
        points = _points(tiny_platform, kinds=("PD",))
        journal = str(tmp_path / "j.jsonl")
        result = run_campaign(points, journal_path=journal, n_workers=1)
        recorded = journal_records(journal)
        assert set(recorded) == set(result.keys)
        # Journal records exclude presentation labels.
        assert "pattern" not in recorded[result.keys[0]]

    def test_resume_also_populates_cache(self, tiny_platform, tmp_path):
        """A journaled point seen again with a cache attached stays
        journal-sourced; a cached point missing from the journal is
        re-journaled without recomputation."""
        points = _points(tiny_platform, kinds=("PD", "PDM"))
        cache = ResultCache(str(tmp_path / "c"))
        run_campaign(points, cache=cache, n_workers=1)
        journal = str(tmp_path / "j.jsonl")
        result = run_campaign(
            points, cache=cache, journal_path=journal, n_workers=1
        )
        assert result.n_from_cache == 2
        assert result.n_computed == 0
        assert set(journal_records(journal)) == set(result.keys)


class TestValidation:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError, match="no scenario points"):
            run_campaign([])

    def test_spec_expansion(self, tiny_platform):
        spec = CampaignSpec(
            name="s",
            scenario="family_comparison",
            params={
                "platform": platform_to_dict(tiny_platform),
                "kinds": ["PD", "PDMV"],
            },
            n_patterns=2,
            n_runs=2,
            seed=3,
        )
        result = run_campaign(spec, n_workers=1)
        assert result.spec is spec
        assert [r["pattern"] for r in result.records] == ["PD", "PDMV"]

    def test_optimize_mode_records(self, tiny_platform):
        point = ScenarioPoint(
            mode="optimize",
            kind="PDMV",
            platform=platform_to_dict(tiny_platform),
        )
        record = evaluate_point(point)
        assert record["mode"] == "optimize"
        assert "simulated" not in record
        assert record["H*"] > 0 and record["n*"] >= 1


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

    def test_worker_count_capped_at_points(self, tiny_platform, monkeypatch):
        """Explicit workers beyond the outstanding points fork one
        process per point, no more."""
        import repro.campaign.executor as executor_mod

        sizes = []
        real_pool = executor_mod.ProcessPoolExecutor

        def spy_pool(max_workers):
            sizes.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(
            "repro.campaign.executor.ProcessPoolExecutor", spy_pool
        )
        points = _points(tiny_platform)
        result = run_campaign(points, n_workers=64)
        assert sizes == [len(points)]
        assert result.records == run_campaign(points, n_workers=1).records

    def test_pinned_process_evaluates_in_process(
        self, one_cpu, tiny_platform, monkeypatch
    ):
        """The default pool size follows the affinity mask, not the
        machine's CPU count: pinned to one CPU, no pool is forked."""

        def no_pool(*args, **kwargs):
            raise AssertionError("forked a worker pool on one CPU")

        monkeypatch.setattr(
            "repro.campaign.executor.ProcessPoolExecutor", no_pool
        )
        points = _points(tiny_platform)
        result = run_campaign(points)
        assert result.n_computed == len(points)
        assert result.records == run_campaign(points, n_workers=1).records
