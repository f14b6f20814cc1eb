"""Campaign-level tests of packed execution, journal robustness and
chunk configuration.

The planner's contract: routing simulate points through packed
mega-batches is **invisible** in the results -- per-point records are
bit-identical to the per-point path, whatever the packing, the row
budget or the worker count -- so the journal and content-addressed cache
stay valid across execution strategies.  A golden fixture pins one
packed campaign's records across commits.
"""

from __future__ import annotations

import json
import math
import os

import pytest

from golden_util import (
    PACKED_CAMPAIGN_GOLDEN_PATH,
    packed_campaign_points,
)
from repro.campaign.cache import cache_key
from repro.campaign.executor import (
    DEFAULT_PACK_ROWS,
    evaluate_point,
    evaluate_points,
    run_campaign,
)
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.io import scan_jsonl
from repro.platforms.catalog import hera
from repro.platforms.platform import Platform, default_costs


def _tiny_platform_dict(**over):
    plat = Platform(
        name="tiny",
        nodes=2,
        lambda_f=over.pop("lambda_f", 4e-4),
        lambda_s=over.pop("lambda_s", 6e-4),
        costs=default_costs(C_D=18.0, C_M=2.5),
    )
    return platform_to_dict(plat)


def _points(engine="auto", seeds=(1, 2), kinds=("PD", "PDM", "PDMV")):
    plat = _tiny_platform_dict()
    return [
        ScenarioPoint(
            mode="simulate",
            kind=kind,
            platform=plat,
            n_patterns=8,
            n_runs=4,
            seed=seed,
            engine=engine,
        )
        for kind in kinds
        for seed in seeds
    ]


class TestPackingInvisibility:
    def test_packed_records_equal_per_point_records(self):
        points = packed_campaign_points()
        packed = evaluate_points(points)
        solo = [evaluate_point(p) for p in points]
        assert packed == solo

    def test_run_campaign_packing_is_invisible(self):
        points = _points()
        res = run_campaign(points, n_workers=1)
        assert res.records == [evaluate_point(p) for p in points]
        assert res.n_packed == len(points)

    def test_records_invariant_across_worker_counts(self):
        points = packed_campaign_points()
        one = run_campaign(points, n_workers=1)
        two = run_campaign(points, n_workers=2)
        assert one.records == two.records

    def test_records_invariant_across_pack_row_budgets(self):
        points = _points()
        whole = run_campaign(points, n_workers=1)
        # 8 * 4 = 32 rows per point: a 40-row budget forces one point per
        # mega-batch, the default packs the whole campaign together.
        split = run_campaign(points, n_workers=1, pack_rows=40)
        assert whole.records == split.records

    def test_mixed_modes_route_correctly(self):
        plat = _tiny_platform_dict()
        points = _points() + [
            ScenarioPoint(mode="optimize", kind="PDMV", platform=plat),
            ScenarioPoint(
                mode="simulate", kind="PD", platform=plat,
                engine="analytic",
            ),
        ]
        res = run_campaign(points, n_workers=1)
        assert res.n_packed == len(points) - 2
        assert res.records[-2]["mode"] == "optimize"
        assert res.records[-1]["engine"] == "analytic"

    def test_auto_pd_fail_stop_false_falls_back_to_fast_pd(self):
        point = ScenarioPoint(
            mode="simulate",
            kind="PD",
            platform=_tiny_platform_dict(),
            n_patterns=8,
            n_runs=4,
            seed=3,
            fail_stop_in_operations=False,
            engine="auto",
        )
        (packed_rec,) = evaluate_points([point])
        assert packed_rec["engine"] == "fast-pd"
        assert packed_rec == evaluate_point(point)

    def test_explicit_fast_requests_stay_per_point(self):
        points = _points(engine="fast")
        res = run_campaign(points, n_workers=1)
        assert res.n_packed == 0
        assert all(r["engine"] == "fast" for r in res.records)


class TestExplicitPackedEngine:
    def test_packed_engine_label_and_numbers_match_fast(self):
        auto = _points(engine="auto", seeds=(5,), kinds=("PDMV",))[0]
        packed = ScenarioPoint.from_dict(
            {**auto.to_dict(), "engine": "packed"}
        )
        rec_auto = evaluate_point(auto)
        rec_packed = evaluate_point(packed)
        assert rec_auto["engine"] == "fast"
        assert rec_packed["engine"] == "packed"
        for key, value in rec_auto.items():
            if key != "engine":
                assert rec_packed[key] == value, key

    def test_packed_cache_key_differs_and_carries_packed_version(self):
        auto = _points(engine="auto", seeds=(5,), kinds=("PDMV",))[0]
        packed = ScenarioPoint.from_dict(
            {**auto.to_dict(), "engine": "packed"}
        )
        assert cache_key(auto) != cache_key(packed)

    def test_solo_packed_point_equals_campaign_packed_point(self):
        point = _points(engine="packed", seeds=(7,), kinds=("PDM",))[0]
        (via_batch,) = evaluate_points([point])
        assert via_batch == evaluate_point(point)


class TestGoldenPackedCampaign:
    RTOL = 1e-12

    def test_matches_frozen_fixture(self):
        with open(PACKED_CAMPAIGN_GOLDEN_PATH) as fh:
            golden = json.load(fh)["records"]
        records = evaluate_points(packed_campaign_points())
        assert len(records) == len(golden)
        for i, (got_rec, want_rec) in enumerate(zip(records, golden)):
            assert set(got_rec) == set(want_rec), f"record {i} columns"
            for key, want in want_rec.items():
                got = got_rec[key]
                where = f"record {i} [{key}]"
                if isinstance(want, float) and isinstance(got, float):
                    if math.isnan(want):
                        assert math.isnan(got), where
                    else:
                        assert got == pytest.approx(
                            want, rel=self.RTOL
                        ), where
                else:
                    assert got == want, where


class TestJournalRobustness:
    def _run(self, points, journal, **kw):
        return run_campaign(points, journal_path=journal,
                            n_workers=1, **kw)

    def test_truncated_last_line_is_detected_and_recomputed(self, tmp_path):
        points = _points(seeds=(1,))
        journal = str(tmp_path / "j.jsonl")
        full = self._run(points, journal)
        assert full.n_computed == len(points)

        # Simulate a mid-write kill: the final line is half-written.
        lines = open(journal).read().splitlines()
        with open(journal, "w") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
            fh.write(lines[-1][: len(lines[-1]) // 2])

        resumed = self._run(points, journal)
        assert resumed.n_journal_corrupt == 1
        assert resumed.n_from_journal == len(points) - 1
        assert resumed.n_computed == 1
        assert resumed.records == full.records
        # The journal heals: the partial tail was removed, so a further
        # resume recomputes nothing and reports a clean file.
        healed = self._run(points, journal)
        assert healed.n_computed == 0
        assert healed.n_journal_corrupt == 0
        assert healed.records == full.records

    def test_corrupt_middle_line_is_skipped_not_fatal(self, tmp_path):
        points = _points(seeds=(1,))
        journal = str(tmp_path / "j.jsonl")
        full = self._run(points, journal)
        lines = open(journal).read().splitlines()
        lines[1] = '{"key": "broken...'
        with open(journal, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        resumed = self._run(points, journal)
        assert resumed.n_journal_corrupt == 1
        assert resumed.n_computed == 1
        assert resumed.records == full.records

    def test_non_record_json_line_counts_as_corrupt(self, tmp_path):
        points = _points(seeds=(1,), kinds=("PD",))
        journal = str(tmp_path / "j.jsonl")
        full = self._run(points, journal)
        with open(journal, "a") as fh:
            fh.write('["not", "a", "record"]\n')
        resumed = self._run(points, journal)
        assert resumed.n_journal_corrupt == 1
        assert resumed.records == full.records

    def test_scan_jsonl_reports_corrupt_count(self, tmp_path):
        path = str(tmp_path / "x.jsonl")
        with open(path, "w") as fh:
            fh.write('{"a": 1}\n')
            fh.write("\n")
            fh.write('{"b": 2}\n')
            fh.write('{"trunc')
        records, n_corrupt = scan_jsonl(path)
        assert records == [{"a": 1}, {"b": 2}]
        assert n_corrupt == 1


class TestChunkConfiguration:
    def test_invalid_scalars_raise(self):
        points = _points(seeds=(1,), kinds=("PD",))
        for kw in (
            {"n_workers": 0},
            {"pack_rows": 0},
        ):
            with pytest.raises(ValueError):
                run_campaign(points, **kw)

    def test_planner_never_strands_workers(self, chunk_sizes):
        # The derived chunk size always yields min(points, workers)
        # chunks or more, so no worker of the pool sits idle.
        for workers in (1, 2, 3, 8):
            for n in (1, 5, 6, 31, 200, 1000):
                assert len(chunk_sizes(n, workers)) >= min(n, workers)
        points = _points(engine="fast")
        assert len(points) == 6
        res = run_campaign(points, n_workers=3)
        assert res.records == [evaluate_point(p) for p in points]

    def test_max_chunk_caps_heuristic(self, chunk_sizes):
        assert max(chunk_sizes(10_000, 1)) == 64

    def test_default_pack_rows_is_sane(self):
        assert DEFAULT_PACK_ROWS >= 10_000


class TestCliFlags:
    def test_campaign_accepts_pack_flags(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "campaign", "run",
                "--scenario", "family_comparison",
                "--set", 'kinds=["PD","PDM"]',
                "--patterns", "6", "--runs", "3",
                "--workers", "1",
                "--pack-rows", "100000",
            ]
        )
        assert rc == 0
        assert "PD" in capsys.readouterr().out

    def test_campaign_rejects_bad_chunk_configuration(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="configuration error"):
            main(
                [
                    "campaign", "run",
                    "--scenario", "family_comparison",
                    "--patterns", "4", "--runs", "2",
                    "--engine", "fast",
                    "--workers", "3", "--pack-rows", "0",
                ]
            )


def test_evaluate_points_handles_duplicate_configs_once():
    """The chunk-level builds memo must not change results."""
    point = _points(seeds=(9,), kinds=("PDMV",))[0]
    twin = ScenarioPoint.from_dict(point.to_dict())
    a, b = evaluate_points([point, twin])
    assert a == b
    assert a == evaluate_point(point)
