"""Cross-path differential test: every batch path gives per-point records.

One mixed point list -- packable ``auto`` points in two Monte-Carlo
shapes, an ``auto`` PD point that falls back to ``fast-pd``, explicit
``fast`` and ``step`` points, analytic and optimize points, and a
duplicate -- runs through the batch evaluator, the campaign executor
(serial and pooled) and the process fleet (planned, and one point per
bucket).
Each must return exactly ``[evaluate_point(p) for p in points]``, with
the point labels merged in where the path adds them; the shared planner
must put every item in exactly one bucket.
"""

from __future__ import annotations

import pytest

from repro.campaign.executor import (
    evaluate_point,
    evaluate_points,
    run_campaign,
)
from repro.campaign.planner import plan_buckets
from repro.campaign.pool import EvalFleet
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.platforms.platform import Platform, default_costs


def _platform(lambda_f=4e-4):
    return platform_to_dict(
        Platform(
            name="tiny",
            nodes=2,
            lambda_f=lambda_f,
            lambda_s=6e-4,
            costs=default_costs(C_D=18.0, C_M=2.5),
        )
    )


def _mixed_points():
    plat = _platform()

    def sim(kind, seed, engine="auto", n_patterns=6, n_runs=3, **kw):
        return ScenarioPoint(
            mode="simulate", kind=kind, platform=plat,
            n_patterns=n_patterns, n_runs=n_runs, seed=seed,
            engine=engine, labels={"case": f"{kind}-{engine}-{seed}"},
            **kw,
        )

    points = [
        sim("PD", 1),
        sim("PDM", 2),
        sim("PDMV", 3),
        sim("PDMV*", 4, n_patterns=4, n_runs=2),
        sim("PDV*", 5, n_patterns=4, n_runs=2),
        sim("PD", 6, fail_stop_in_operations=False),
        sim("PDM", 7, engine="fast"),
        sim("PDMV", 8, engine="fast"),
        sim("PDMV", 9, engine="step", n_patterns=2, n_runs=2),
        ScenarioPoint(mode="simulate", kind="PD", platform=plat,
                      engine="analytic"),
        ScenarioPoint(mode="simulate", kind="PD", platform=_platform(2e-4),
                      engine="analytic"),
        ScenarioPoint(mode="simulate", kind="PDMV", platform=plat,
                      engine="analytic"),
        ScenarioPoint(mode="optimize", kind="PDM", platform=plat),
    ]
    # A duplicate configuration under a different label.
    twin = points[1].to_dict()
    twin["labels"] = {"case": "twin"}
    points.append(ScenarioPoint.from_dict(twin))
    return points


@pytest.fixture(scope="module")
def points():
    return _mixed_points()


@pytest.fixture(scope="module")
def expected(points):
    return [evaluate_point(p) for p in points]


def test_mix_covers_every_route(expected):
    engines = [rec.get("engine") for rec in expected]
    for engine in ("fast", "fast-pd", "step", "analytic"):
        assert engine in engines
    assert any(rec["mode"] == "optimize" for rec in expected)


def test_evaluate_points_matches_per_point(points, expected):
    assert evaluate_points(points) == expected


@pytest.mark.parametrize(
    "kwargs",
    [
        {"n_workers": 1},
        {"n_workers": 2},
    ],
    ids=["serial", "two-workers"],
)
def test_run_campaign_matches_per_point(points, expected, kwargs):
    result = run_campaign(points, **kwargs)
    assert result.records == [
        {**dict(p.labels), **rec} for p, rec in zip(points, expected)
    ]


def test_fleet_matches_per_point(points, expected):
    with EvalFleet(2) as fleet:
        assert fleet.evaluate(points) == expected


def test_one_point_buckets_match_per_point(points, expected):
    out = [None] * len(points)
    with EvalFleet(2) as fleet:
        for bucket, records in fleet.run_buckets(
            [[(str(i), p)] for i, p in enumerate(points)]
        ):
            ((key, _),) = bucket
            (out[int(key)],) = records
    assert out == expected


def test_planner_partitions_items(points):
    items = [(str(i), p) for i, p in enumerate(points)]
    for workers in (1, 2, 3):
        for pack_rows in (1, 20, 10**6):
            buckets = plan_buckets(items, pack_rows, workers=workers)
            assert all(buckets)
            planned = sorted(
                int(key) for bucket in buckets for key, _ in bucket
            )
            assert planned == list(range(len(points)))
