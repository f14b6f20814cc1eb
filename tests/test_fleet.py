"""Process-fleet evaluation: bit-identity, planning, stats, HTTP.

The load-bearing assertion: :class:`~repro.campaign.pool.EvalFleet`
records are **bit-identical** to solo
:func:`~repro.campaign.executor.evaluate_point` runs under *any*
worker count -- ``tier_rng``'s placement-invariant per-point streams
make the fleet size invisible in the results, so ``--eval-procs``
changes throughput and nothing else.
"""

import pytest

from repro.campaign.executor import evaluate_point
from repro.campaign.pool import EvalFleet
from repro.service.client import ServiceClient
from repro.service.protocol import point_from_request
from repro.service.server import BackgroundService


def _points(n=6, **overrides):
    kinds = ["PD", "PDV", "PDM", "PDMV", "PDV*", "PDMV*"]
    points = []
    for i in range(n):
        base = dict(
            mode="simulate",
            kind=kinds[i % len(kinds)],
            platform="hera",
            n_patterns=2,
            n_runs=2,
            seed=31000 + i,
        )
        base.update(overrides)
        points.append(point_from_request(base))
    return points


class TestEvalFleetUnit:
    def test_bit_identity_across_worker_counts(self):
        """THE invariant: 1, 2 and 4 workers -> identical records."""
        points = _points()
        solo = [evaluate_point(p) for p in points]
        for procs in (1, 2, 4):
            with EvalFleet(procs, pack_rows=4) as fleet:
                assert fleet.evaluate(points) == solo

    def test_budget_shrinks_to_spread_one_batch(self):
        """A batch far under pack_rows still splits across workers."""
        points = _points(4)  # 4 rows each, 16 total
        with EvalFleet(2, pack_rows=10**6) as fleet:
            records = fleet.evaluate(points)
            counters = fleet.stats()["counters"]
        assert records == [evaluate_point(p) for p in points]
        # ceil(16 / 2) = 8-row budget -> more than one bucket.
        assert counters["buckets"] >= 2
        assert counters["max_bucket_rows"] <= 8

    def test_explicit_tier_points_spread_across_workers(self):
        """Non-packable points are chunked per worker, not one bucket."""
        points = _points(8, engine="fast")
        with EvalFleet(2) as fleet:
            records = fleet.evaluate(points)
            counters = fleet.stats()["counters"]
        assert records == [evaluate_point(p) for p in points]
        assert counters["buckets"] >= 2

    def test_duplicate_points_reassemble_by_position(self):
        point = _points(1)[0]
        solo = evaluate_point(point)
        with EvalFleet(2, pack_rows=4) as fleet:
            assert fleet.evaluate([point, point]) == [solo, solo]

    def test_empty_batch(self):
        with EvalFleet(1) as fleet:
            assert fleet.evaluate([]) == []
            assert fleet.stats()["counters"]["batches"] == 0

    def test_stats_counters(self):
        points = _points(3)  # 4 rows each
        with EvalFleet(2, pack_rows=8) as fleet:
            fleet.evaluate(points)
            stats = fleet.stats()
        assert stats["procs"] == 2
        assert stats["pack_rows"] == 8
        assert stats["counters"]["batches"] == 1
        assert stats["counters"]["points"] == 3
        assert stats["counters"]["rows"] == 12
        assert stats["counters"]["buckets"] >= 1
        assert stats["counters"]["max_batch_buckets"] >= 1

    def test_validation(self):
        with pytest.raises(ValueError, match="procs"):
            EvalFleet(0)
        with pytest.raises(ValueError, match="pack_rows"):
            EvalFleet(1, pack_rows=0)

    def test_closed_fleet_refuses_work(self):
        fleet = EvalFleet(1)
        fleet.close()
        fleet.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            fleet.evaluate(_points(1))


@pytest.fixture(scope="class")
def fleet_service(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("fleet-cache"))
    with BackgroundService(
        cache_dir=cache_dir, eval_procs=2, batch_window_ms=0
    ) as svc:
        yield svc


@pytest.fixture
def fleet_client(fleet_service):
    with ServiceClient(port=fleet_service.port) as c:
        yield c


class TestFleetService:
    """``repro serve --eval-procs 2`` end to end, over real sockets."""

    def test_record_matches_solo_simulate(self, fleet_client):
        request = dict(
            mode="simulate",
            kind="PDMV",
            platform="hera",
            n_patterns=6,
            n_runs=3,
            seed=20160601,
        )
        record = fleet_client.evaluate_one(request)
        assert record == evaluate_point(point_from_request(request))

    def test_mixed_batch_matches_solo(self, fleet_client):
        points = _points(6, seed=32000)
        result = fleet_client.evaluate(points)
        assert result.n_failed == 0
        assert result.records == [evaluate_point(p) for p in points]

    def test_stats_expose_fleet_evaluator(self, fleet_client):
        fleet_client.evaluate_one(_points(1)[0])
        stats = fleet_client.stats()
        evaluator = stats["evaluator"]
        assert evaluator["procs"] == 2
        assert evaluator["counters"]["points"] >= 1
        assert evaluator["counters"]["rows"] >= 1
        # This daemon runs without admission control.
        assert stats["admission"] == {"enabled": False}

    def test_repeat_query_answered_from_cache(self, fleet_service):
        """The tiered cache still fronts the fleet: repeats cost nothing."""
        point = _points(1, seed=33000)[0]
        with ServiceClient(port=fleet_service.port) as c:
            first = c.evaluate_one(point)
            before = fleet_service.fleet.stats()["counters"]["points"]
            second = c.evaluate_one(point)
            after = fleet_service.fleet.stats()["counters"]["points"]
        assert first == second
        assert after == before  # no fleet work for a cached answer
