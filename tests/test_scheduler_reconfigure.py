"""Batching when busy: a window-0 scheduler never drops or duplicates.

At ``batch_window_ms=0`` :class:`MicroBatchScheduler` dispatches a lone
point at once and batches whatever queues while its one evaluation
slot is busy, so batch boundaries follow the load.  These tests pin the
dangerous corners:

* concurrent bursts and a trickle -- answers keep flowing, each exactly
  once, equal to :func:`evaluate_point`;
* a wave arriving while a slow batch is still evaluating -- it rides
  the next batch, none lost, none evaluated twice, and the two batches
  never overlap;

with the accounting cross-checked end-to-end through ``/v1/stats`` on
a real window-0 daemon during a bursty replay
(``points == cache_hits + coalesced + computed`` and
``engine_points == computed`` -- the exactly-once ledger), whose
answers equal :func:`evaluate_point` bit for bit.
"""

import asyncio
import time

from repro.campaign.executor import evaluate_point, evaluate_points
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.loadgen.replay import WorkloadReplayer
from repro.loadgen.traces import make_trace
from repro.platforms.catalog import hera
from repro.service.client import ServiceClient
from repro.service.protocol import point_from_request
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundService

PLATFORM = platform_to_dict(hera())


def _point(seed):
    return ScenarioPoint(
        mode="simulate",
        kind="PDMV",
        platform=PLATFORM,
        n_patterns=4,
        n_runs=3,
        seed=seed,
    )


def _ledger_closes(counters):
    return counters["points"] == (
        counters["cache_hits"] + counters["coalesced"] + counters["computed"]
    )


class TestZeroWindow:
    def test_reconfigure_to_zero_window_under_load(self):
        """Bursts and a trickle through a window-0 scheduler."""
        seen = []

        def counting_evaluate(points):
            seen.extend(p.seed for p in points)
            return evaluate_points(points)

        async def scenario():
            scheduler = MicroBatchScheduler(
                cache=None, batch_window_ms=0, evaluate=counting_evaluate
            )
            await scheduler.start()

            async def late(seed):
                # Staggered arrivals: some land while a batch runs.
                await asyncio.sleep(0.0005 * (seed % 7))
                return await scheduler.submit([_point(seed)])

            try:
                burst = []
                for wave in range(3):
                    burst += await asyncio.gather(
                        *(late(s) for s in range(32 * wave, 32 * (wave + 1)))
                    )
                trickle = []
                for seed in range(96, 104):
                    await asyncio.sleep(0.02)
                    trickle.append(await scheduler.submit([_point(seed)]))
                return burst + trickle, scheduler.stats()
            finally:
                await scheduler.close()

        results, stats = asyncio.run(scenario())
        assert len(results) == 104
        for seed, (keys, (record,)) in zip(range(104), results):
            assert record == evaluate_point(_point(seed))
        assert sorted(seen) == list(range(104))
        assert stats["config"]["batch_window_ms"] == 0
        counters = stats["counters"]
        assert counters["computed"] == 104
        assert counters["engine_points"] == 104
        assert counters["coalesced"] == 0
        assert _ledger_closes(counters)
        assert stats["queued"] == 0
        assert stats["queued_rows"] == 0
        assert stats["inflight"] == 0


class TestReconfigureWhileDraining:
    def test_retune_during_slow_batch(self):
        """A wave arriving mid-batch rides the next batch, after it."""
        calls = []  # (start, end, seeds) per evaluate call

        def slow_evaluate(points):
            start = time.perf_counter()
            time.sleep(0.1)
            records = evaluate_points(points)
            calls.append(
                (start, time.perf_counter(), [p.seed for p in points])
            )
            return records

        async def scenario():
            scheduler = MicroBatchScheduler(
                cache=None, batch_window_ms=0, evaluate=slow_evaluate
            )
            await scheduler.start()

            async def wave(seeds, delay_s):
                await asyncio.sleep(delay_s)
                return await asyncio.gather(
                    *(scheduler.submit([_point(s)]) for s in seeds)
                )

            try:
                # Wave 1 cuts a batch that holds the (slow) engine;
                # wave 2 arrives 20 ms in and queues behind it.
                waves = await asyncio.gather(
                    wave(range(32), 0.0), wave(range(32, 40), 0.02)
                )
                return [r for w in waves for r in w], scheduler.stats()
            finally:
                await scheduler.close()

        results, stats = asyncio.run(scenario())
        assert len(results) == 40
        for seed, (keys, (record,)) in zip(range(40), results):
            assert record == evaluate_point(_point(seed))
        # Two batches, one per wave, the second started after the
        # first ended.
        assert [seeds for _, _, seeds in calls] == [
            list(range(32)), list(range(32, 40))
        ]
        (_, end1, _), (start2, _, _) = calls
        assert start2 >= end1
        counters = stats["counters"]
        assert counters["batches"] == 2
        assert counters["computed"] == 40
        assert counters["engine_points"] == 40
        assert _ledger_closes(counters)
        assert stats["queued"] == 0
        assert stats["inflight"] == 0


class TestStatsLedgerOverHTTP:
    def test_reconfigure_ledger_via_v1_stats(self, tmp_path):
        """Exactly-once and bit-identical through a window-0 daemon."""
        trace = make_trace(
            "bursty",
            rate=40.0,
            duration_s=1.5,
            seed=909,
            shock_factor=8.0,
            shock_decay_s=0.3,
        )
        with BackgroundService(
            cache_dir=str(tmp_path / "cache"), batch_window_ms=0
        ) as svc:
            result = WorkloadReplayer(port=svc.port).run(trace)
            with ServiceClient(port=svc.port) as client:
                stats = client.stats()
        assert all(r.ok for r in result.requests)
        assert len(result.requests) == len(trace)
        for event, answer in zip(trace, result.result_records()):
            assert answer == [evaluate_point(point_from_request(event.point))]
        assert stats["config"]["batch_window_ms"] == 0
        # Exactly-once accounting: every submitted point is a cache
        # hit, coalesced, or computed once.
        counters = stats["counters"]
        assert counters["requests"] == len(trace)
        assert counters["points"] == len(trace)
        assert _ledger_closes(counters)
        assert counters["engine_points"] == counters["computed"]
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
