"""Self-retuning edge cases: the adaptive window never drops or duplicates.

With ``autotune`` on, :class:`MicroBatchScheduler` resets its own
window at every collection, so the window changes *while the scheduler
is batching*.  These tests pin the dangerous corners:

* the window falling to its floor mid-stream under concurrent load --
  answers keep flowing, each exactly once, equal to
  :func:`evaluate_point`;
* the window retuned while a slow batch is still evaluating -- the
  next wave rides the next cut under the new window, none lost, none
  evaluated twice;

with the accounting cross-checked end-to-end through ``/v1/stats`` on
a real daemon whose window moves during a replay
(``points == cache_hits + coalesced + computed`` and
``engine_points == computed`` -- the exactly-once ledger).
"""

import asyncio
import threading
import time

from repro.campaign.executor import evaluate_point, evaluate_points
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.loadgen.replay import WorkloadReplayer
from repro.loadgen.traces import make_trace
from repro.platforms.catalog import hera
from repro.service.client import ServiceClient
from repro.service.scheduler import (
    AUTOTUNE_WINDOW_CEIL_MS,
    AUTOTUNE_WINDOW_FLOOR_MS,
    MicroBatchScheduler,
)
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
        """The window falls to its floor mid-stream; answers keep flowing."""

        async def scenario():
            scheduler = MicroBatchScheduler(cache=None, autotune=True)
            await scheduler.start()
            try:
                # Three back-to-back 32-point bursts push the rate past
                # the knee...
                burst = []
                for wave in range(3):
                    burst += await asyncio.gather(
                        *(
                            scheduler.submit([_point(s)])
                            for s in range(32 * wave, 32 * (wave + 1))
                        )
                    )
                burst_window = scheduler.stats()["autotune"]["window_ms"]
                # ...then a trickle, one point per 200 ms, decays it to
                # the floor while requests are still arriving.
                trickle, windows = [], []
                for seed in range(96, 104):
                    await asyncio.sleep(0.2)
                    trickle.append(await scheduler.submit([_point(seed)]))
                    windows.append(scheduler.stats()["autotune"]["window_ms"])
                return burst + trickle, burst_window, windows, scheduler.stats()
            finally:
                await scheduler.close()

        results, burst_window, windows, stats = asyncio.run(scenario())
        assert len(results) == 104
        for seed, (keys, (record,)) in zip(range(104), results):
            assert record == evaluate_point(_point(seed))
        assert burst_window > AUTOTUNE_WINDOW_FLOOR_MS
        # Fed ever sparser samples, the window only ever shrinks...
        assert windows == sorted(windows, reverse=True)
        assert windows[0] <= burst_window
        # ...and ends on the floor, which config reports live.
        assert windows[-1] == AUTOTUNE_WINDOW_FLOOR_MS
        assert stats["config"]["batch_window_ms"] == AUTOTUNE_WINDOW_FLOOR_MS
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
        """A window retuned while the engine is busy never loses points."""
        windows = []  # (window at call start, window at call end)
        seen = []

        async def scenario():
            scheduler = None

            def slow_evaluate(points):
                start = scheduler.batch_window_ms
                time.sleep(0.1)
                seen.extend(p.seed for p in points)
                records = evaluate_points(points)
                windows.append((start, scheduler.batch_window_ms))
                return records

            scheduler = MicroBatchScheduler(
                cache=None, autotune=True, evaluate=slow_evaluate
            )
            await scheduler.start()

            async def wave(seeds, delay_s):
                await asyncio.sleep(delay_s)
                return await asyncio.gather(
                    *(scheduler.submit([_point(s)]) for s in seeds)
                )

            try:
                # Wave 1 cuts a batch that holds the (slow) engine;
                # wave 2 arrives 20 ms in, so its collection retunes
                # the window while batch 1 is still evaluating.
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
        # Two batches, one per wave; the first saw the window move
        # under it.
        assert len(windows) == 2
        (start1, end1), _ = windows
        assert end1 != start1
        for window in (start1, end1):
            assert (
                AUTOTUNE_WINDOW_FLOOR_MS <= window <= AUTOTUNE_WINDOW_CEIL_MS
            )
        assert sorted(seen) == list(range(40))
        counters = stats["counters"]
        assert counters["batches"] == 2
        assert counters["computed"] == 40
        assert counters["engine_points"] == 40
        assert _ledger_closes(counters)
        assert stats["queued"] == 0
        assert stats["inflight"] == 0


class TestStatsLedgerOverHTTP:
    def test_reconfigure_ledger_via_v1_stats(self, tmp_path):
        """The exactly-once ledger, asserted through a real daemon."""
        trace = make_trace(
            "bursty",
            rate=40.0,
            duration_s=1.5,
            seed=909,
            shock_factor=8.0,
            shock_decay_s=0.3,
        )
        windows = []
        done = threading.Event()

        with BackgroundService(
            cache_dir=str(tmp_path / "cache"), autotune=True
        ) as svc:
            # Read /v1/stats from another thread mid-replay, on its own
            # connection, to watch the window move under the load.
            def watch():
                with ServiceClient(port=svc.port) as watcher:
                    while not done.is_set():
                        windows.append(
                            watcher.stats()["autotune"]["window_ms"]
                        )
                        time.sleep(0.02)

            thread = threading.Thread(target=watch)
            thread.start()
            try:
                result = WorkloadReplayer(port=svc.port).run(trace)
            finally:
                done.set()
                thread.join()
            with ServiceClient(port=svc.port) as client:
                stats = client.stats()
        assert all(r.ok for r in result.requests)
        assert len(result.requests) == len(trace)
        # The window moved during the replay, inside its bounds.
        assert len(set(windows)) > 1
        for window in windows:
            assert (
                AUTOTUNE_WINDOW_FLOOR_MS <= window <= AUTOTUNE_WINDOW_CEIL_MS
            )
        assert stats["config"]["batch_window_ms"] == (
            stats["autotune"]["window_ms"]
        )
        # Exactly-once accounting while the window moves: every
        # submitted point is a cache hit, coalesced, or computed once.
        counters = stats["counters"]
        assert counters["requests"] == len(trace)
        assert counters["points"] == len(trace)
        assert _ledger_closes(counters)
        assert counters["engine_points"] == counters["computed"]
        assert stats["queued"] == 0
        assert stats["inflight"] == 0
