"""Micro-batching scheduler: coalescing, batching, golden equivalence.

The load-bearing assertions of the service layer live here:

* N concurrent identical requests produce exactly ONE engine
  invocation (an instrumented evaluate counter, not timing);
* scheduler records are bit-identical to :func:`evaluate_point` --
  i.e. to what solo CLI runs and batch campaigns produce -- for a
  mixed analytic/simulate/optimize batch.
"""

import asyncio
import threading

import pytest

from repro.campaign.cache import ResultCache, cache_key
from repro.campaign.executor import evaluate_point, evaluate_points
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.service.memcache import LRUCache, TieredCache
from repro.service.scheduler import MicroBatchScheduler


class CountingEvaluate:
    """The real batch evaluation, instrumented for dispatch assertions."""

    def __init__(self, fail_first=False):
        self.calls = 0
        self.points = 0
        self.batch_sizes = []
        self._fail_first = fail_first

    def __call__(self, points):
        self.calls += 1
        if self._fail_first:
            self._fail_first = False
            raise ValueError("injected engine failure")
        self.points += len(points)
        self.batch_sizes.append(len(points))
        return evaluate_points(points)


def _point(platform, **overrides):
    base = dict(
        mode="simulate",
        kind="PDMV",
        platform=platform_to_dict(platform),
        n_patterns=4,
        n_runs=3,
        seed=11,
    )
    base.update(overrides)
    return ScenarioPoint(**base)


def _run(coro):
    return asyncio.run(coro)


async def _with_scheduler(fn, **kwargs):
    kwargs.setdefault("cache", TieredCache(LRUCache()))
    scheduler = MicroBatchScheduler(**kwargs)
    await scheduler.start()
    try:
        return await fn(scheduler)
    finally:
        await scheduler.close()


class TestCoalescing:
    def test_concurrent_identical_requests_one_engine_invocation(
        self, tiny_platform
    ):
        """Eight concurrent identical queries -> one computation."""
        counting = CountingEvaluate()
        point = _point(tiny_platform)

        async def scenario(scheduler):
            results = await asyncio.gather(
                *(scheduler.submit([point]) for _ in range(8))
            )
            return results, scheduler.stats()

        results, stats = _run(
            _with_scheduler(scenario, evaluate=counting)
        )
        assert counting.calls == 1
        assert counting.points == 1
        records = [records[0] for _, records in results]
        assert all(rec == records[0] for rec in records)
        counters = stats["counters"]
        assert counters["computed"] == 1
        assert counters["engine_points"] == 1
        assert counters["coalesced"] + counters["cache_hits"] == 7

    def test_coalesced_records_are_bit_identical_to_solo(
        self, tiny_platform
    ):
        point = _point(tiny_platform)
        solo = evaluate_point(point)

        async def scenario(scheduler):
            results = await asyncio.gather(
                *(scheduler.submit([point]) for _ in range(4))
            )
            return [records[0] for _, records in results]

        for record in _run(_with_scheduler(scenario)):
            assert record == solo

    def test_duplicates_within_one_request(self, tiny_platform):
        """Same key, different labels: one computation, labels merged."""
        counting = CountingEvaluate()
        point = _point(tiny_platform)
        labeled = _point(tiny_platform, labels={"row": 3})

        async def scenario(scheduler):
            return await scheduler.submit([point, labeled, point])

        keys, records = _run(
            _with_scheduler(scenario, evaluate=counting)
        )
        assert counting.points == 1
        assert keys[0] == keys[1] == keys[2]
        assert records[0] == records[2]
        assert records[1] == {"row": 3, **records[0]}


class TestGoldenEquivalence:
    def test_mixed_batch_matches_solo_records(
        self, tiny_platform, hera_platform
    ):
        """Analytic + simulate + optimize in one batch == solo runs."""
        points = [
            _point(tiny_platform, labels={"arm": "mc"}),
            _point(tiny_platform, kind="PD", seed=5),
            ScenarioPoint(
                mode="simulate",
                kind="PDV",
                platform=platform_to_dict(hera_platform),
                engine="analytic",
            ),
            ScenarioPoint(
                mode="optimize",
                kind="PDM",
                platform=platform_to_dict(hera_platform),
            ),
        ]

        async def scenario(scheduler):
            return await scheduler.submit(points)

        keys, records = _run(_with_scheduler(scenario))
        assert keys == [cache_key(p) for p in points]
        for point, record in zip(points, records):
            assert record == {**dict(point.labels), **evaluate_point(point)}

    def test_cached_and_computed_answers_are_identical(
        self, tiny_platform
    ):
        counting = CountingEvaluate()
        point = _point(tiny_platform)

        async def scenario(scheduler):
            _, first = await scheduler.submit([point])
            _, second = await scheduler.submit([point])
            return first[0], second[0], scheduler.stats()

        first, second, stats = _run(
            _with_scheduler(scenario, evaluate=counting)
        )
        assert counting.calls == 1
        assert first == second
        assert stats["counters"]["cache_hits"] == 1

    def test_disk_tier_serves_campaign_warmed_results(
        self, tiny_platform, tmp_path
    ):
        """A daemon sharing --cache-dir answers from campaign entries."""
        counting = CountingEvaluate()
        point = _point(tiny_platform)
        disk = ResultCache(str(tmp_path))
        disk.put(cache_key(point), evaluate_point(point))

        async def scenario(scheduler):
            return await scheduler.submit([point])

        _, records = _run(
            _with_scheduler(
                scenario,
                cache=TieredCache(LRUCache(), disk),
                evaluate=counting,
            )
        )
        assert counting.calls == 0
        assert records[0] == evaluate_point(point)


class TestBatching:
    def test_pack_rows_splits_batches(self, tiny_platform):
        counting = CountingEvaluate()
        points = [_point(tiny_platform, seed=s) for s in (1, 2, 3)]

        async def scenario(scheduler):
            await scheduler.submit(points)
            return scheduler.stats()

        # Each point carries 12 rows; a 1-row budget forces one batch
        # per point (a batch always takes at least one point).
        stats = _run(
            _with_scheduler(
                scenario, evaluate=counting, pack_rows=1
            )
        )
        assert counting.batch_sizes == [1, 1, 1]
        assert stats["counters"]["batches"] == 3

    def test_one_request_batch_evaluates_together(self, tiny_platform):
        counting = CountingEvaluate()
        points = [_point(tiny_platform, seed=s) for s in (1, 2, 3)]

        async def scenario(scheduler):
            await scheduler.submit(points)

        _run(_with_scheduler(scenario, evaluate=counting))
        assert counting.batch_sizes == [3]

    def test_full_row_budget_cuts_window_short(self, tiny_platform):
        """A filled row budget dispatches without waiting the window."""
        counting = CountingEvaluate()
        points = [_point(tiny_platform, seed=s) for s in (1, 2)]

        async def scenario(scheduler):
            # 12 rows per point against a 12-row budget: the queue is
            # over budget the moment both are enqueued, so the 60 s
            # window must not delay dispatch (wait_for would expire).
            _, records = await asyncio.wait_for(
                scheduler.submit(points), timeout=30
            )
            return records

        records = _run(
            _with_scheduler(
                scenario,
                evaluate=counting,
                batch_window_ms=60_000,
                pack_rows=12,
            )
        )
        assert counting.batch_sizes == [1, 1]
        assert records[0] == evaluate_point(points[0])

    def test_zero_window_dispatches_immediately(self, tiny_platform):
        point = _point(tiny_platform)

        async def scenario(scheduler):
            _, records = await scheduler.submit([point])
            return records[0]

        record = _run(
            _with_scheduler(scenario, batch_window_ms=0)
        )
        assert record == evaluate_point(point)

    def test_empty_submit_returns_empty(self):
        async def scenario(scheduler):
            return await scheduler.submit([])

        keys, records = _run(_with_scheduler(scenario))
        assert keys == [] and records == []


class FailingSeed:
    """Real evaluation, except batches containing one seed always raise."""

    def __init__(self, bad_seed=666):
        self.calls = 0
        self.bad_seed = bad_seed

    def __call__(self, points):
        self.calls += 1
        if any(p.seed == self.bad_seed for p in points):
            raise ValueError("injected point failure")
        return evaluate_points(points)


class TestSettledResolution:
    """resolve()/submit_settled(): per-point failure isolation."""

    def test_resolve_returns_raw_unlabelled_outcomes(self, tiny_platform):
        """Outcomes are journal-format records: labels NOT merged."""
        point = _point(tiny_platform, labels={"arm": "a"})

        async def scenario(scheduler):
            return await scheduler.resolve([point])

        keys, outcomes = _run(_with_scheduler(scenario))
        assert keys == [cache_key(point)]
        record = outcomes[keys[0]]
        assert "arm" not in record
        assert record == evaluate_point(point)

    def test_one_bad_point_does_not_poison_the_batch(self, tiny_platform):
        """Innocents in a failed mega-batch still answer (and cache)."""
        counting = FailingSeed(bad_seed=666)
        good = [_point(tiny_platform, seed=s) for s in (1, 2)]
        bad = _point(tiny_platform, seed=666, labels={"arm": "bad"})

        async def scenario(scheduler):
            keys, records, n_failed = await scheduler.submit_settled(
                [*good, bad]
            )
            # The innocents were cached by the isolation pass: a
            # repeat costs no further engine calls.
            calls_after_first = counting.calls
            await scheduler.submit_settled(good)
            return (
                records, n_failed, calls_after_first,
                counting.calls, scheduler.stats(),
            )

        records, n_failed, calls1, calls2, stats = _run(
            _with_scheduler(scenario, evaluate=counting)
        )
        assert n_failed == 1
        assert records[0] == evaluate_point(good[0])
        assert records[1] == evaluate_point(good[1])
        assert records[2] == {"arm": "bad", "error": "injected point failure"}
        # One failed 3-point batch, then three solo isolation runs.
        assert calls1 == 4
        assert calls2 == calls1
        counters = stats["counters"]
        assert counters["batch_failures"] == 1
        assert counters["point_failures"] == 1

    def test_single_point_failed_batch_is_not_rerun(self, tiny_platform):
        """A 1-point batch owns its failure: no isolation re-run."""
        counting = FailingSeed(bad_seed=666)
        point = _point(tiny_platform, seed=666)

        async def scenario(scheduler):
            _, records, n_failed = await scheduler.submit_settled([point])
            return records, n_failed, scheduler.stats()

        records, n_failed, stats = _run(
            _with_scheduler(scenario, evaluate=counting)
        )
        assert n_failed == 1
        assert records == [{"error": "injected point failure"}]
        assert counting.calls == 1
        assert stats["counters"]["point_failures"] == 1

    def test_all_good_settled_matches_submit(self, tiny_platform):
        points = [_point(tiny_platform, seed=s) for s in (7, 8)]

        async def scenario(scheduler):
            keys, records, n_failed = await scheduler.submit_settled(
                points
            )
            keys2, records2 = await scheduler.submit(points)
            return keys, records, n_failed, keys2, records2

        keys, records, n_failed, keys2, records2 = _run(
            _with_scheduler(scenario)
        )
        assert n_failed == 0
        assert keys == keys2
        assert records == records2


class TestLifecycleAndErrors:
    def test_submit_before_start_raises(self, tiny_platform):
        scheduler = MicroBatchScheduler()
        with pytest.raises(RuntimeError, match="not running"):
            _run(scheduler.submit([_point(tiny_platform)]))

    def test_engine_failure_propagates_and_recovers(self, tiny_platform):
        counting = CountingEvaluate(fail_first=True)
        point = _point(tiny_platform)

        async def scenario(scheduler):
            with pytest.raises(ValueError, match="injected"):
                await scheduler.submit([point])
            # The failed key left the in-flight table: a retry computes.
            _, records = await scheduler.submit([point])
            return records[0], scheduler.stats()

        record, stats = _run(
            _with_scheduler(scenario, evaluate=counting)
        )
        assert record == evaluate_point(point)
        assert counting.calls == 2
        assert stats["counters"]["batch_failures"] == 1

    def test_close_fails_queued_points(self, tiny_platform):
        async def scenario():
            scheduler = MicroBatchScheduler(
                cache=TieredCache(LRUCache()), batch_window_ms=60_000
            )
            await scheduler.start()
            task = asyncio.create_task(
                scheduler.submit([_point(tiny_platform)])
            )
            await asyncio.sleep(0.05)  # let it enqueue into the window
            await scheduler.close()
            with pytest.raises(RuntimeError, match="closed"):
                await task

        _run(scenario())

    def test_close_is_idempotent_and_start_twice_is_noop(self):
        async def scenario():
            scheduler = MicroBatchScheduler()
            await scheduler.start()
            await scheduler.start()
            assert scheduler.running
            await scheduler.close()
            await scheduler.close()
            assert not scheduler.running

        _run(scenario())

    def test_configuration_validated(self):
        with pytest.raises(ValueError, match="batch_window_ms"):
            MicroBatchScheduler(batch_window_ms=-1)
        with pytest.raises(ValueError, match="pack_rows"):
            MicroBatchScheduler(pack_rows=0)

    def test_cache_put_failure_still_answers(
        self, tiny_platform, monkeypatch
    ):
        cache = TieredCache(LRUCache())
        point = _point(tiny_platform)

        def broken_put_many(records):
            raise OSError("disk full")

        monkeypatch.setattr(cache, "put_many", broken_put_many)

        async def scenario(scheduler):
            _, records = await scheduler.submit([point])
            return records[0], scheduler.stats()

        record, stats = _run(_with_scheduler(scenario, cache=cache))
        assert record == evaluate_point(point)
        assert stats["counters"]["cache_put_failures"] == 1


class TestZeroWindow:
    def test_zero_window_concurrent_load_exactly_once(self, tiny_platform):
        """Immediate dispatch under 32-way concurrency: no loss, no dup."""
        seen = []

        def echo(points):
            seen.extend(points)
            return [{"seed": p.seed} for p in points]

        async def scenario(scheduler):
            results = await asyncio.gather(
                *(
                    scheduler.submit([_point(tiny_platform, seed=seed)])
                    for seed in range(32)
                )
            )
            return results, scheduler.stats()

        results, stats = _run(
            _with_scheduler(
                scenario, cache=None, batch_window_ms=0.0, evaluate=echo
            )
        )
        answered = sorted(r["seed"] for _, (r,) in results)
        assert answered == list(range(32))
        counters = stats["counters"]
        assert counters["computed"] == 32
        assert counters["engine_points"] == 32
        assert counters["coalesced"] == 0
        assert sorted(p.seed for p in seen) == list(range(32))
        assert stats["queued"] == 0
        assert stats["queued_rows"] == 0


class TestOneEvaluationSlot:
    """Exactly one batch is in flight; what queues behind it is the next."""

    @staticmethod
    def _held_evaluate(gate):
        """``evaluate_points`` held on ``gate``, counting overlap."""
        lock = threading.Lock()
        state = {"running": 0, "peak": 0, "batch_sizes": []}

        def evaluate(points):
            with lock:
                state["running"] += 1
                state["peak"] = max(state["peak"], state["running"])
                state["batch_sizes"].append(len(points))
            try:
                gate.wait(30)
                return evaluate_points(points)
            finally:
                with lock:
                    state["running"] -= 1

        return evaluate, state

    def test_points_behind_a_held_batch_form_one_batch(self, tiny_platform):
        gate = threading.Event()
        evaluate, state = self._held_evaluate(gate)
        n_behind = 8
        points = [_point(tiny_platform, seed=s) for s in range(n_behind + 1)]

        async def scenario(scheduler):
            first = asyncio.ensure_future(scheduler.submit(points[:1]))
            while not state["batch_sizes"]:
                await asyncio.sleep(0.001)
            # Arrivals spread over several loop wake-ups, all while the
            # first batch holds the engine.
            behind = []
            for point in points[1:]:
                behind.append(
                    asyncio.ensure_future(scheduler.submit([point]))
                )
                await asyncio.sleep(0.002)
            held = scheduler.stats()
            gate.set()
            results = await asyncio.gather(first, *behind)
            return results, held, scheduler.stats()

        results, held, stats = _run(
            _with_scheduler(
                scenario, cache=None, batch_window_ms=0, evaluate=evaluate
            )
        )
        assert state["peak"] == 1
        assert held["queued"] == n_behind
        assert state["batch_sizes"] == [1, n_behind]
        assert stats["counters"]["batches"] == 2
        assert stats["counters"]["max_batch_points"] == n_behind
        for point, (_, (record,)) in zip(points, results):
            assert record == evaluate_point(point)

    def test_flush_drains_through_the_one_slot(self, tiny_platform):
        """``close(flush=True)`` runs the queued batches one at a time."""
        gate = threading.Event()
        evaluate, state = self._held_evaluate(gate)
        points = [_point(tiny_platform, seed=s) for s in range(4)]

        async def scenario():
            # A 12-row budget: every point is its own batch.
            scheduler = MicroBatchScheduler(
                cache=None, batch_window_ms=0, pack_rows=12,
                evaluate=evaluate,
            )
            await scheduler.start()
            tasks = [
                asyncio.ensure_future(scheduler.submit([p])) for p in points
            ]
            while not state["batch_sizes"]:
                await asyncio.sleep(0.001)
            closing = asyncio.ensure_future(scheduler.close(flush=True))
            await asyncio.sleep(0.01)
            gate.set()
            await closing
            return await asyncio.gather(*tasks)

        results = _run(scenario())
        assert state["peak"] == 1
        assert state["batch_sizes"] == [1, 1, 1, 1]
        for point, (_, (record,)) in zip(points, results):
            assert record == evaluate_point(point)
