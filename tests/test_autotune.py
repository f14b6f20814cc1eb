"""Adaptive micro-batching: the scheduler sets its own window.

The rule's contract (pinned here with ``hypothesis`` on the pure
module functions of :mod:`repro.service.scheduler`):

* **bounds** -- whatever rates it has smoothed, the window lies in
  ``[AUTOTUNE_WINDOW_FLOOR_MS, AUTOTUNE_WINDOW_CEIL_MS]``;
* **monotonicity** -- the rate-to-window ramp never decreases in rate;
* **convergence** -- fed a constant rate, the EWMA settles on it and
  the window stops moving.

Plus the asyncio side: an adaptive scheduler whose window changes
between cuts still answers every request exactly once with records
equal to :func:`evaluate_point`, and a ``BackgroundService(autotune=
True)`` exposes the live window, rate and rows per point under
``/v1/stats``.
"""

import asyncio
import math
import time

from hypothesis import given, settings, strategies as st

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
    ewma,
    rate_weight,
    window_for_rate,
)
from repro.service.server import BackgroundService

#: Rate samples spanning quiet to far-past-ceiling traffic.
rates = st.floats(
    min_value=0.0, max_value=1e4,
    allow_nan=False, allow_infinity=False,
)

#: One rate sample: (points since the last sample, seconds spanned).
samples = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.floats(min_value=1e-4, max_value=10.0),
)


class TestProperties:
    @given(feed=st.lists(samples, min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_bounds_always_respected(self, feed):
        """No sample history can push the window out of bounds."""
        rate = 0.0
        for points, dt_s in feed:
            sample = points / dt_s
            prev = rate
            rate = ewma(rate, sample, rate_weight(dt_s))
            # The smoothed rate stays between its inputs...
            slack = 1e-9 * max(1.0, prev, sample)
            assert min(prev, sample) - slack <= rate
            assert rate <= max(prev, sample) + slack
            # ...and the window between its bounds.
            assert (
                AUTOTUNE_WINDOW_FLOOR_MS
                <= window_for_rate(rate)
                <= AUTOTUNE_WINDOW_CEIL_MS
            )

    @given(rate_a=rates, rate_b=rates)
    @settings(max_examples=200, deadline=None)
    def test_window_monotone_in_rate(self, rate_a, rate_b):
        """Higher rate => never a smaller window (and never sub-floor)."""
        lo, hi = sorted((rate_a, rate_b))
        w_lo = window_for_rate(lo)
        w_hi = window_for_rate(hi)
        assert w_hi >= w_lo
        assert w_lo >= AUTOTUNE_WINDOW_FLOOR_MS
        assert w_hi <= AUTOTUNE_WINDOW_CEIL_MS

    @given(
        points=st.integers(min_value=0, max_value=5_000),
        dt_s=st.floats(min_value=0.01, max_value=2.0),
        start=rates,
    )
    @settings(max_examples=200, deadline=None)
    def test_convergence_on_constant_rate(self, points, dt_s, start):
        """A constant-rate feed settles: EWMA and window stop moving."""
        rate = start
        for _ in range(2_000):
            rate = ewma(rate, points / dt_s, rate_weight(dt_s))
        # The EWMA has converged onto the true sample rate...
        assert math.isclose(
            rate, points / dt_s, rel_tol=1e-6, abs_tol=1e-9
        )
        # ...so the window is a fixed point: one more sample does not
        # move it.
        after = ewma(rate, points / dt_s, rate_weight(dt_s))
        assert math.isclose(
            window_for_rate(rate),
            window_for_rate(after),
            rel_tol=1e-6,
            abs_tol=1e-9,
        )


def _point(seed):
    return ScenarioPoint(
        mode="simulate",
        kind="PDMV",
        platform=platform_to_dict(hera()),
        n_patterns=4,
        n_runs=3,
        seed=seed,
    )


def _slow_evaluate(points):
    """The real batch evaluation, held long enough to overlap a wave."""
    time.sleep(0.05)
    return evaluate_points(points)


class TestAdaptiveScheduler:
    def test_window_moves_between_cuts_exactly_once(self):
        """Waves at different rates: the window moves, nothing is lost."""

        async def scenario():
            scheduler = MicroBatchScheduler(
                cache=None, autotune=True, evaluate=_slow_evaluate
            )
            await scheduler.start()
            windows = {}

            async def wave(name, seeds, gap_s):
                await asyncio.sleep(gap_s)
                out = await asyncio.gather(
                    *(scheduler.submit([_point(s)]) for s in seeds)
                )
                windows[name] = scheduler.stats()["autotune"]["window_ms"]
                return out

            try:
                # A 64-point burst, a wave collected (under a new
                # window) while the burst evaluates, then one after a
                # quiet spell.
                waves = await asyncio.gather(
                    wave("burst", range(64), 0.0),
                    wave("overlap", range(64, 80), 0.005),
                    wave("quiet", range(80, 88), 0.6),
                )
                return waves, windows, scheduler.stats()
            finally:
                await scheduler.close()

        waves, windows, stats = asyncio.run(scenario())
        results = [r for w in waves for r in w]
        assert len(results) == 88
        for seed, (keys, (record,)) in zip(range(88), results):
            assert record == evaluate_point(_point(seed))
        counters = stats["counters"]
        assert counters["computed"] == 88
        assert counters["engine_points"] == 88
        assert counters["coalesced"] == 0
        assert counters["points"] == 88
        assert stats["queued"] == 0
        assert stats["queued_rows"] == 0
        assert stats["inflight"] == 0
        # The burst widened the window; the quiet spell shrank it.
        assert windows["quiet"] < windows["burst"]
        for window in windows.values():
            assert (
                AUTOTUNE_WINDOW_FLOOR_MS <= window <= AUTOTUNE_WINDOW_CEIL_MS
            )
        # Every point has 4x3 rows, so the smoothed rows per point (the
        # early-cut size) is exact.
        assert stats["autotune"]["rows_per_point"] == 12.0
        assert stats["config"]["batch_window_ms"] == windows["quiet"]

    def test_window_closes_early_at_batch_points(self):
        """64 points' rows queued cut the window before its deadline."""
        seen = []

        def echo(points):
            seen.append(len(points))
            return [{"seed": p.seed} for p in points]

        async def scenario():
            scheduler = MicroBatchScheduler(
                cache=None, autotune=True, evaluate=echo
            )
            await scheduler.start()

            async def late(seed, delay_s):
                await asyncio.sleep(delay_s)
                return await scheduler.submit([_point(seed)])

            async def after_cut(seed):
                # Poll once per loop iteration.  The early cut follows
                # the 64th point within a few iterations; waiting for
                # the window's deadline (over 4 ms) would take hundreds.
                # Submitting only after the cut keeps a loop stall from
                # landing this point in the first batch.
                spins = 0
                while scheduler.stats()["counters"]["batches"] < 1:
                    if scheduler.stats()["queued"] >= 64:
                        spins += 1
                    await asyncio.sleep(0)
                assert spins < 100
                return await scheduler.submit([_point(seed)])

            try:
                # 63 points open a window of several ms (the burst
                # pushes the rate past the knee); the 64th fills the
                # early cut, so the 65th -- still inside the window --
                # must ride a second batch.
                results = await asyncio.gather(
                    *(scheduler.submit([_point(s)]) for s in range(63)),
                    late(63, 0.001),
                    after_cut(64),
                )
                return results, scheduler.stats()
            finally:
                await scheduler.close()

        results, stats = asyncio.run(scenario())
        assert sorted(r["seed"] for _, (r,) in results) == list(range(65))
        assert seen == [64, 1]
        assert stats["counters"]["batches"] == 2
        assert stats["autotune"]["window_ms"] > 4.0


class TestServiceIntegration:
    def test_autotuned_daemon_exposes_and_steers(self, tmp_path):
        """End-to-end: live /v1/stats autotune section and the ledger."""
        trace = make_trace(
            "poisson", rate=120.0, duration_s=1.5, seed=4242
        )
        with BackgroundService(
            cache_dir=str(tmp_path / "cache"),
            autotune=True,
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                baseline = client.stats()
                assert baseline["autotune"]["enabled"] is True
                result = WorkloadReplayer(port=svc.port).run(trace)
                stats = client.stats()
        assert all(r.ok for r in result.requests)
        autotune = stats["autotune"]
        assert autotune["rate_rps"] > 0
        assert autotune["rows_per_point"] > 0
        # 120 computed points/s is past the 20 rps knee, so the window
        # must sit above the floor -- and config reports the live one.
        assert autotune["window_ms"] > AUTOTUNE_WINDOW_FLOOR_MS
        assert stats["config"]["batch_window_ms"] == autotune["window_ms"]
        # Exactly-once accounting while the window moves: every point
        # is a cache hit, coalesced, or computed once.
        counters = stats["counters"]
        assert counters["requests"] == len(trace)
        assert counters["points"] == len(trace)
        assert counters["points"] == (
            counters["cache_hits"]
            + counters["coalesced"]
            + counters["computed"]
        )
        assert counters["engine_points"] == counters["computed"]
        assert stats["queued"] == 0
        assert stats["inflight"] == 0

    def test_static_daemon_reports_disabled(self, tmp_path):
        with BackgroundService(
            cache_dir=str(tmp_path / "cache")
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                stats = client.stats()
        assert stats["autotune"] == {"enabled": False}
