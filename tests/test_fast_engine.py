"""Unit tests for the fast tier: a packed batch of one job.

The ``fast`` engine tier runs one point as a packed batch holding that
point alone (:func:`~repro.simulation.packed_engine.simulate_packed_batch`
with one :class:`~repro.simulation.packed_engine.PackedJob`); per-run
statistics come from :func:`~repro.simulation.dispatch.run_stats` with
``engine="fast"``.
"""

import numpy as np
import pytest

from repro.core.builders import PatternKind, build_pattern, pattern_pd
from repro.core.exact import exact_expected_time
from repro.platforms.platform import Platform, default_costs
from repro.simulation.dispatch import EngineTier, run_stats
from repro.simulation.engine import PatternSimulator
from repro.simulation.model import OpSchedule
from repro.simulation.packed_engine import (
    GeneralBatchResult,
    PackedJob,
    simulate_packed_batch,
)
from repro.simulation.stats import COUNTER_FIELDS


def _pdmv(W=600.0, n=3, m=4, r=0.8):
    return build_pattern(PatternKind.PDMV, W, n=n, m=m, r=r)


def _solo_batch(
    pattern, platform, n_instances, rng, *,
    fail_stop_in_operations=True, max_sweeps=1_000_000,
):
    """The fast tier's batch of ``n_instances``: a packed batch of one."""
    job = PackedJob(
        pattern, platform, n_instances, rng,
        fail_stop_in_operations=fail_stop_in_operations,
    )
    (res,) = simulate_packed_batch([job], max_sweeps=max_sweeps)
    return res


class TestOpSchedule:
    def test_structure(self, tiny_platform):
        pat = _pdmv(r=tiny_platform.r)
        sched = OpSchedule.from_pattern(pat, tiny_platform)
        # Per segment: m computes + m verifies + 1 memory ckpt; +1 disk.
        assert sched.n_ops == 3 * (4 + 4 + 1) + 1
        # Total scheduled work equals the pattern work.
        from repro.simulation.model import OP_COMPUTE

        work = sched.durations[sched.kinds == OP_COMPUTE].sum()
        assert work == pytest.approx(pat.W)

    def test_rollback_targets(self, tiny_platform):
        sched = OpSchedule.from_pattern(_pdmv(), tiny_platform)
        # Every op's rollback target is the first op of its segment,
        # which is a COMPUTE with chunk 0.
        from repro.simulation.model import OP_COMPUTE

        starts = sched.segment_start
        assert (sched.kinds[starts] == OP_COMPUTE).all()
        assert (sched.chunk_index[starts] == 0).all()

    def test_last_verify_is_guaranteed(self, tiny_platform):
        sched = OpSchedule.from_pattern(_pdmv(), tiny_platform)
        from repro.simulation.model import OP_VERIFY

        ver = np.flatnonzero(sched.kinds == OP_VERIFY)
        per_seg = 4
        for s in range(3):
            seg_vers = ver[s * per_seg : (s + 1) * per_seg]
            assert not sched.guaranteed[seg_vers[:-1]].any()
            assert sched.guaranteed[seg_vers[-1]]
            assert sched.recalls[seg_vers[-1]] == 1.0


class TestSimulateGeneralBatch:
    """The batch engine itself, one job per batch."""

    def test_error_free_exact(self, tiny_platform, rng):
        quiet = tiny_platform.with_rates(0.0, 0.0)
        pat = _pdmv(r=quiet.r)
        res = _solo_batch(pat, quiet, 64, rng)
        expected = pat.error_free_time(
            V=quiet.V, V_star=quiet.V_star, C_M=quiet.C_M, C_D=quiet.C_D
        )
        np.testing.assert_allclose(res.times, expected)
        for name in COUNTER_FIELDS:
            if name in ("memory_checkpoints",):
                assert (res.counters[name] == 3).all()
            elif name == "disk_checkpoints":
                assert (res.counters[name] == 1).all()
            elif name == "partial_verifications":
                assert (res.counters[name] == 9).all()
            elif name == "guaranteed_verifications":
                assert (res.counters[name] == 3).all()
            else:
                assert (res.counters[name] == 0).all()

    def test_mean_matches_exact_recursion(self, tiny_platform):
        pat = _pdmv(W=1500.0, r=tiny_platform.r)
        res = _solo_batch(
            pat,
            tiny_platform,
            40_000,
            np.random.default_rng(8),
            fail_stop_in_operations=False,
        )
        E = exact_expected_time(pat, tiny_platform)
        assert res.mean_time() == pytest.approx(E, rel=0.02)

    @pytest.mark.parametrize("fsio", [True, False])
    def test_agrees_with_step_engine(self, tiny_platform, fsio):
        pat = _pdmv(W=1000.0, r=tiny_platform.r)
        batch = _solo_batch(
            pat,
            tiny_platform,
            20_000,
            np.random.default_rng(1),
            fail_stop_in_operations=fsio,
        )
        sim = PatternSimulator(
            pat, tiny_platform, fail_stop_in_operations=fsio
        )
        stats = sim.run(3_000, np.random.default_rng(2))
        assert batch.overhead() == pytest.approx(stats.overhead, rel=0.05)

    def test_deterministic_given_seed(self, tiny_platform):
        pat = _pdmv()
        a = _solo_batch(
            pat, tiny_platform, 200, np.random.default_rng(7)
        )
        b = _solo_batch(
            pat, tiny_platform, 200, np.random.default_rng(7)
        )
        np.testing.assert_array_equal(a.times, b.times)
        for name in COUNTER_FIELDS:
            np.testing.assert_array_equal(a.counters[name], b.counters[name])

    def test_silent_only_counts(self, rng):
        # Silent-only PD: strikes per pattern follow p/(1-p) and every
        # strike is eventually detected by the guaranteed verification.
        ls, W = 1e-3, 400.0
        plat = Platform(
            name="s", nodes=1, lambda_f=0.0, lambda_s=ls,
            costs=default_costs(C_D=10.0, C_M=1.0),
        )
        res = _solo_batch(pattern_pd(W), plat, 40_000, rng)
        p = 1.0 - np.exp(-ls * W)
        assert res.total("silent_errors") / res.n == pytest.approx(
            p / (1 - p), rel=0.05
        )
        assert res.total("silent_detections_guaranteed") == res.total(
            "silent_errors"
        )
        assert res.total("memory_recoveries") == res.total("silent_errors")
        assert res.total("fail_stop_errors") == 0

    def test_fail_stop_only_counts(self, rng):
        lf, W = 1e-3, 400.0
        plat = Platform(
            name="f", nodes=1, lambda_f=lf, lambda_s=0.0,
            costs=default_costs(C_D=10.0, C_M=1.0),
        )
        res = _solo_batch(
            pattern_pd(W), plat, 40_000, rng, fail_stop_in_operations=False
        )
        p = 1.0 - np.exp(-lf * W)
        assert res.total("fail_stop_errors") / res.n == pytest.approx(
            p / (1 - p), rel=0.05
        )
        assert res.total("disk_recoveries") == res.total("fail_stop_errors")
        assert res.total("silent_errors") == 0

    def test_validation(self, tiny_platform, rng):
        with pytest.raises(ValueError):
            _solo_batch(pattern_pd(10.0), tiny_platform, 0, rng)

    def test_runaway_guard(self, rng):
        hot = Platform(
            name="hot", nodes=1, lambda_f=1.0, lambda_s=0.0,
            costs=default_costs(C_D=0.1, C_M=0.1),
        )
        with pytest.raises(RuntimeError, match="sweeps"):
            _solo_batch(
                pattern_pd(1000.0), hot, 4, rng, max_sweeps=50
            )


class TestGeneralBatchResult:
    def _result(self, n=6):
        return GeneralBatchResult(
            times=np.full(n, 120.0),
            counters={
                name: np.arange(n, dtype=np.int64)
                for name in COUNTER_FIELDS
            },
            pattern_work=100.0,
        )

    def test_overhead(self):
        res = self._result()
        assert res.n == 6
        assert res.mean_time() == pytest.approx(120.0)
        assert res.overhead() == pytest.approx(0.2)

    def test_to_stats_partitions(self):
        res = self._result(n=6)
        runs = res.to_stats(3)
        assert len(runs) == 3
        assert all(r.patterns_completed == 2 for r in runs)
        assert all(r.useful_work == pytest.approx(200.0) for r in runs)
        assert all(r.total_time == pytest.approx(240.0) for r in runs)
        # Counter totals are preserved by the partition.
        for name in COUNTER_FIELDS:
            assert sum(getattr(r, name) for r in runs) == res.total(name)

    def test_to_stats_validation(self):
        res = self._result(n=6)
        with pytest.raises(ValueError):
            res.to_stats(0)
        with pytest.raises(ValueError):
            res.to_stats(4)  # 6 does not split into 4 runs


class TestRunMonteCarloFast:
    """Per-run statistics of the fast tier, through ``run_stats``."""

    def test_shape(self, tiny_platform):
        dispatched = run_stats(
            pattern_pd(300.0),
            tiny_platform,
            n_patterns=5,
            n_runs=4,
            seed=3,
            engine="fast",
        )
        assert dispatched.tier is EngineTier.FAST_GENERAL
        runs = dispatched.runs
        assert len(runs) == 4
        assert all(r.patterns_completed == 5 for r in runs)

    def test_validation(self, tiny_platform):
        with pytest.raises(ValueError):
            run_stats(
                pattern_pd(10.0), tiny_platform,
                n_patterns=0, n_runs=1, seed=0, engine="fast",
            )
        with pytest.raises(ValueError):
            run_stats(
                pattern_pd(10.0), tiny_platform,
                n_patterns=1, n_runs=0, seed=0, engine="fast",
            )
