"""Packing-invariance tests for the cross-point packed batch engine.

The packed engine's contract is **draw identity**: for every job, times
and all counters are bit-identical to a solo
:func:`~repro.simulation.fast_engine.simulate_general_batch` call with
the same generator state, whatever the packing -- singletons, pairs, one
mega-batch, or any permutation.  These tests assert exactly that over a
heterogeneous configuration matrix (all structural families, catalog and
weak-scaled platforms, both fail-stop settings, zero-rate corners), plus
the dispatch-level guarantees of the ``packed`` tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.campaign.planner import plan_packs
from repro.core.builders import PatternKind, build_pattern
from repro.core.formulas import optimal_pattern, simulation_costs
from repro.platforms.catalog import hera
from repro.platforms.platform import Platform, default_costs
from repro.platforms.scaling import weak_scaling_platform
from repro.simulation.dispatch import (
    EngineTier,
    run_stats,
    select_engine,
    tier_rng,
)
from repro.simulation.fast_engine import simulate_general_batch
from repro.simulation.packed_engine import (
    PACKED_VERSION,
    PackedJob,
    last_batch_stats,
    simulate_packed_batch,
)

SEED = 20260731


def _optimised(kind: PatternKind, platform: Platform, fs: bool = True):
    opt = optimal_pattern(kind, platform)
    return opt.pattern, simulation_costs(kind, platform), fs


def _zero_silent_platform() -> Platform:
    return Platform(
        name="zs",
        nodes=2,
        lambda_f=5e-4,
        lambda_s=0.0,
        costs=default_costs(C_D=15.0, C_M=2.0),
    )


def _zero_fail_platform() -> Platform:
    return Platform(
        name="zf",
        nodes=2,
        lambda_f=0.0,
        lambda_s=8e-4,
        costs=default_costs(C_D=15.0, C_M=2.0),
    )


@pytest.fixture(scope="module")
def config_matrix():
    """Heterogeneous (pattern, platform, fail_stop) configurations."""
    return [
        _optimised(PatternKind.PDMV, hera()),
        _optimised(PatternKind.PDM, weak_scaling_platform(2**16)),
        _optimised(PatternKind.PD, hera(), fs=False),
        _optimised(PatternKind.PDV, weak_scaling_platform(2**14)),
        _optimised(PatternKind.PDMV_STAR, weak_scaling_platform(2**18)),
        (build_pattern(PatternKind.PDM, 900.0, n=3),
         _zero_silent_platform(), True),
        (build_pattern(PatternKind.PDV, 900.0, m=3, r=0.8),
         _zero_fail_platform(), True),
    ]


@pytest.fixture(scope="module")
def solo_results(config_matrix):
    out = []
    for i, (pattern, platform, fs) in enumerate(config_matrix):
        rng = np.random.default_rng([SEED, i])
        out.append(
            simulate_general_batch(
                pattern, platform, 200 + 40 * i, rng,
                fail_stop_in_operations=fs,
            )
        )
    return out


def _jobs(config_matrix, indices):
    return [
        PackedJob(
            config_matrix[i][0],
            config_matrix[i][1],
            200 + 40 * i,
            np.random.default_rng([SEED, i]),
            fail_stop_in_operations=config_matrix[i][2],
        )
        for i in indices
    ]


def _assert_same(solo, packed):
    assert np.array_equal(solo.times, packed.times)
    for name, arr in solo.counters.items():
        assert np.array_equal(arr, packed.counters[name]), name
    assert solo.pattern_work == packed.pattern_work


@pytest.mark.parametrize(
    "grouping",
    [
        [[0], [1], [2], [3], [4], [5], [6]],
        [[0, 1], [2, 3], [4, 5], [6]],
        [[0, 1, 2, 3, 4, 5, 6]],
        [[6, 4, 2, 0, 5, 3, 1]],
        [[3, 0, 6], [5, 1], [2, 4]],
    ],
    ids=["singletons", "pairs", "mega", "shuffled", "uneven"],
)
def test_packed_is_bit_identical_to_solo_for_every_packing(
    config_matrix, solo_results, grouping
):
    results = {}
    for group in grouping:
        for i, res in zip(group, simulate_packed_batch(
            _jobs(config_matrix, group)
        )):
            results[i] = res
    for i, solo in enumerate(solo_results):
        _assert_same(solo, results[i])


def test_packed_to_stats_matches_solo(config_matrix, solo_results):
    (packed,) = simulate_packed_batch(_jobs(config_matrix, [0]))
    assert packed.to_stats(4) == solo_results[0].to_stats(4)


def test_shared_generator_between_jobs_is_rejected(config_matrix):
    pattern, platform, fs = config_matrix[0]
    rng = np.random.default_rng(1)
    jobs = [
        PackedJob(pattern, platform, 10, rng, fail_stop_in_operations=fs),
        PackedJob(pattern, platform, 10, rng, fail_stop_in_operations=fs),
    ]
    with pytest.raises(ValueError, match="distinct generator"):
        simulate_packed_batch(jobs)


def test_empty_batch_and_invalid_jobs():
    assert simulate_packed_batch([]) == []
    pattern, platform, _ = _optimised(PatternKind.PD, hera())
    with pytest.raises(ValueError, match="positive"):
        PackedJob(pattern, platform, 0, np.random.default_rng(0))


def test_last_batch_stats_populated(config_matrix):
    simulate_packed_batch(_jobs(config_matrix, [0, 1]))
    assert last_batch_stats["n_jobs"] == 2
    assert last_batch_stats["n_rows"] == 200 + 240
    assert last_batch_stats["sweeps"] >= 1


class TestPlanPacks:
    def test_splits_under_budget(self):
        packs = plan_packs([400, 400, 400, 400], 1000)
        assert packs == [[0, 1], [2, 3]]

    def test_oversized_job_gets_own_pack(self):
        packs = plan_packs([50, 5000, 50], 1000)
        assert packs == [[0], [1], [2]]

    def test_everything_fits_one_pack(self):
        assert plan_packs([10, 10], 1000) == [[0, 1]]

    def test_invalid_inputs(self):
        with pytest.raises(ValueError, match="max_rows"):
            plan_packs([10], 0)
        with pytest.raises(ValueError, match="non-positive"):
            plan_packs([10, 0], 100)


class TestDispatchTier:
    def test_packed_in_choices(self):
        from repro.simulation.dispatch import ENGINE_CHOICES

        assert "packed" in ENGINE_CHOICES
        assert EngineTier.PACKED.value == "packed"

    def test_auto_never_selects_packed(self):
        pattern, platform, _ = _optimised(PatternKind.PDMV, hera())
        tier = select_engine(pattern, engine="auto")
        assert tier is not EngineTier.PACKED

    def test_run_stats_packed_matches_fast_bitwise(self):
        pattern, platform, _ = _optimised(PatternKind.PDMV, hera())
        fast = run_stats(
            pattern, platform, n_patterns=40, n_runs=5, seed=99,
            engine="fast",
        )
        packed = run_stats(
            pattern, platform, n_patterns=40, n_runs=5, seed=99,
            engine="packed",
        )
        assert fast.tier is EngineTier.FAST_GENERAL
        assert packed.tier is EngineTier.PACKED
        assert fast.runs == packed.runs

    def test_packed_refuses_traced_requests(self):
        from repro.simulation.trace import TraceRecorder

        pattern, platform, _ = _optimised(PatternKind.PD, hera())
        with pytest.raises(ValueError, match="does not cover"):
            select_engine(pattern, trace=TraceRecorder(), engine="packed")

    def test_tier_rng_is_deterministic_per_configuration(self):
        pattern, platform, _ = _optimised(PatternKind.PDMV, hera())
        a = tier_rng(7, pattern, platform, True).random(4)
        b = tier_rng(7, pattern, platform, True).random(4)
        c = tier_rng(7, pattern, platform, False).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


def test_packed_version_is_an_int():
    assert isinstance(PACKED_VERSION, int)
    assert PACKED_VERSION >= 1


def test_mixed_fail_stop_settings_in_one_pack(config_matrix):
    """Rows with different fail-stop settings coexist in one batch."""
    pattern, platform, _ = _optimised(PatternKind.PDMV, hera())
    solo = []
    for i, fs in enumerate((True, False)):
        rng = np.random.default_rng([SEED, 100 + i])
        solo.append(
            simulate_general_batch(
                pattern, platform, 150, rng, fail_stop_in_operations=fs
            )
        )
    jobs = [
        PackedJob(
            pattern, platform, 150,
            np.random.default_rng([SEED, 100 + i]),
            fail_stop_in_operations=fs,
        )
        for i, fs in enumerate((True, False))
    ]
    for s, p in zip(solo, simulate_packed_batch(jobs)):
        _assert_same(s, p)


def test_stressed_rates_are_bit_identical_to_solo():
    """Error rates x5-x20 drive the rarely reached recovery loops.

    One batch mixes both fail-stop settings and zero-rate corners (one
    rate or both off); at these rates disk recoveries are themselves
    struck, so the retry rounds run with several jobs at once.
    """
    w14 = weak_scaling_platform(2**14)
    fixed = build_pattern(PatternKind.PDMV, 4000.0, n=3, m=2)
    configs = [
        _optimised(PatternKind.PDMV, w14.scaled_rates(5, 5)),
        _optimised(PatternKind.PDMV, w14.scaled_rates(5, 5), fs=False),
        _optimised(PatternKind.PD, w14.scaled_rates(10, 10)),
        _optimised(PatternKind.PDV, hera().scaled_rates(10, 20)),
        _optimised(PatternKind.PDMV_STAR, hera().scaled_rates(20, 5),
                   fs=False),
        (fixed, hera().scaled_rates(20, 0), True),
        (fixed, hera().scaled_rates(0, 20), True),
        (fixed, hera().scaled_rates(0, 0), False),
    ]

    def run(i):
        pattern, platform, fs = configs[i]
        return PackedJob(
            pattern, platform, 300, np.random.default_rng([SEED, 200 + i]),
            fail_stop_in_operations=fs,
        )

    solo = [
        simulate_general_batch(
            job.pattern, job.platform, job.n_instances, job.rng,
            fail_stop_in_operations=job.fail_stop_in_operations,
        )
        for job in map(run, range(len(configs)))
    ]
    packed = simulate_packed_batch([run(i) for i in range(len(configs))])
    for s, p in zip(solo, packed):
        _assert_same(s, p)
    fail_stops = sum(int(s.counters["fail_stop_errors"].sum()) for s in solo)
    disk = sum(int(s.counters["disk_recoveries"].sum()) for s in solo)
    assert fail_stops > disk


def test_numpy_stream_identities():
    """The NumPy identities the packed engine's draws rely on.

    The engine fills per-job slices of batch-wide buffers with
    ``standard_exponential(out=)`` / ``random(out=)`` and applies the
    ``exponential`` scales afterwards; a NumPy release that changes any
    of these breaks draw identity with the solo engine.
    """
    scale = 1.0 / 3.7e-5
    fused = np.empty(2 * 97)
    np.random.default_rng(5).standard_exponential(out=fused)
    rng = np.random.default_rng(5)
    assert np.array_equal(fused[:97], rng.standard_exponential(97))
    assert np.array_equal(fused[97:], rng.standard_exponential(97))

    buf = np.empty(97)
    np.random.default_rng(6).standard_exponential(out=buf)
    expected = np.random.default_rng(6).exponential(scale, 97)
    assert np.array_equal(buf * scale, expected)

    np.random.default_rng(7).random(out=buf)
    assert np.array_equal(buf, np.random.default_rng(7).random(97))
