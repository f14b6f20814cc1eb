"""Packing-invariance tests for the cross-point packed batch engine.

The packed engine's contract is **draw identity**: for every job, times
and all counters are bit-identical to the fast tier's solo batch with
the same generator state, whatever the packing -- singletons, pairs, one
mega-batch, or any permutation.  The solo batches are pinned by
``tests/golden/draw_identity_golden.json`` (SHA-256 digests of every
per-instance array); these tests compare each packed job against its
case there, over a heterogeneous configuration matrix (all structural
families, catalog and weak-scaled platforms, both fail-stop settings,
zero-rate corners), plus the dispatch-level guarantees of the
``packed`` tier.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from golden_util import (
    batch_digest,
    draw_identity_cases,
    load_draw_identity_golden,
)
from repro.campaign.planner import plan_packs
from repro.core.builders import PatternKind
from repro.core.formulas import optimal_pattern, simulation_costs
from repro.platforms.catalog import hera
from repro.platforms.platform import Platform
from repro.simulation.dispatch import (
    EngineTier,
    run_stats,
    select_engine,
    tier_rng,
)
from repro.simulation.packed_engine import (
    PACKED_VERSION,
    PackedJob,
    last_batch_stats,
    simulate_packed_batch,
)

GOLDEN = load_draw_identity_golden()
CASES = draw_identity_cases()
SOLO = [name for name in CASES if name.startswith("solo/")]


def _optimised(kind: PatternKind, platform: Platform, fs: bool = True):
    opt = optimal_pattern(kind, platform)
    return opt.pattern, simulation_costs(kind, platform), fs


def _jobs(names):
    """Fresh jobs for the named golden cases, in the given order."""
    return [
        PackedJob(
            pattern, platform, n, np.random.default_rng(seed),
            fail_stop_in_operations=fs,
        )
        for pattern, platform, n, seed, fs in map(CASES.get, names)
    ]


def _assert_golden(name, packed):
    """``packed`` reproduces the golden solo batch of case ``name``."""
    got, want = batch_digest(packed), GOLDEN[name]
    assert got["n"] == want["n"], name
    assert got["times"]["sum"] == want["times"]["sum"], name
    for counter, digest in want["counters"].items():
        assert got["counters"][counter]["sum"] == digest["sum"], (
            name, counter
        )
    assert got == want, name


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
def test_packed_is_bit_identical_to_solo_for_every_packing(grouping):
    results = {}
    for group in grouping:
        names = [SOLO[i] for i in group]
        results.update(zip(names, simulate_packed_batch(_jobs(names))))
    assert sorted(results) == sorted(SOLO)
    for name, res in results.items():
        _assert_golden(name, res)


def test_packed_to_stats_matches_solo():
    (packed,) = simulate_packed_batch(_jobs(SOLO[:1]))
    _assert_golden(SOLO[0], packed)
    mega = simulate_packed_batch(_jobs(SOLO))
    assert packed.to_stats(4) == mega[0].to_stats(4)


def test_shared_generator_between_jobs_is_rejected():
    pattern, platform, _, _, fs = CASES[SOLO[0]]
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


def test_last_batch_stats_populated():
    simulate_packed_batch(_jobs(SOLO[:2]))
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


def test_mixed_fail_stop_settings_in_one_pack():
    """Rows with different fail-stop settings coexist in one batch."""
    names = [name for name in CASES if name.startswith("mixed/")]
    jobs = _jobs(names)
    assert [job.fail_stop_in_operations for job in jobs] == [True, False]
    for name, packed in zip(names, simulate_packed_batch(jobs)):
        _assert_golden(name, packed)


def test_stressed_rates_are_bit_identical_to_solo():
    """Error rates x5-x20 drive the rarely reached recovery loops.

    One batch mixes both fail-stop settings and zero-rate corners (one
    rate or both off); at these rates disk recoveries are themselves
    struck, so the retry rounds run with several jobs at once.
    """
    names = [name for name in CASES if name.startswith("stressed/")]
    packed = simulate_packed_batch(_jobs(names))
    for name, res in zip(names, packed):
        _assert_golden(name, res)
    fail_stops = sum(int(p.counters["fail_stop_errors"].sum()) for p in packed)
    disk = sum(int(p.counters["disk_recoveries"].sum()) for p in packed)
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


@pytest.mark.parametrize("engine", ["fast", "packed"])
def test_subnormal_rates_never_strike_and_never_warn(engine):
    """Rates below about 1e-306 overflow the exponential scales to inf,
    which is the intended "no strike", without a RuntimeWarning."""
    pattern = optimal_pattern(PatternKind.PDMV, hera()).pattern
    platform = dataclasses.replace(hera(), lambda_f=1e-310, lambda_s=1e-310)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = run_stats(
            pattern, platform, n_patterns=4, n_runs=8, seed=7, engine=engine
        )
    assert out.tier.value == engine
    assert len(out.runs) == 8
    for run in out.runs:
        assert run.fail_stop_errors == 0
        assert run.silent_errors == 0
        assert run.patterns_completed == 4
