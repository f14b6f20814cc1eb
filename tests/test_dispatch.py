"""Unit tests for the engine dispatch layer."""

import pytest

from repro.core.builders import PatternKind, build_pattern, pattern_pd
from repro.simulation.dispatch import (
    ENGINE_CHOICES,
    EngineTier,
    covers,
    run_stats,
    select_engine,
)
from repro.simulation.trace import TraceRecorder


PD = pattern_pd(500.0)
PDMV = build_pattern(PatternKind.PDMV, 600.0, n=2, m=3, r=0.8)


class TestCovers:
    def test_step_covers_everything(self):
        assert covers(EngineTier.STEP, PDMV, trace=TraceRecorder())
        assert covers(EngineTier.STEP, PD, fail_stop_in_operations=True)

    def test_fast_pd_requires_pd_shape(self):
        assert covers(
            EngineTier.FAST_PD, PD, fail_stop_in_operations=False
        )
        assert not covers(
            EngineTier.FAST_PD, PDMV, fail_stop_in_operations=False
        )

    def test_fast_pd_requires_error_free_operations(self):
        assert not covers(
            EngineTier.FAST_PD, PD, fail_stop_in_operations=True
        )

    def test_fast_tiers_cannot_trace(self):
        tr = TraceRecorder()
        assert not covers(
            EngineTier.FAST_PD, PD,
            fail_stop_in_operations=False, trace=tr,
        )
        assert not covers(EngineTier.FAST_GENERAL, PDMV, trace=tr)


class TestSelectEngine:
    def test_auto_prefers_fast_pd(self):
        tier = select_engine(PD, fail_stop_in_operations=False)
        assert tier is EngineTier.FAST_PD

    def test_auto_general_for_protected_operations(self):
        tier = select_engine(PD, fail_stop_in_operations=True)
        assert tier is EngineTier.FAST_GENERAL

    def test_auto_general_for_complex_shapes(self):
        tier = select_engine(PDMV, fail_stop_in_operations=False)
        assert tier is EngineTier.FAST_GENERAL

    def test_auto_step_when_traced(self):
        tier = select_engine(PDMV, trace=TraceRecorder())
        assert tier is EngineTier.STEP

    def test_forced_tier(self):
        assert select_engine(PDMV, engine="step") is EngineTier.STEP
        assert (
            select_engine(PDMV, engine="fast") is EngineTier.FAST_GENERAL
        )

    def test_forced_tier_must_cover(self):
        with pytest.raises(ValueError, match="does not cover"):
            select_engine(PDMV, engine="fast-pd")
        with pytest.raises(ValueError, match="does not cover"):
            select_engine(PDMV, engine="fast", trace=TraceRecorder())

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="engine must be one of"):
            select_engine(PD, engine="warp")

    def test_choices_match_tiers(self):
        assert set(ENGINE_CHOICES) == {"auto"} | {
            t.value for t in EngineTier
        }


class TestRunStats:
    @pytest.mark.parametrize("engine", ["fast-pd", "fast", "step"])
    def test_all_tiers_produce_run_stats(self, tiny_platform, engine):
        fsio = engine != "fast-pd"
        dispatched = run_stats(
            PD,
            tiny_platform,
            n_patterns=4,
            n_runs=3,
            seed=11,
            fail_stop_in_operations=fsio,
            engine=engine,
        )
        assert dispatched.tier.value == engine
        assert len(dispatched.runs) == 3
        for run in dispatched.runs:
            assert run.patterns_completed == 4
            assert run.useful_work == pytest.approx(4 * PD.W)
            assert run.disk_checkpoints == 4

    @pytest.mark.parametrize("engine", ["fast-pd", "fast", "step"])
    def test_deterministic_per_tier(self, tiny_platform, engine):
        fsio = engine != "fast-pd"
        kw = dict(
            n_patterns=3, n_runs=2, seed=5,
            fail_stop_in_operations=fsio, engine=engine,
        )
        a = run_stats(PD, tiny_platform, **kw)
        b = run_stats(PD, tiny_platform, **kw)
        assert [r.total_time for r in a.runs] == [
            r.total_time for r in b.runs
        ]

    def test_step_tier_matches_historical_runner(self, tiny_platform):
        """The step tier reproduces the pre-dispatch sequential runner
        seeding exactly (per-run spawned streams)."""
        import numpy as np

        from repro.errors.rng import RandomStreams
        from repro.simulation.engine import PatternSimulator

        dispatched = run_stats(
            PDMV, tiny_platform, n_patterns=3, n_runs=2, seed=21,
            engine="step",
        )
        sim = PatternSimulator(PDMV, tiny_platform)
        streams = RandomStreams(21)
        manual = [sim.run(3, streams.next()) for _ in range(2)]
        assert [r.total_time for r in dispatched.runs] == [
            r.total_time for r in manual
        ]

    def test_validation(self, tiny_platform):
        with pytest.raises(ValueError):
            run_stats(PD, tiny_platform, n_patterns=0, n_runs=1)
        with pytest.raises(ValueError):
            run_stats(PD, tiny_platform, n_patterns=1, n_runs=0)

    def test_configs_sharing_a_seed_are_decorrelated(self, tiny_platform):
        """Sweep cells reuse one campaign seed; the batch tiers must not
        hand every cell the same draws, or one unlucky realisation shows
        up in every cell of a figure (e.g. zero errors everywhere)."""
        near = tiny_platform.with_rates(
            tiny_platform.lambda_f * 1.01, tiny_platform.lambda_s * 1.01
        )
        a = run_stats(
            PD, tiny_platform, n_patterns=500, n_runs=1, seed=42,
            engine="fast",
        ).runs[0]
        b = run_stats(
            PD, near, n_patterns=500, n_runs=1, seed=42, engine="fast"
        ).runs[0]
        # Nearly identical rates: shared draws would give (near-)equal
        # counters; independent streams differ with overwhelming
        # probability at 500 patterns and frequent errors.
        assert (a.fail_stop_errors, a.silent_errors) != (
            b.fail_stop_errors, b.silent_errors
        )

    def test_fast_tier_seed_types(self, tiny_platform):
        """Every SeedLike form is accepted and deterministic."""
        import numpy as np

        for seed in (7, [1, 2], np.random.SeedSequence(5)):
            a = run_stats(
                PD, tiny_platform, n_patterns=3, n_runs=2, seed=seed,
                engine="fast",
            )
            b = run_stats(
                PD, tiny_platform, n_patterns=3, n_runs=2, seed=seed,
                engine="fast",
            )
            assert [r.total_time for r in a.runs] == [
                r.total_time for r in b.runs
            ]


class TestRunnerIntegration:
    def test_run_monte_carlo_reports_engine(self, tiny_platform):
        from repro.simulation.runner import run_monte_carlo

        res = run_monte_carlo(
            PD, tiny_platform, n_patterns=3, n_runs=2, seed=1
        )
        assert res.engine == "fast"
        res = run_monte_carlo(
            PD, tiny_platform, n_patterns=3, n_runs=2, seed=1,
            fail_stop_in_operations=False,
        )
        assert res.engine == "fast-pd"
        res = run_monte_carlo(
            PD, tiny_platform, n_patterns=3, n_runs=2, seed=1,
            engine="step",
        )
        assert res.engine == "step"

    def test_parallel_matches_sequential_on_fast_tier(self, tiny_platform):
        from repro.campaign.executor import run_campaign
        from repro.campaign.spec import ScenarioPoint, platform_to_dict
        from repro.simulation.runner import simulate_optimal_pattern

        points = [
            ScenarioPoint(
                mode="simulate",
                kind="PDMV",
                platform=platform_to_dict(tiny_platform),
                n_patterns=3,
                n_runs=4,
                seed=seed,
                engine="fast",
            )
            for seed in (9, 10, 11, 12)
        ]
        par = run_campaign(points, n_workers=4)
        for point, record in zip(points, par.records):
            seq = simulate_optimal_pattern(
                PatternKind.PDMV, tiny_platform, n_patterns=3, n_runs=4,
                seed=point.seed,
            )
            assert record["engine"] == seq.engine == "fast"
            assert record["simulated"] == seq.simulated_overhead

    def test_engines_agree_statistically(self, tiny_platform):
        """The same configuration lands near the same overhead on every
        tier (coarse agreement; the hypothesis harness is sharper)."""
        from repro.simulation.runner import run_monte_carlo

        kw = dict(n_patterns=40, n_runs=25, fail_stop_in_operations=False)
        res = {
            engine: run_monte_carlo(
                PD, tiny_platform, seed=31, engine=engine, **kw
            ).simulated_overhead
            for engine in ("fast-pd", "fast", "step")
        }
        assert res["fast"] == pytest.approx(res["step"], rel=0.10)
        assert res["fast-pd"] == pytest.approx(res["step"], rel=0.10)
