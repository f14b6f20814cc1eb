"""Benchmark: cross-point packed campaigns vs the per-point fast tier.

Measures the packed execution layer end to end on a cold-cache
**256-point heterogeneous campaign** (four weak-scaled platforms x a
4 x 4 error-rate factor grid x four seed replicas, families rotating,
25 patterns x 8 runs per point):

* **end-to-end**: ``run_campaign`` through the packed planner vs the
  same campaign forced down the per-point fast tier, both cold-cache,
  single worker, identical records (the planner's invisibility
  contract is asserted on every row);
* **engine-core**: one packed mega-batch vs a loop of one-job packed
  batches (the fast tier's engine call) for the same 256
  configurations.

The observed ratios on the development box are ~**3.3-3.7x end-to-end**
and ~**4.3-4.7x engine-core**.  The issue that motivated this layer
targeted >= 5x end-to-end; that number assumed the PR-1-era per-point
pipeline (per-point pool dispatch, schedule rebuild and optimisation
paid per point).  Those overheads were since removed for *both* arms --
chunked dispatch (PR 1), in-point vectorisation (PR 2), and the shared
memoisation landed together with this layer -- so the remaining
per-point cost the baseline pays is one ~1.5-2 ms fast-engine call plus
~0.4 ms of work (Table-1 optimisation, cache IO, record assembly) that
packing cannot remove because the packed path performs it too, per
point.  The decomposition is recorded in ``BENCH_packed.json``; the
assertions pin honest floors with CI headroom (>= 2.5x engine-core,
>= 1.8x end-to-end) so regressions of the packing layer still fail
loudly.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the campaign
to 64 points and relaxes the floors to absorb shared-runner noise; the
bit-identity assertion still covers every record, and the trajectory
file is left untouched.
"""

import os
import time

import numpy as np
import pytest

from _history import write_bench_record
from repro.campaign.executor import run_campaign
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.core.builders import PATTERN_ORDER
from repro.platforms.scaling import weak_scaling_platform
from repro.simulation.dispatch import tier_rng
from repro.simulation.packed_engine import (
    PackedJob,
    last_batch_stats,
    simulate_packed_batch,
)

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_packed.json",
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Campaign shape: platforms x factor grid x seeds (x rotating families).
NODE_EXPONENTS = (12, 13, 14, 15)
FACTORS_F = (0.5, 0.75, 1.0, 1.25)
FACTORS_S = (0.7, 1.0, 1.3, 1.6) if not SMOKE else (0.7,)
N_SEEDS = 4
N_PATTERNS = 25
N_RUNS = 8

#: Asserted speedup floors (see the module docstring for the measured
#: values and why the issue's original >= 5x target is not reachable on
#: the post-PR-2/3 baseline).
MIN_ENGINE_SPEEDUP = 1.6 if SMOKE else 2.5
MIN_E2E_SPEEDUP = 1.15 if SMOKE else 1.8


def _campaign_points(engine: str):
    kinds = [k.value for k in PATTERN_ORDER]
    points = []
    i = 0
    for exponent in NODE_EXPONENTS:
        base = weak_scaling_platform(2**exponent)
        for ff in FACTORS_F:
            for fs in FACTORS_S:
                plat = platform_to_dict(
                    base.scaled_rates(factor_f=ff, factor_s=fs)
                )
                for seed in range(N_SEEDS):
                    points.append(
                        ScenarioPoint(
                            mode="simulate",
                            kind=kinds[i % len(kinds)],
                            platform=plat,
                            n_patterns=N_PATTERNS,
                            n_runs=N_RUNS,
                            seed=20160523 + seed,
                            engine=engine,
                        )
                    )
                i += 1
    return points


def _time(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


@pytest.mark.benchmark(group="packed")
def test_packed_campaign_end_to_end(tmp_path, once):
    """Cold-cache campaign: packed planner vs per-point fast tier."""
    auto_points = _campaign_points("auto")
    fast_points = _campaign_points("fast")
    n_points = len(auto_points)

    # Warm the process-level memo caches (schedules, shape probes, rng
    # fingerprints) over the *same* configurations for both arms: a
    # tiny 2x1 pre-campaign touches every (pattern, platform) pair so
    # neither arm pays -- or is credited for -- one-off cache builds.
    warm = [
        ScenarioPoint.from_dict(
            {**p.to_dict(), "n_patterns": 2, "n_runs": 1}
        )
        for p in auto_points
    ]
    run_campaign(warm, n_workers=1)
    run_campaign(
        [ScenarioPoint.from_dict({**p.to_dict(), "engine": "fast"})
         for p in warm],
        n_workers=1,
    )

    t_perpoint, per_point = _time(
        lambda: run_campaign(
            fast_points,
            cache=str(tmp_path / "cache-perpoint"),
            n_workers=1,
        )
    )
    t_packed, packed = _time(
        lambda: once(
            run_campaign,
            auto_points,
            cache=str(tmp_path / "cache-packed"),
            n_workers=1,
        )
    )
    assert packed.n_packed == n_points

    # The invisibility contract: identical records (the engine request
    # differs -- auto vs fast -- but both resolve to fast-tier records).
    assert packed.records == per_point.records

    # -- engine-core comparison on the same configurations --------------
    metas = []
    for p in auto_points:
        config = p.configuration()
        metas.append((p, config.optimal, config.sim_platform))
    n_inst = N_PATTERNS * N_RUNS

    def solo_engine():
        for p, opt, sim_plat in metas:
            simulate_packed_batch([
                PackedJob(
                    opt.pattern, sim_plat, n_inst,
                    tier_rng(p.seed, opt.pattern, sim_plat, True),
                )
            ])

    t_solo_engine, _ = _time(solo_engine)
    jobs = [
        PackedJob(
            opt.pattern, sim_plat, n_inst,
            tier_rng(p.seed, opt.pattern, sim_plat, True),
        )
        for p, opt, sim_plat in metas
    ]
    t_packed_engine, _ = _time(lambda: simulate_packed_batch(jobs))
    sweep_stats = dict(last_batch_stats)

    e2e_speedup = t_perpoint / t_packed
    engine_speedup = t_solo_engine / t_packed_engine
    print(
        f"\n{n_points}-point campaign: per-point {t_perpoint:.2f}s, "
        f"packed {t_packed:.2f}s ({e2e_speedup:.2f}x end-to-end); "
        f"engine core {t_solo_engine * 1e3:.0f} ms vs "
        f"{t_packed_engine * 1e3:.0f} ms ({engine_speedup:.2f}x); "
        f"{sweep_stats.get('sweeps')} packed sweeps"
    )

    if not SMOKE:
        record = {
            "bench": "packed",
            "campaign": (
                f"{n_points} heterogeneous points "
                f"(2^{NODE_EXPONENTS[0]}..2^{NODE_EXPONENTS[-1]} nodes x "
                f"{len(FACTORS_F)}x{len(FACTORS_S)} rate factors x "
                f"{N_SEEDS} seeds), {N_PATTERNS}x{N_RUNS} MC per point"
            ),
            "n_points": n_points,
            "instances_per_point": n_inst,
            "perpoint_seconds": t_perpoint,
            "packed_seconds": t_packed,
            "speedup_e2e_packed_vs_perpoint": e2e_speedup,
            "solo_engine_seconds": t_solo_engine,
            "packed_engine_seconds": t_packed_engine,
            "speedup_engine_packed_vs_solo": engine_speedup,
            "packed_sweeps": sweep_stats.get("sweeps"),
            "points_per_second_packed": n_points / t_packed,
            "points_per_second_perpoint": n_points / t_perpoint,
            "target_note": (
                "issue target was >=5x e2e; measured decomposition shows "
                "the post-PR-2/3 per-point baseline spends ~1.5-2ms/point "
                "in one fast-engine call plus ~0.4ms/point of shared "
                "work (Table-1 optimisation, cache IO, record assembly) "
                "that the packed path must also perform, bounding the "
                "honest e2e ratio near 3.5x on this hardware; floors "
                "assert the honest numbers with CI headroom"
            ),
        }
        write_bench_record(BENCH_PATH, record)

    assert engine_speedup >= MIN_ENGINE_SPEEDUP
    assert e2e_speedup >= MIN_E2E_SPEEDUP


@pytest.mark.benchmark(group="packed")
def test_packed_records_survive_worker_fanout(tmp_path):
    """Multi-worker packed execution journals identical records."""
    points = _campaign_points("auto")[: 16 if SMOKE else 32]
    serial = run_campaign(points, n_workers=1)
    fanned = run_campaign(points, n_workers=2)
    assert serial.records == fanned.records
