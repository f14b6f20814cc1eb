"""Benchmark: campaign engine -- cold vs warm cache, chunked vs unchunked.

Two claims are measured:

* a fully-cached re-run of a >= 100-point campaign costs (almost)
  nothing -- the acceptance bar is a >= 10x wall-time reduction;
* batching many small scenario points per pool task (the ``chunksize``
  heuristic) is never slower than one-future-per-point submission, and
  records stay bit-identical.  Step-engine points are used: they never
  pack, so every one of them goes through the chunked pool.
"""

import time

import pytest

from repro.campaign.cache import ResultCache
from repro.campaign.executor import available_cpus, run_campaign
from repro.campaign.spec import CampaignSpec, ScenarioPoint, platform_to_dict
from repro.platforms.platform import Platform, default_costs


@pytest.fixture
def tiny_platform() -> Platform:
    """Synthetic high-error-rate platform (mirrors the test fixture)."""
    return Platform(
        name="tiny",
        nodes=4,
        lambda_f=2e-4,
        lambda_s=3e-4,
        costs=default_costs(C_D=20.0, C_M=2.0),
    )


def _grid_spec() -> CampaignSpec:
    """A 128-point campaign: an 8x8 error-rate grid for two families."""
    factors = [round(0.2 + 0.25 * i, 2) for i in range(8)]
    return CampaignSpec(
        name="bench-grid",
        scenario="error_rate_sweep",
        params={"vary": "grid", "factors": factors, "kinds": ["PD", "PDMV"]},
        n_patterns=4,
        n_runs=3,
        seed=20160609,
    )


@pytest.mark.benchmark(group="campaign")
def test_campaign_cold_vs_warm_cache(tmp_path, once):
    """Warm (fully cached) re-run is >= 10x faster than the cold run."""
    spec = _grid_spec()
    cache = ResultCache(str(tmp_path / "cache"))

    t0 = time.perf_counter()
    cold = once(run_campaign, spec, cache=cache, n_workers=1)
    cold_time = time.perf_counter() - t0
    assert cold.n_computed == 128
    assert cache.stats().entries == 128

    t0 = time.perf_counter()
    warm = run_campaign(spec, cache=cache, n_workers=1)
    warm_time = time.perf_counter() - t0
    assert warm.n_computed == 0
    assert warm.n_from_cache == 128
    assert warm.records == cold.records

    print(
        f"\ncold {cold_time * 1e3:.1f} ms, warm {warm_time * 1e3:.1f} ms "
        f"({cold_time / warm_time:.1f}x speedup)"
    )
    assert cold_time / warm_time >= 10.0


@pytest.mark.benchmark(group="campaign")
def test_campaign_resume_from_journal(tmp_path, once):
    """A complete journal short-circuits the whole campaign."""
    spec = _grid_spec()
    journal = str(tmp_path / "journal.jsonl")
    run_campaign(spec, journal_path=journal, n_workers=1)

    t0 = time.perf_counter()
    resumed = once(run_campaign, spec, journal_path=journal, n_workers=1)
    resume_time = time.perf_counter() - t0
    assert resumed.n_computed == 0
    assert resumed.n_from_journal == 128
    print(f"\nresume of 128 journaled points: {resume_time * 1e3:.1f} ms")


@pytest.mark.benchmark(group="campaign")
def test_chunked_vs_unchunked_pool(tiny_platform, once):
    """Chunked submission amortises pool overhead for small points."""
    pdict = platform_to_dict(tiny_platform)
    points = [
        ScenarioPoint(
            mode="simulate",
            kind="PD",
            platform=pdict,
            n_patterns=1,
            n_runs=2,
            seed=99 + i,
            engine="step",
        )
        for i in range(256)
    ]
    workers = min(4, available_cpus())

    t0 = time.perf_counter()
    unchunked = run_campaign(points, n_workers=workers, chunksize=1)
    unchunked_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    chunked = once(run_campaign, points, n_workers=workers)
    chunked_time = time.perf_counter() - t0

    assert chunked.records == unchunked.records
    print(
        f"\nunchunked {unchunked_time * 1e3:.1f} ms, "
        f"chunked {chunked_time * 1e3:.1f} ms "
        f"({unchunked_time / chunked_time:.2f}x)"
    )
    # Chunking must not cost throughput (allow scheduling noise).
    assert chunked_time <= unchunked_time * 1.5
