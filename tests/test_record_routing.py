"""Record-level routing: every engine request gives the same records.

``engine="fast"`` runs a point as a packed batch of one through
:func:`~repro.campaign.executor.evaluate_point`; ``"packed"`` and
``"auto"`` points go through the packed mega-batch of
:func:`~repro.campaign.executor.evaluate_points`.  For hypothesis-drawn
families, platforms with fresh error rates, Monte-Carlo shapes, seeds
and both ``fail_stop_in_operations`` settings, the records of the three
requests must agree on every field but ``engine``, and each path's
record must equal the other's.

The record fields come from one assembler
(:func:`~repro.campaign.executor._packed_mc_fields_batch`) on every
tier; the second property checks them against the fields derived from
:func:`~repro.simulation.stats.aggregate_stats`, float for float, on
the step, fast-pd and fast tiers.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.executor import evaluate_point, evaluate_points
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.core.builders import PatternKind
from repro.platforms.catalog import PLATFORMS, get_platform
from repro.simulation.dispatch import EngineTier, select_engine
from repro.simulation.runner import run_monte_carlo


@st.composite
def simulate_points(draw):
    """A simulate point on a catalog platform with rescaled rates.

    The rate factors are drawn from a continuum, so nearly every point
    is a configuration the process has not seen before.
    """
    platform = get_platform(draw(st.sampled_from(sorted(PLATFORMS))))
    factors = st.floats(0.3, 3.0, allow_nan=False)
    platform = platform.scaled_rates(
        factor_f=draw(factors), factor_s=draw(factors)
    )
    return ScenarioPoint(
        mode="simulate",
        kind=draw(st.sampled_from([kind.value for kind in PatternKind])),
        platform=platform_to_dict(platform),
        n_patterns=draw(st.integers(1, 6)),
        n_runs=draw(st.integers(1, 4)),
        seed=draw(st.integers(0, 2**31 - 1)),
        fail_stop_in_operations=draw(st.booleans()),
    )


def _with_engine(point: ScenarioPoint, engine: str) -> ScenarioPoint:
    return ScenarioPoint.from_dict({**point.to_dict(), "engine": engine})


def _text(record) -> str:
    """Canonical JSON: NaN confidence bounds (one run) compare equal."""
    return json.dumps(record, sort_keys=True)


def _without_engine(record) -> str:
    return _text({k: v for k, v in record.items() if k != "engine"})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(point=simulate_points())
def test_fast_packed_and_auto_records_agree(point):
    points = [
        _with_engine(point, engine) for engine in ("fast", "packed", "auto")
    ]
    solo = [evaluate_point(p) for p in points]
    batched = evaluate_points(points)
    assert list(map(_text, batched)) == list(map(_text, solo))

    fast, packed, auto = solo
    assert (fast["engine"], packed["engine"]) == ("fast", "packed")
    assert _without_engine(packed) == _without_engine(fast)
    config = point.configuration()
    tier = select_engine(
        config.optimal.pattern,
        fail_stop_in_operations=point.fail_stop_in_operations,
    )
    assert auto["engine"] == tier.value
    if tier is EngineTier.FAST_GENERAL:
        assert _without_engine(auto) == _without_engine(fast)
    else:
        # A PD-shaped optimum without fail-stop errors in operations
        # runs on fast-pd, whose draws differ from the fast tier's.
        assert tier is EngineTier.FAST_PD
        assert _text(auto) == _text(
            evaluate_point(_with_engine(point, "fast-pd"))
        )


def _fields_from_aggregate(point, res):
    """The record fields, derived from ``aggregate_stats`` of the runs."""
    agg = res.aggregated
    lo, hi = agg.overhead_ci95()
    return {
        "n_patterns": int(point.n_patterns),
        "n_runs": int(point.n_runs),
        "seed": point.seed,
        "engine": res.engine,
        "predicted": float(res.predicted_overhead),
        "simulated": float(agg.mean_overhead),
        "std_overhead": float(agg.std_overhead),
        "ci95_low": float(lo),
        "ci95_high": float(hi),
        "mean_total_time": float(agg.mean_total_time),
        "disk_ckpts_per_hour": agg.rates_per_hour["disk_checkpoints"],
        "mem_ckpts_per_hour": agg.rates_per_hour["memory_checkpoints"],
        "verifs_per_hour": agg.rates_per_hour["verifications"],
        "disk_recoveries_per_day": agg.rates_per_day["disk_recoveries"],
        "mem_recoveries_per_day": agg.rates_per_day["memory_recoveries"],
        "disk_rec_per_pattern": agg.per_pattern["disk_recoveries"],
        "mem_rec_per_pattern": agg.per_pattern["memory_recoveries"],
    }


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    point=simulate_points(),
    engine=st.sampled_from(["step", "fast", "auto"]),
)
def test_record_fields_equal_aggregate_stats(point, engine):
    point = _with_engine(point, engine)
    record = evaluate_point(point)
    opt = point.configuration().optimal
    res = run_monte_carlo(
        opt.pattern,
        point.configuration().sim_platform,
        n_patterns=point.n_patterns,
        n_runs=point.n_runs,
        seed=point.seed,
        fail_stop_in_operations=point.fail_stop_in_operations,
        predicted_overhead=opt.H_star,
        engine=engine,
    )
    want = _fields_from_aggregate(point, res)
    assert _text({k: record[k] for k in want}) == _text(want)
