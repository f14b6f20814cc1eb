"""Zero resilience costs: every family x cost pair either optimises to a
finite pattern or is refused with a ``ValueError`` naming both.

A family whose Table-1 optimum divides by a cost (``V`` for PDV/PDMV,
``V*`` for PDV*/PDMV*, ``C_M`` for PDMV*) has no finite optimum when
that cost is zero.  The refusal happens when the (family, platform)
configuration is built and in the vectorised analytic optimiser, so the
daemon answers 400 and every batch path -- campaigns, jobs, the fleet --
refuses the point instead of evaluating it.
"""

import math

import pytest

from repro.campaign.cache import cache_key
from repro.campaign.executor import evaluate_points, run_campaign
from repro.campaign.spec import (
    Configuration,
    ScenarioPoint,
    _configuration,
    platform_to_dict,
)
from repro.core.batch import PlatformGrid, analytic_records, evaluate_analytic
from repro.core.builders import PATTERN_ORDER, PatternKind
from repro.core.formulas import optimal_pattern
from repro.platforms.catalog import hera
from repro.service.protocol import ProtocolError, point_from_request

COSTS = ("C_D", "C_M", "R_D", "R_M", "V_star", "V", "r")

#: The pairs without a finite optimum; every other pair optimises.
NO_OPTIMUM = {
    (PatternKind.PDV, "V"),
    (PatternKind.PDMV, "V"),
    (PatternKind.PDV_STAR, "V_star"),
    (PatternKind.PDMV_STAR, "V_star"),
    (PatternKind.PDMV_STAR, "C_M"),
}

MATRIX = [(kind, cost) for kind in PATTERN_ORDER for cost in COSTS]


def _zeroed(cost):
    return hera().with_costs(**{cost: 0.0})


@pytest.mark.parametrize(
    "kind,cost", MATRIX, ids=[f"{k.value}-{c}" for k, c in MATRIX]
)
def test_zero_cost_matrix(kind, cost):
    if cost == "r":  # a zero recall is not a platform at all
        with pytest.raises(ValueError, match="recall r"):
            _zeroed(cost)
        return
    platform = _zeroed(cost)
    if (kind, cost) not in NO_OPTIMUM:
        Configuration(kind, platform)
        opt = optimal_pattern(kind, platform)
        assert math.isfinite(opt.W_star) and opt.W_star > 0
        assert math.isfinite(opt.H_star) and opt.H_star > 0
        return
    message = rf"{kind.value} has no optimal pattern with {cost} = 0"
    with pytest.raises(ValueError, match=message.replace("*", r"\*")):
        Configuration(kind, platform)
    with pytest.raises(ValueError, match=message.replace("*", r"\*")):
        optimal_pattern(kind, platform)


def _zero_point(kind="PDMV*", cost="C_M", seed=5):
    pdict = platform_to_dict(_zeroed(cost))
    return ScenarioPoint(
        mode="simulate", kind=kind, platform=pdict,
        n_patterns=2, n_runs=2, seed=seed,
    )


def test_request_with_zero_divisor_cost_is_a_protocol_error():
    data = _zero_point(kind="PDV", cost="V").to_dict()
    with pytest.raises(ProtocolError, match="PDV has no optimal pattern"):
        point_from_request(data)


def test_failed_configuration_is_not_memoised():
    point = _zero_point(seed=None)
    before = _configuration.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match="C_M = 0"):
            point.configuration()
    assert _configuration.cache_info().currsize == before


@pytest.mark.parametrize("engine", ["auto", "analytic"])
def test_batch_layer_refuses_the_point(engine):
    """The batch entry every path shares (campaigns, jobs, the fleet)."""
    point = ScenarioPoint.from_dict(
        {**_zero_point().to_dict(), "engine": engine}
    )
    with pytest.raises(ValueError, match="PDMV\\* has no optimal pattern"):
        evaluate_points([point])


def test_analytic_grid_refuses_any_zero_cell():
    grid = PlatformGrid.from_platforms([hera(), _zeroed("C_M")])
    with pytest.raises(ValueError, match="C_M = 0"):
        analytic_records(PatternKind.PDMV_STAR, grid)
    with pytest.raises(ValueError, match="C_M = 0"):
        evaluate_analytic(PatternKind.PDMV_STAR, _zeroed("C_M"))


@pytest.mark.parametrize("engine", ["auto", "analytic"])
@pytest.mark.parametrize("workers", [1, 2])
def test_campaign_fails_without_journaling_the_point(
    tiny_platform, tmp_path, workers, engine
):
    good = ScenarioPoint(
        mode="simulate", kind="PD", platform=platform_to_dict(tiny_platform),
        n_patterns=2, n_runs=2, seed=1,
    )
    bad = ScenarioPoint.from_dict(
        {**_zero_point().to_dict(), "engine": engine}
    )
    journal = tmp_path / "j.jsonl"
    with pytest.raises(ValueError, match="PDMV\\* has no optimal pattern"):
        run_campaign(
            [good, bad], journal_path=str(journal), n_workers=workers
        )
    assert cache_key(bad) not in (
        journal.read_text() if journal.exists() else ""
    )
