"""Sensitivity of the optimal patterns to the detector parameters.

The paper fixes the partial verification at ``V = V*/100`` and
``r = 0.8`` (Section 6.1) and notes that the accuracy-to-cost ratio is
what makes partial detectors attractive (Section 2.3).  These sweeps
quantify both knobs at the model level:

* :func:`recall_sweep` -- how ``H*`` and the optimal chunk count respond
  to the detector recall; as ``r -> 0`` the chunking degenerates
  (``m* -> 1``) and ``PDMV`` collapses onto ``PDM``;
* :func:`verification_cost_sweep` -- how ``H*`` responds to the detector
  cost; as ``V -> V*`` the partial detector stops paying for itself and
  ``PDMV`` meets ``PDMV*``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.registry import DEFAULT_COST_FRACTIONS, DEFAULT_RECALLS
from repro.core.builders import PatternKind
from repro.io import format_table
from repro.platforms.platform import Platform


def _sweep_campaign(
    scenario: str,
    platform: Platform,
    params: Dict[str, Any],
    *,
    cache=None,
    journal_path: Optional[str] = None,
):
    """Run one model-level sweep through the campaign engine."""
    from repro.campaign.executor import run_campaign
    from repro.campaign.spec import CampaignSpec, platform_to_dict

    spec = CampaignSpec(
        name=scenario,
        scenario=scenario,
        params={"platform": platform_to_dict(platform), **params},
    )
    return run_campaign(
        spec, cache=cache, journal_path=journal_path, n_workers=1
    )


def recall_sweep(
    platform: Platform,
    recalls: Sequence[float] = DEFAULT_RECALLS,
    *,
    kind: PatternKind = PatternKind.PDMV,
    cache=None,
    journal_path: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Sweep the partial-verification recall at fixed cost.

    Returns one row per recall with the optimised shape and overhead,
    plus the corresponding memory-checkpoint-only (``PDM``) and
    guaranteed-verification (``PDMV*``) anchors for context.  Runs as a
    ``recall_sweep`` campaign (``optimize``-mode points), so results are
    shareable through the campaign cache.
    """
    result = _sweep_campaign(
        "recall_sweep",
        platform,
        {"recalls": list(recalls), "kind": kind.value},
        cache=cache,
        journal_path=journal_path,
    )
    anchors = {
        rec["role"]: rec["H*"]
        for rec in result.records
        if rec.get("role", "").startswith("anchor")
    }
    return [
        {
            "recall": rec["recall"],
            "m*": rec["m*"],
            "n*": rec["n*"],
            "H*": rec["H*"],
            "H*_PDM": anchors["anchor_pdm"],
            "H*_PDMV_star": anchors["anchor_star"],
        }
        for rec in result.records
        if rec.get("role") == "sweep"
    ]


def verification_cost_sweep(
    platform: Platform,
    cost_fractions: Sequence[float] = DEFAULT_COST_FRACTIONS,
    *,
    kind: PatternKind = PatternKind.PDMV,
    cache=None,
    journal_path: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Sweep the partial-verification cost as a fraction of ``V*``."""
    result = _sweep_campaign(
        "verification_cost_sweep",
        platform,
        {"cost_fractions": list(cost_fractions), "kind": kind.value},
        cache=cache,
        journal_path=journal_path,
    )
    anchor_star = next(
        rec["H*"]
        for rec in result.records
        if rec.get("role") == "anchor_star"
    )
    return [
        {
            "V_over_Vstar": rec["V_over_Vstar"],
            "m*": rec["m*"],
            "n*": rec["n*"],
            "H*": rec["H*"],
            "H*_PDMV_star": anchor_star,
        }
        for rec in result.records
        if rec.get("role") == "sweep"
    ]


def render_sensitivity(rows: List[Dict[str, Any]], what: str) -> str:
    """Render one sweep as ASCII."""
    return format_table(rows, title=f"Sensitivity of PDMV to {what}")
