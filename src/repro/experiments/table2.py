"""Table 2: the platform parameter catalog.

Renders the four platforms with their error rates, derived MTBFs (the
paper quotes 12.2 days fail-stop / 3.4 days silent for Hera) and
checkpoint costs.  With ``engine="analytic"`` each row also carries the
optimal first-order overhead ``H*`` of every pattern family on that
platform, computed in one vectorised batch per family over the whole
catalog (:mod:`repro.core.batch`) -- the catalog summary the analytic
campaigns start from.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.io import format_table
from repro.platforms.catalog import PLATFORMS


def run_table2(*, engine: str = "auto") -> List[Dict[str, Any]]:
    """One row per catalog platform with rates, costs and derived MTBFs.

    ``engine="analytic"`` appends one ``H*_<family>`` column per pattern
    family (the batch-optimised first-order overhead on that platform).
    """
    platforms = [factory() for factory in PLATFORMS.values()]
    rows: List[Dict[str, Any]] = []
    for p in platforms:
        rows.append(
            {
                "platform": p.name,
                "nodes": p.nodes,
                "lambda_f": p.lambda_f,
                "lambda_s": p.lambda_s,
                "C_D": p.C_D,
                "C_M": p.C_M,
                "V*": p.V_star,
                "V": p.V,
                "r": p.r,
                "MTBF_f_days": p.mtbf_fail_stop_days,
                "MTBF_s_days": p.mtbf_silent_days,
            }
        )
    if engine == "analytic":
        from repro.core.batch import PlatformGrid, batch_optimal_patterns
        from repro.core.builders import PATTERN_ORDER

        grid = PlatformGrid.from_platforms(platforms)
        for kind in PATTERN_ORDER:
            opt = batch_optimal_patterns(kind, grid, refine_period=False)
            for i, row in enumerate(rows):
                row[f"H*_{kind.value}"] = float(opt.H_star[i])
    return rows


def render_table2(*, engine: str = "auto") -> str:
    """Render Table 2 as ASCII."""
    return format_table(
        run_table2(engine=engine), title="Table 2 -- platform parameters"
    )
