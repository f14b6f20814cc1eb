"""Table 1: optimal parameters and overheads of the six pattern families.

For a given platform, produces one row per family with the closed-form
``W*``, integer ``n*``/``m*``, continuous relaxations, the predicted
overhead ``H*`` and (optionally) the exact-model and numerically optimal
overheads for comparison.

Two evaluation paths produce the same rows: the scalar closed forms
(default) and, with ``engine="analytic"``, the vectorised model layer of
:mod:`repro.core.batch` -- the batch path the surface campaigns run on.
The differential harness pins the two to each other, so the table is
also a cheap end-to-end check of the analytic tier.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.core.builders import PATTERN_ORDER, PatternKind
from repro.core.exact import exact_overhead
from repro.core.formulas import continuous_overhead, optimal_pattern
from repro.core.optimizer import numeric_optimal_pattern
from repro.io import format_table
from repro.platforms.platform import Platform


def _run_table1_analytic(
    platform: Platform,
    *,
    include_exact: bool,
    include_numeric: bool,
) -> List[Dict[str, Any]]:
    """The Table-1 rows computed on the vectorised analytic tier."""
    from repro.core.batch import (
        PlatformGrid,
        batch_exact_overhead,
        batch_optimal_patterns,
    )

    grid = PlatformGrid.from_platforms([platform])
    rows: List[Dict[str, Any]] = []
    for kind in PATTERN_ORDER:
        opt = batch_optimal_patterns(
            kind, grid, refine_period=include_numeric
        )
        row: Dict[str, Any] = {
            "pattern": kind.value,
            "W*_hours": float(opt.W_star[0]) / 3600.0,
            "n*": int(opt.n[0]),
            "m*": int(opt.m[0]),
            "n_cont": float(opt.n_cont[0]),
            "m_cont": float(opt.m_cont[0]),
            "H*": float(opt.H_star[0]),
            "H*_continuous": continuous_overhead(kind, platform),
        }
        if include_exact:
            row["H_exact"] = float(
                batch_exact_overhead(kind, grid, opt.W_star, opt.n, opt.m)[0]
            )
        if include_numeric:
            row["W_numeric_hours"] = float(opt.W[0]) / 3600.0
            row["H_numeric"] = float(opt.overhead[0])
        rows.append(row)
    return rows


def run_table1(
    platform: Platform,
    *,
    include_exact: bool = True,
    include_numeric: bool = False,
    engine: str = "auto",
) -> List[Dict[str, Any]]:
    """Compute the Table-1 realisation on one platform.

    Parameters
    ----------
    include_exact:
        Add the exact-model overhead of the closed-form configuration.
    include_numeric:
        Add the numerically optimal period/overhead (slower).
    engine:
        ``"analytic"`` computes the rows on the vectorised batch path
        (:mod:`repro.core.batch`); any other value uses the scalar
        closed forms.  The numbers agree to ``rtol = 1e-12``.
    """
    if engine == "analytic":
        return _run_table1_analytic(
            platform,
            include_exact=include_exact,
            include_numeric=include_numeric,
        )
    rows: List[Dict[str, Any]] = []
    for kind in PATTERN_ORDER:
        opt = optimal_pattern(kind, platform)
        row: Dict[str, Any] = {
            "pattern": kind.value,
            "W*_hours": opt.W_star / 3600.0,
            "n*": opt.n,
            "m*": opt.m,
            "n_cont": opt.n_cont,
            "m_cont": opt.m_cont,
            "H*": opt.H_star,
            "H*_continuous": continuous_overhead(kind, platform),
        }
        if include_exact:
            guaranteed = kind in (PatternKind.PDV_STAR, PatternKind.PDMV_STAR)
            row["H_exact"] = exact_overhead(
                opt.pattern, platform, guaranteed_intermediate=guaranteed
            )
        if include_numeric:
            num = numeric_optimal_pattern(kind, platform)
            row["W_numeric_hours"] = num.W / 3600.0
            row["H_numeric"] = num.overhead
        rows.append(row)
    return rows


def render_table1(platform: Platform, **kwargs: Any) -> str:
    """Render the Table-1 realisation as ASCII."""
    rows = run_table1(platform, **kwargs)
    return format_table(
        rows, title=f"Table 1 -- optimal patterns on {platform.name}"
    )
