"""Quantifying the first-order approximation's domain of validity.

The paper's model drops ``O(lambda)`` terms; Figure 7a shows the
prediction diverging from simulation beyond ~2^15 nodes.  This module
sweeps the platform scale and reports three overhead estimates side by
side for each point:

* ``H_first_order`` -- the Table-1 closed form;
* ``H_exact`` -- the exact recursive model at the same pattern;
* ``H_simulated`` -- Monte-Carlo (optional, slower; run as a
  ``weak_scaling`` campaign).

The ratio MTBF / W* is reported as the dimensionless regime indicator:
first-order accuracy degrades as it approaches 1.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.campaign.executor import run_campaign
from repro.core.builders import PatternKind
from repro.core.exact import exact_overhead
from repro.core.formulas import optimal_pattern
from repro.experiments.fig7 import weak_scaling_spec
from repro.io import format_table
from repro.platforms.scaling import weak_scaling_platform


def accuracy_sweep(
    node_counts: Sequence[int] = (2**8, 2**10, 2**12, 2**14, 2**16),
    *,
    kind: PatternKind = PatternKind.PD,
    C_D: float = 300.0,
    C_M: float = 15.4,
    simulate: bool = False,
    n_patterns: int = 40,
    n_runs: int = 15,
    seed: int = 20160612,
) -> List[Dict[str, Any]]:
    """First-order vs exact (vs simulated) overheads across scales.

    Returns one row per node count with the three estimates, the relative
    first-order error against the exact model, and the MTBF/W* regime
    indicator.
    """
    rows: List[Dict[str, Any]] = []
    for nodes in node_counts:
        plat = weak_scaling_platform(nodes, C_D=C_D, C_M=C_M)
        opt = optimal_pattern(kind, plat)
        guaranteed = kind in (PatternKind.PDV_STAR, PatternKind.PDMV_STAR)
        H_exact = exact_overhead(
            opt.pattern, plat, guaranteed_intermediate=guaranteed
        )
        row: Dict[str, Any] = {
            "nodes": nodes,
            "pattern": kind.value,
            "mtbf_over_W": plat.mtbf / opt.W_star,
            "H_first_order": opt.H_star,
            "H_exact": H_exact,
            "rel_error_fo_vs_exact": H_exact / opt.H_star - 1.0,
        }
        rows.append(row)
    if simulate:
        spec = weak_scaling_spec(
            node_counts,
            C_D=C_D,
            C_M=C_M,
            kinds=(kind,),
            n_patterns=n_patterns,
            n_runs=n_runs,
            seed=seed,
        )
        for row, rec in zip(rows, run_campaign(spec, n_workers=1).records):
            row["H_simulated"] = rec["simulated"]
    return rows


def render_accuracy_sweep(rows: List[Dict[str, Any]]) -> str:
    """Render the accuracy sweep as ASCII."""
    return format_table(
        rows,
        title="First-order model accuracy across platform scales",
    )
