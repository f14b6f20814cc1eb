"""Figures 7 and 8: weak scaling on the Hera-derived platform.

The node count sweeps powers of two; per-node MTBFs stay fixed (Hera's
8.57 / 2.4 years), so platform rates grow linearly.  Figure 7 uses
``C_D = 300``; Figure 8 reduces it to ``C_D = 90``.  Panels covered:

* a -- predicted vs simulated overhead for ``PD`` and ``PDMV``;
* b -- period in hours;
* c -- disk/memory recoveries per pattern (``PDMV``);
* d -- ckpts/verifs per hour (``PDMV``);
* e -- disk/memory ckpts per hour (both patterns);
* f -- recoveries per day (``PDMV``).

The figure runs on the :mod:`repro.campaign` engine (the
``weak_scaling`` scenario), in process: Monte-Carlo points pack into
mega-batches and analytic points batch per family into one platform
grid.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec
from repro.core.builders import PatternKind
from repro.io import format_table

#: Node counts of the paper's sweep (2^8 .. 2^18).
PAPER_NODE_COUNTS = tuple(2**k for k in range(8, 19))

_MODEL_COLUMNS = (
    "nodes", "pattern", "predicted", "simulated", "W*_hours", "n*", "m*",
)

#: Row schema of the Monte-Carlo tiers, in presentation order.
WEAK_SCALING_COLUMNS = _MODEL_COLUMNS + (
    "disk_ckpts_per_hour",
    "mem_ckpts_per_hour",
    "verifs_per_hour",
    "disk_rec_per_pattern",
    "mem_rec_per_pattern",
    "disk_recoveries_per_day",
    "mem_recoveries_per_day",
)

#: Row schema of the analytic tier: no sampled operation frequencies,
#: plus the first-order-vs-exact divergence of panel 7a.
ANALYTIC_COLUMNS = _MODEL_COLUMNS + ("divergence", "H_numeric", "engine")


def weak_scaling_spec(
    node_counts: Optional[Sequence[int]] = None,
    *,
    C_D: float = 300.0,
    C_M: float = 15.4,
    kinds: Iterable[PatternKind] = (PatternKind.PD, PatternKind.PDMV),
    n_patterns: int = 50,
    n_runs: int = 20,
    seed: int = 20160607,
    engine: str = "auto",
) -> CampaignSpec:
    """The weak-scaling campaign spec (``weak_scaling`` scenario)."""
    params: Dict[str, Any] = {
        "C_D": C_D,
        "C_M": C_M,
        "kinds": [k.value for k in kinds],
    }
    if node_counts is not None:
        params["node_counts"] = [int(n) for n in node_counts]
    return CampaignSpec(
        name="weak_scaling",
        scenario="weak_scaling",
        params=params,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
        engine=engine,
    )


def run_weak_scaling(
    node_counts: Optional[Sequence[int]] = None,
    *,
    C_D: float = 300.0,
    C_M: float = 15.4,
    kinds: Iterable[PatternKind] = (PatternKind.PD, PatternKind.PDMV),
    n_patterns: int = 50,
    n_runs: int = 20,
    seed: int = 20160607,
    engine: str = "auto",
) -> List[Dict[str, Any]]:
    """Run the weak-scaling campaign (Figure 7 with defaults; Figure 8
    with ``C_D=90``); one row per (node count, pattern).  ``engine``
    selects the simulation tier (see :mod:`repro.simulation.dispatch`);
    ``"analytic"`` replaces the Monte-Carlo with the vectorised exact
    model (no sampled operation-frequency columns, adds the
    first-order-vs-exact ``divergence``)."""
    spec = weak_scaling_spec(
        node_counts,
        C_D=C_D,
        C_M=C_M,
        kinds=kinds,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
        engine=engine,
    )
    columns = (
        ANALYTIC_COLUMNS if engine == "analytic" else WEAK_SCALING_COLUMNS
    )
    records = run_campaign(spec, n_workers=1).records
    return [{c: rec[c] for c in columns} for rec in records]


def render_weak_scaling(rows: List[Dict[str, Any]], *, C_D: float = 300.0) -> str:
    """Render the weak-scaling rows as ASCII."""
    return format_table(
        rows,
        title=f"Weak scaling on Hera-derived platform (C_D = {C_D:g}s)",
    )
