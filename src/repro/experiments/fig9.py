"""Figure 9: impact of the error rates on Hera at 100,000 nodes.

The nominal platform is Hera weak-scaled to ``10^5`` nodes; the sweeps
multiply ``lambda_f`` and ``lambda_s`` by factors in ``[0.2, 2.0]``:

* 9a-c -- simulated-overhead surfaces over the (factor_f, factor_s) grid
  for ``PDMV``, ``PD``, and their difference;
* 9d-g -- ``lambda_f`` sweep at nominal ``lambda_s``: period, verifs and
  ckpts per hour, recoveries per day;
* 9h-k -- ``lambda_s`` sweep at nominal ``lambda_f``: same series.

Both shapes run on the :mod:`repro.campaign` engine (the
``error_rate_sweep`` scenario), in process.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.campaign.executor import run_campaign
from repro.campaign.registry import FIG9_NODES
from repro.campaign.spec import CampaignSpec
from repro.core.builders import PatternKind
from repro.io import format_table
from repro.platforms.platform import Platform
from repro.platforms.scaling import weak_scaling_platform

#: The paper's factor range.
PAPER_FACTORS = tuple(np.round(np.arange(0.2, 2.01, 0.2), 2).tolist())

#: Row schema of the 1-D sweeps, in presentation order (``W*_minutes``
#: is derived from the record's ``W_star``).
SWEEP_COLUMNS = (
    "vary",
    "factor",
    "pattern",
    "predicted",
    "simulated",
    "W*_minutes",
    "disk_ckpts_per_hour",
    "mem_ckpts_per_hour",
    "verifs_per_hour",
    "disk_recoveries_per_day",
    "mem_recoveries_per_day",
)


def fig9_platform() -> Platform:
    """Hera weak-scaled to 100,000 nodes with nominal costs."""
    return weak_scaling_platform(FIG9_NODES, C_D=300.0, C_M=15.4)


def error_rate_spec(
    vary: str,
    factors: Optional[Sequence[float]] = None,
    *,
    kinds: Iterable[PatternKind] = (PatternKind.PDMV, PatternKind.PD),
    n_patterns: int = 20,
    n_runs: int = 10,
    seed: int = 20160610,
) -> CampaignSpec:
    """The Figure-9 campaign spec (``error_rate_sweep`` scenario);
    ``vary`` is ``"f"``, ``"s"`` or ``"grid"``."""
    params: Dict[str, Any] = {
        "vary": vary,
        "kinds": [k.value for k in kinds],
    }
    if factors is not None:
        params["factors"] = list(factors)
    return CampaignSpec(
        name="fig9",
        scenario="error_rate_sweep",
        params=params,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
    )


def run_error_rate_grid(
    factors: Optional[Sequence[float]] = None,
    *,
    kinds: Iterable[PatternKind] = (PatternKind.PDMV, PatternKind.PD),
    n_patterns: int = 20,
    n_runs: int = 10,
    seed: int = 20160609,
) -> List[Dict[str, Any]]:
    """The 9a-c overhead surfaces: one row per (factor_f, factor_s).

    Each row carries the simulated overhead of every requested pattern
    plus, when two kinds are given, their ``difference`` (second minus
    first: ``PD - PDMV``, the paper's "savings" panel, for the default
    order ``(PDMV, PD)``).
    """
    kinds = tuple(kinds)
    spec = error_rate_spec(
        "grid",
        factors,
        kinds=kinds,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
    )
    records = run_campaign(spec, n_workers=1).records
    # The scenario emits the kinds innermost: one cell per len(kinds)
    # consecutive records.
    rows: List[Dict[str, Any]] = []
    for i in range(0, len(records), len(kinds)):
        cell = records[i : i + len(kinds)]
        row: Dict[str, Any] = {
            "factor_f": cell[0]["factor_f"],
            "factor_s": cell[0]["factor_s"],
        }
        for rec in cell:
            row[f"simulated_{rec['pattern']}"] = rec["simulated"]
        if len(cell) == 2:
            row["difference"] = cell[1]["simulated"] - cell[0]["simulated"]
        rows.append(row)
    return rows


def run_error_rate_sweep(
    vary: str,
    factors: Optional[Sequence[float]] = None,
    *,
    kinds: Iterable[PatternKind] = (PatternKind.PDMV, PatternKind.PD),
    n_patterns: int = 20,
    n_runs: int = 10,
    seed: int = 20160610,
) -> List[Dict[str, Any]]:
    """The 1-D sweeps (9d-g for ``vary='f'``, 9h-k for ``vary='s'``).

    One row per (factor, pattern) with period, operation frequencies and
    recovery frequencies.
    """
    if vary not in ("f", "s"):
        raise ValueError(f"vary must be 'f' or 's', got {vary!r}")
    spec = error_rate_spec(
        vary,
        factors,
        kinds=kinds,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
    )
    records = run_campaign(spec, n_workers=1).records
    for rec in records:
        rec["W*_minutes"] = rec["W_star"] / 60.0
    return [{c: rec[c] for c in SWEEP_COLUMNS} for rec in records]


def render_error_rate_sweep(rows: List[Dict[str, Any]]) -> str:
    """Render a 1-D error-rate sweep as ASCII."""
    vary = rows[0]["vary"] if rows else "?"
    return format_table(
        rows,
        title=f"Figure 9 -- {vary} sweep on Hera x 100,000 nodes",
    )
