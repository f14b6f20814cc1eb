"""Figure 6: all six patterns on the four Table-2 platforms.

Five panels, all produced from one Monte-Carlo campaign per
(platform, pattern) cell:

* 6a -- predicted vs simulated overhead;
* 6b -- optimal period ``W*`` in hours;
* 6c -- checkpoints + verifications per hour;
* 6d -- disk/memory checkpoints per hour (zoom of 6c);
* 6e -- disk/memory recoveries per day.

The figure is expressed on the :mod:`repro.campaign` engine (the
``platform_catalog`` scenario): pass ``cache``/``journal_path`` to make
repeated or interrupted regenerations incremental, ``n_workers > 1`` for
chunked process-parallel execution.  Numbers are identical to the legacy
per-cell loop for the same seed.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Union

from repro.core.builders import PatternKind
from repro.io import format_table
from repro.platforms.platform import Platform

#: The legacy row schema, in presentation order.
FIG6_COLUMNS = (
    "platform",
    "pattern",
    "predicted",
    "simulated",
    "W*_hours",
    "n*",
    "m*",
    "disk_ckpts_per_hour",
    "mem_ckpts_per_hour",
    "verifs_per_hour",
    "disk_recoveries_per_day",
    "mem_recoveries_per_day",
)


def fig6_spec(
    platforms: Optional[Iterable[Union[Platform, str]]] = None,
    *,
    kinds: Optional[Iterable[PatternKind]] = None,
    n_patterns: int = 100,
    n_runs: int = 50,
    seed: int = 20160523,
    engine: str = "auto",
):
    """The Figure-6 campaign spec (``platform_catalog`` scenario)."""
    from repro.campaign.spec import CampaignSpec

    params: Dict[str, Any] = {}
    if platforms is not None:
        params["platforms"] = list(platforms)
    if kinds is not None:
        params["kinds"] = [
            k.value if isinstance(k, PatternKind) else k for k in kinds
        ]
    return CampaignSpec(
        name="fig6",
        scenario="platform_catalog",
        params=params,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
        engine=engine,
    )


def run_fig6(
    platforms: Optional[Iterable[Union[Platform, str]]] = None,
    *,
    kinds: Optional[Iterable[PatternKind]] = None,
    n_patterns: int = 100,
    n_runs: int = 50,
    seed: int = 20160523,
    cache=None,
    journal_path: Optional[str] = None,
    n_workers: int = 1,
    engine: str = "auto",
) -> List[Dict[str, Any]]:
    """Run the Figure-6 campaign; one row per (platform, pattern).

    Row keys cover every panel: ``predicted``/``simulated`` (6a),
    ``W*_hours`` (6b), ``verifs_per_hour``/``*_ckpts_per_hour`` (6c, 6d)
    and ``*_recoveries_per_day`` (6e).  ``engine`` selects the simulation
    tier (see :mod:`repro.simulation.dispatch`).
    """
    from repro.campaign.executor import run_campaign

    result = run_campaign(
        fig6_spec(
            platforms,
            kinds=kinds,
            n_patterns=n_patterns,
            n_runs=n_runs,
            seed=seed,
            engine=engine,
        ),
        cache=cache,
        journal_path=journal_path,
        n_workers=n_workers,
    )
    return [{c: rec[c] for c in FIG6_COLUMNS} for rec in result.records]


def render_fig6(rows: List[Dict[str, Any]]) -> str:
    """Render the Figure-6 rows as ASCII."""
    return format_table(
        rows,
        title=(
            "Figure 6 -- patterns on real platforms "
            "(overheads, periods, operation frequencies)"
        ),
    )
