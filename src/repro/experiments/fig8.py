"""Figure 8: weak scaling with reduced disk-checkpoint cost.

Identical to Figure 7 (:mod:`repro.experiments.fig7`) with ``C_D = 90``
seconds instead of 300 -- cheaper disk checkpoints shorten the optimal
period, raise the checkpointing frequency, and roughly halve the
extreme-scale overheads (the paper reports ~200% instead of ~500% at
``2^18`` nodes).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.fig7 import render_weak_scaling, run_weak_scaling

#: The reduced disk checkpoint cost of Figure 8.
FIG8_C_D = 90.0


def run_fig8(
    node_counts: Optional[Sequence[int]] = None,
    *,
    n_patterns: int = 50,
    n_runs: int = 20,
    seed: int = 20160608,
    engine: str = "auto",
) -> List[Dict[str, Any]]:
    """Run the Figure-8 campaign (weak scaling, ``C_D = 90``)."""
    return run_weak_scaling(
        node_counts,
        C_D=FIG8_C_D,
        n_patterns=n_patterns,
        n_runs=n_runs,
        seed=seed,
        engine=engine,
    )


def render_fig8(rows: List[Dict[str, Any]]) -> str:
    """Render the Figure-8 rows as ASCII."""
    return render_weak_scaling(rows, C_D=FIG8_C_D)
