"""Experiment harness: one module per paper table/figure.

Every module exposes ``run_*`` functions returning structured rows (lists
of dicts) plus a ``render_*`` helper producing the ASCII table printed by
the CLI.  Default Monte-Carlo sizes are laptop-friendly; pass
``n_patterns=1000, n_runs=1000`` for paper-scale campaigns.
"""

from repro.io import (
    fmt,
    format_table,
    read_jsonl,
    write_csv,
    write_json,
    write_jsonl,
)
from repro.experiments.table1 import run_table1, render_table1
from repro.experiments.table2 import run_table2, render_table2
from repro.experiments.fig6 import run_fig6, render_fig6
from repro.experiments.fig7 import run_weak_scaling, render_weak_scaling
from repro.experiments.fig8 import run_fig8, render_fig8
from repro.experiments.fig9 import (
    run_error_rate_grid,
    run_error_rate_sweep,
    render_error_rate_sweep,
)
from repro.experiments.sensitivity import (
    recall_sweep,
    render_sensitivity,
    verification_cost_sweep,
)

__all__ = [
    "format_table",
    "fmt",
    "write_csv",
    "write_json",
    "write_jsonl",
    "read_jsonl",
    "run_table1",
    "render_table1",
    "run_table2",
    "render_table2",
    "run_fig6",
    "render_fig6",
    "run_weak_scaling",
    "render_weak_scaling",
    "run_fig8",
    "render_fig8",
    "run_error_rate_grid",
    "run_error_rate_sweep",
    "render_error_rate_sweep",
    "recall_sweep",
    "verification_cost_sweep",
    "render_sensitivity",
]
