"""Benchmark: regenerate Figure 9 (error-rate impact at 100k nodes).

Covers the overhead surfaces (9a-c) and the lambda_f / lambda_s sweeps
(9d-k), asserting the paper's qualitative findings: PDMV is driven by
fail-stop errors, PD by silent errors, and the two-level saving grows
with the silent rate.
"""

import pytest

from repro.experiments.fig9 import (
    render_error_rate_sweep,
    run_error_rate_grid,
    run_error_rate_sweep,
)
from repro.io import format_table

FACTORS = (0.2, 1.0, 2.0)
# The vectorised engine makes paper-leaning Monte-Carlo sizes cheap;
# the heavy-rework corners (factor 2.0 at 100k nodes) need them for the
# qualitative assertions to sit clear of sampling noise.
MC = dict(n_patterns=100, n_runs=30, seed=20160609)


@pytest.mark.benchmark(group="fig9")
def test_fig9_overhead_surfaces(once):
    rows = once(run_error_rate_grid, FACTORS, **MC)
    print()
    print(format_table(rows, title="Figure 9a-c surfaces"))
    by = {(r["factor_f"], r["factor_s"]): r for r in rows}

    # 9a-b: overheads grow along both axes (check the corners).
    assert (
        by[(2.0, 2.0)]["simulated_PD"] > by[(0.2, 0.2)]["simulated_PD"]
    )
    assert (
        by[(2.0, 2.0)]["simulated_PDMV"] > by[(0.2, 0.2)]["simulated_PDMV"]
    )
    # 9c: the PD - PDMV gap grows with the silent rate at fixed lambda_f.
    assert by[(1.0, 2.0)]["difference"] > by[(1.0, 0.2)]["difference"]
    # PDMV never loses on the sampled grid.
    assert all(r["difference"] > -0.05 for r in rows)


@pytest.mark.benchmark(group="fig9")
def test_fig9_lambda_f_sweep(once):
    rows = once(run_error_rate_sweep, "f", FACTORS, **MC)
    print()
    print(render_error_rate_sweep(rows))
    by = {(r["factor"], r["pattern"]): r for r in rows}

    # 9d: PDMV's period is driven by lambda_f, PD's barely moves.
    pdmv_drop = (
        by[(0.2, "PDMV")]["W*_minutes"] / by[(2.0, "PDMV")]["W*_minutes"]
    )
    pd_drop = by[(0.2, "PD")]["W*_minutes"] / by[(2.0, "PD")]["W*_minutes"]
    assert pdmv_drop > 1.5
    assert pd_drop < pdmv_drop

    # 9g: disk recoveries/day track lambda_f.
    assert (
        by[(2.0, "PDMV")]["disk_recoveries_per_day"]
        > 2 * by[(0.2, "PDMV")]["disk_recoveries_per_day"]
    )


@pytest.mark.benchmark(group="fig9")
def test_fig9_lambda_s_sweep(once):
    rows = once(run_error_rate_sweep, "s", FACTORS, **MC)
    print()
    print(render_error_rate_sweep(rows))
    by = {(r["factor"], r["pattern"]): r for r in rows}

    # 9h: PD's period is driven by lambda_s; PDMV's is stable.
    pd_drop = by[(0.2, "PD")]["W*_minutes"] / by[(2.0, "PD")]["W*_minutes"]
    pdmv_drop = (
        by[(0.2, "PDMV")]["W*_minutes"] / by[(2.0, "PDMV")]["W*_minutes"]
    )
    assert pd_drop > 1.5
    assert pdmv_drop < pd_drop

    # 9i: PDMV compensates with more verifications and memory ckpts.
    assert (
        by[(2.0, "PDMV")]["verifs_per_hour"]
        > by[(0.2, "PDMV")]["verifs_per_hour"]
    )
    assert (
        by[(2.0, "PDMV")]["mem_ckpts_per_hour"]
        > by[(0.2, "PDMV")]["mem_ckpts_per_hour"]
    )

    # 9k: memory recoveries rise with the silent rate.
    assert (
        by[(2.0, "PDMV")]["mem_recoveries_per_day"]
        > by[(0.2, "PDMV")]["mem_recoveries_per_day"]
    )
