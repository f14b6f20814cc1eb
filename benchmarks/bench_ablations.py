"""Ablation benchmarks for the design choices called out in DESIGN.md.

* beta-shape ablation: the paper's 1/r-weighted chunks vs equal chunks;
* integer-rounding ablation: Theorem-4 rounding vs exhaustive search;
* first-order vs exact period: how much the Taylor expansion costs;
* Section-5 robustness: faults during resilience operations shift the
  overhead by O(lambda) only.
"""

import pytest

from repro.core.builders import PatternKind, build_pattern
from repro.core.exact import exact_overhead
from repro.core.firstorder import decompose_overhead
from repro.core.formulas import optimal_pattern
from repro.core.optimizer import optimize_period, refine_integer_parameters
from repro.core.pattern import Pattern
from repro.io import format_table
from repro.platforms.catalog import PLATFORMS, hera
from repro.simulation.runner import run_monte_carlo


@pytest.mark.benchmark(group="ablations")
def test_beta_shape_ablation(once):
    """Equal chunks vs the paper's optimal beta* in PDV."""

    def campaign():
        rows = []
        for name, factory in PLATFORMS.items():
            plat = factory()
            opt = optimal_pattern(PatternKind.PDV, plat)
            equal = Pattern(
                W=opt.W_star,
                alpha=(1.0,),
                betas=(tuple([1.0 / opt.m] * opt.m),),
            )
            d_opt = decompose_overhead(opt.pattern, plat)
            d_eq = decompose_overhead(equal, plat)
            rows.append(
                {
                    "platform": name,
                    "m": opt.m,
                    "H_beta_star": d_opt.optimal_overhead,
                    "H_equal_chunks": d_eq.optimal_overhead,
                    "penalty_%": 100
                    * (d_eq.optimal_overhead / d_opt.optimal_overhead - 1),
                }
            )
        return rows

    rows = once(campaign)
    print()
    print(format_table(rows, title="beta* vs equal chunks (PDV)"))
    for r in rows:
        # beta* is never worse; with r = 0.8 the penalty is small but real.
        assert r["H_equal_chunks"] >= r["H_beta_star"] - 1e-12


@pytest.mark.benchmark(group="ablations")
def test_integer_rounding_ablation(once):
    """Theorem-4 neighbour rounding vs a wide exhaustive integer search."""

    def campaign():
        rows = []
        plat = hera()
        for kind in (PatternKind.PDM, PatternKind.PDV, PatternKind.PDMV):
            opt = optimal_pattern(kind, plat)
            n_w, m_w = refine_integer_parameters(kind, plat, window=6)
            rows.append(
                {
                    "pattern": kind.value,
                    "n_rounded": opt.n,
                    "m_rounded": opt.m,
                    "n_wide": n_w,
                    "m_wide": m_w,
                }
            )
        return rows

    rows = once(campaign)
    print()
    print(format_table(rows, title="Integer rounding vs exhaustive search"))
    for r in rows:
        assert (r["n_rounded"], r["m_rounded"]) == (r["n_wide"], r["m_wide"])


@pytest.mark.benchmark(group="ablations")
def test_first_order_period_cost(once):
    """How much overhead does using W*_first-order (vs exact-optimal) cost?"""

    def campaign():
        rows = []
        plat = hera()
        for kind in (PatternKind.PD, PatternKind.PDMV):
            opt = optimal_pattern(kind, plat)
            guaranteed = kind is PatternKind.PDMV_STAR
            H_at_fo = exact_overhead(
                opt.pattern, plat, guaranteed_intermediate=guaranteed
            )
            W_num, H_num = optimize_period(kind, plat, opt.n, opt.m)
            rows.append(
                {
                    "pattern": kind.value,
                    "W_fo_h": opt.W_star / 3600,
                    "W_exact_h": W_num / 3600,
                    "H_at_W_fo": H_at_fo,
                    "H_at_W_exact": H_num,
                    "loss_%": 100 * (H_at_fo / H_num - 1),
                }
            )
        return rows

    rows = once(campaign)
    print()
    print(format_table(rows, title="First-order period vs exact-optimal"))
    for r in rows:
        assert r["H_at_W_fo"] >= r["H_at_W_exact"] - 1e-12
        # On Table-2 platforms the first-order period is near-optimal:
        # using it costs well under 1% extra overhead.
        assert r["loss_%"] < 1.0


@pytest.mark.benchmark(group="ablations")
def test_section5_fault_vulnerable_operations(once):
    """Section 5: letting faults strike ckpts/verifs/recoveries changes
    the simulated overhead by O(lambda) only."""

    def campaign():
        plat = hera()
        opt = optimal_pattern(PatternKind.PDMV, plat)
        base = dict(n_patterns=80, n_runs=25, seed=55)
        vulnerable = run_monte_carlo(
            opt.pattern, plat, fail_stop_in_operations=True, **base
        )
        protected = run_monte_carlo(
            opt.pattern, plat, fail_stop_in_operations=False, **base
        )
        return vulnerable, protected

    vulnerable, protected = once(campaign)
    hv = vulnerable.simulated_overhead
    hp = protected.simulated_overhead
    print(f"\noverhead vulnerable={hv:.4f} protected={hp:.4f} "
          f"delta={hv - hp:+.4f}")
    # The delta is O(lambda): far below the overhead itself.
    assert abs(hv - hp) < 0.01
