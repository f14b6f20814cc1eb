#!/usr/bin/env python
"""Quickstart: optimal resilience patterns in five minutes.

This walks through the library's core workflow:

1. pick a platform (error rates + resilience costs);
2. compute the closed-form optimal pattern for each family (Table 1);
3. validate one prediction with a quick Monte-Carlo simulation;
4. inspect the resulting pattern structure.

Run: ``python examples/quickstart.py``
"""

from repro import PatternKind, hera, optimal_pattern, optimize_all_patterns
from repro.core.pattern import pattern_signature
from repro.io import format_table
from repro.simulation.runner import simulate_optimal_pattern


def main() -> None:
    platform = hera()
    print(f"Platform: {platform.name}")
    print(f"  fail-stop MTBF: {platform.mtbf_fail_stop_days:.1f} days")
    print(f"  silent MTBF:    {platform.mtbf_silent_days:.1f} days")
    print(f"  C_D={platform.C_D:g}s  C_M={platform.C_M:g}s  "
          f"V*={platform.V_star:g}s  V={platform.V:g}s (recall {platform.r})")
    print()

    # --- 1. closed-form optima for all six families -----------------------
    rows = []
    for kind, opt in optimize_all_patterns(platform).items():
        rows.append(
            {
                "pattern": kind.value,
                "period_h": opt.W_star / 3600.0,
                "segments(n)": opt.n,
                "chunks(m)": opt.m,
                "overhead_%": 100.0 * opt.H_star,
            }
        )
    print(format_table(rows, precision=2,
                       title="Optimal patterns on Hera (Table 1)"))
    print()

    # --- 2. validate the best pattern by simulation ------------------------
    best = optimal_pattern(PatternKind.PDMV, platform)
    print(f"Best pattern: {pattern_signature(best.pattern)}")
    print(f"  predicted overhead: {100 * best.H_star:.2f}%")
    result = simulate_optimal_pattern(
        PatternKind.PDMV, platform, n_patterns=100, n_runs=50, seed=2016
    )
    print(f"  simulated overhead: {100 * result.simulated_overhead:.2f}%  "
          f"({result.n_runs} runs x {result.n_patterns} patterns)")
    agg = result.aggregated
    print(f"  disk ckpts/hour: {agg.rates_per_hour['disk_checkpoints']:.2f}  "
          f"mem ckpts/hour: {agg.rates_per_hour['memory_checkpoints']:.2f}  "
          f"verifs/hour: {agg.rates_per_hour['verifications']:.1f}")
    print()

    # --- 3. the savings over plain Young/Daly ------------------------------
    base = optimal_pattern(PatternKind.PD, platform)
    saving = (base.H_star - best.H_star) / best.H_star
    print(f"PDMV cuts the overhead of the Young/Daly-style base pattern "
          f"by {100 * (1 - best.H_star / base.H_star):.0f}% "
          f"(PD pays {100 * saving:.0f}% more than PDMV).")


if __name__ == "__main__":
    main()
