#!/usr/bin/env python
"""Error-rate sensitivity at 100,000 nodes (Figure 9).

Sweeps the fail-stop and silent error rates around their nominal values on
the Hera-derived 100k-node platform and shows:

* how each pattern's period reacts (PD is pinned by silent errors, PDMV
  by fail-stop errors);
* how the two-level pattern's advantage grows with the silent rate.

Run: ``python examples/error_rate_study.py``
"""

import argparse

from repro.experiments.fig9 import (
    render_error_rate_sweep,
    run_error_rate_grid,
    run_error_rate_sweep,
)
from repro.io import format_table


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--patterns", type=int, default=10)
    args = parser.parse_args()

    mc = dict(n_patterns=args.patterns, n_runs=args.runs, seed=20160609)

    for vary in ("f", "s"):
        rows = run_error_rate_sweep(vary, factors=(0.2, 1.0, 2.0), **mc)
        print(render_error_rate_sweep(rows))
        print()

    grid = run_error_rate_grid(factors=(0.2, 1.0, 2.0), **mc)
    print(format_table(grid, title="Overhead surface (9a-c): "
                                   "PDMV vs PD and the PD - PDMV gap"))
    print()
    worst = max(grid, key=lambda r: r["difference"])
    print(
        f"Largest two-level saving on the sampled grid: "
        f"{100 * worst['difference']:.0f} points of overhead at "
        f"(factor_f={worst['factor_f']}, factor_s={worst['factor_s']})."
    )


if __name__ == "__main__":
    main()
