#!/usr/bin/env python
"""Regenerate the golden fixtures (step engine + analytic tables).

Usage (from the repository root)::

    python tests/golden/regenerate.py            # all fixtures
    python tests/golden/regenerate.py engine     # step engine only
    python tests/golden/regenerate.py tables     # table1/table2 only
    python tests/golden/regenerate.py packed     # packed campaign only
    python tests/golden/regenerate.py figures    # figures 7-9 + accuracy
    python tests/golden/regenerate.py cold       # cold error-rate sweep
    python tests/golden/regenerate.py draws      # fast-tier draw identity

Only run this after an *intended* semantics change, and bump the
matching version in the same commit so the campaign result cache does
not mix rows across generations:
``repro.simulation.model.SEMANTICS_VERSION`` for the engine fixture,
``repro.core.batch.ANALYTIC_VERSION`` for the table fixtures.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir))  # tests/ (golden_util)
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from golden_util import (  # noqa: E402
    write_cold_sweep_golden,
    write_draw_identity_golden,
    write_figures_golden,
    write_golden,
    write_packed_campaign_golden,
    write_table_goldens,
)

if __name__ == "__main__":
    what = sys.argv[1] if len(sys.argv) > 1 else "all"
    if what not in ("all", "engine", "tables", "packed", "figures", "cold",
                    "draws"):
        raise SystemExit(f"unknown fixture selector {what!r}")
    if what in ("all", "engine"):
        print(f"wrote {write_golden()}")
    if what in ("all", "tables"):
        for path in write_table_goldens():
            print(f"wrote {path}")
    if what in ("all", "packed"):
        print(f"wrote {write_packed_campaign_golden()}")
    if what in ("all", "figures"):
        print(f"wrote {write_figures_golden()}")
    if what in ("all", "cold"):
        print(f"wrote {write_cold_sweep_golden()}")
    if what in ("all", "draws"):
        print(f"wrote {write_draw_identity_golden()}")
