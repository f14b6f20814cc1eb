"""Shared definitions of the golden regression fixtures.

The fixture families under ``tests/golden/``:

* ``engine_golden.json`` freezes the *bit-exact* ``SimulationStats`` the
  step engine produces for a small pattern x platform x fail-stop matrix
  under fixed seeds.  Any refactor that changes the engine's random draw
  order, cost accounting or control flow -- even in a statistically
  invisible way -- flips the fixture and fails
  ``tests/test_golden_engine.py``.
* ``table1_golden.json`` / ``table2_golden.json`` pin the analytic-layer
  outputs (Table-1 optima per platform, the Table-2 catalog including
  the batch-computed ``H*`` columns) so model-layer refactors are
  regression-pinned exactly like the step engine
  (``tests/test_golden_tables.py``; floats compared at ``rtol 1e-12``
  to absorb libm variation across builds).
* ``figures_golden.json`` pins the rows of the Figure 7-9 drivers and
  the simulated accuracy sweep on small Monte-Carlo sizes, exactly and
  in column order (``tests/test_golden_figures.py``).
* ``cold_sweep_golden.json`` pins, byte for byte, the records of an
  error-rate sweep in which every point is a configuration no other
  point shares: all six families, both ``fail_stop_in_operations``
  settings and the ``auto``, ``fast`` and ``packed`` engines
  (``tests/test_golden_cold_sweep.py``).

Regenerate deliberately with ``python tests/golden/regenerate.py`` after
an intended semantics change (and bump
:data:`repro.simulation.model.SEMANTICS_VERSION` for the engine fixture
or :data:`repro.core.batch.ANALYTIC_VERSION` for the table fixtures).
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from typing import Any, Dict, List

import numpy as np

from repro.core.builders import PatternKind, build_pattern
from repro.platforms.platform import Platform, default_costs
from repro.simulation.engine import PatternSimulator

GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "engine_golden.json"
)

#: Patterns of every structural family (shapes kept small so each case
#: runs in milliseconds but still exercises rollbacks and recoveries).
_PATTERNS = {
    "PD": build_pattern(PatternKind.PD, 800.0),
    "PDV": build_pattern(PatternKind.PDV, 800.0, m=3, r=0.8),
    "PDM": build_pattern(PatternKind.PDM, 800.0, n=2),
    "PDMV": build_pattern(PatternKind.PDMV, 800.0, n=2, m=3, r=0.8),
}

#: Two synthetic platforms with error rates high enough that five
#: patterns hit every code path (crashes, detections, escalations).
_PLATFORMS = {
    "balanced": Platform(
        name="balanced",
        nodes=4,
        lambda_f=4e-4,
        lambda_s=6e-4,
        costs=default_costs(C_D=20.0, C_M=2.0),
    ),
    "crashy": Platform(
        name="crashy",
        nodes=4,
        lambda_f=1.2e-3,
        lambda_s=2e-4,
        costs=default_costs(C_D=12.0, C_M=3.0, r=0.6),
    ),
}

N_PATTERNS = 5
SEED = 20260730


def compute_golden() -> List[Dict[str, Any]]:
    """Run the step engine over the golden matrix, fixed seeds."""
    cases: List[Dict[str, Any]] = []
    for pat_name, pattern in _PATTERNS.items():
        for plat_name, platform in _PLATFORMS.items():
            for fsio in (True, False):
                sim = PatternSimulator(
                    pattern, platform, fail_stop_in_operations=fsio
                )
                rng = np.random.default_rng(
                    [SEED, zlib.crc32(pat_name.encode()),
                     zlib.crc32(plat_name.encode()), int(fsio)]
                )
                stats = sim.run(N_PATTERNS, rng)
                cases.append(
                    {
                        "pattern": pat_name,
                        "platform": plat_name,
                        "fail_stop_in_operations": fsio,
                        "n_patterns": N_PATTERNS,
                        "stats": dataclasses.asdict(stats),
                    }
                )
    return cases


def write_golden() -> str:
    """Recompute the matrix and overwrite the frozen fixture."""
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    payload = {
        "comment": (
            "Bit-exact step-engine outputs; regenerate with "
            "tests/golden/regenerate.py after an intended semantics change."
        ),
        "seed": SEED,
        "cases": compute_golden(),
    }
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return GOLDEN_PATH


def load_golden() -> Dict[str, Any]:
    """Load the frozen fixture."""
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analytic-layer table fixtures
# ---------------------------------------------------------------------------

TABLE1_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "table1_golden.json"
)
TABLE2_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "table2_golden.json"
)

#: Platforms pinned by the Table-1 fixture.  ``include_numeric`` runs the
#: scipy period optimiser too, pinning the whole optimizer-in-the-loop
#: stack on one platform while keeping regeneration fast.
TABLE1_CASES = (
    {"platform": "hera", "include_numeric": True},
    {"platform": "atlas", "include_numeric": False},
    {"platform": "coastal", "include_numeric": False},
    {"platform": "coastal_ssd", "include_numeric": False},
)


def compute_table1_golden() -> List[Dict[str, Any]]:
    """Table-1 rows for the pinned platform cases (scalar path)."""
    from repro.experiments.table1 import run_table1
    from repro.platforms.catalog import get_platform

    cases: List[Dict[str, Any]] = []
    for case in TABLE1_CASES:
        rows = run_table1(
            get_platform(case["platform"]),
            include_exact=True,
            include_numeric=case["include_numeric"],
        )
        cases.append({**case, "rows": rows})
    return cases


def compute_table2_golden() -> Dict[str, Any]:
    """Table-2 rows, plain and with the analytic ``H*`` columns."""
    from repro.experiments.table2 import run_table2

    return {
        "plain": run_table2(),
        "analytic": run_table2(engine="analytic"),
    }


def _write_json(
    path: str, payload: Dict[str, Any], *, sort_keys: bool = True
) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=sort_keys)
        fh.write("\n")
    return path


def write_table_goldens() -> List[str]:
    """Recompute and overwrite both table fixtures."""
    comment = (
        "Analytic-layer outputs pinned at rtol 1e-12; regenerate with "
        "tests/golden/regenerate.py after an intended model change."
    )
    return [
        _write_json(
            TABLE1_GOLDEN_PATH,
            {"comment": comment, "cases": compute_table1_golden()},
        ),
        _write_json(
            TABLE2_GOLDEN_PATH,
            {"comment": comment, **compute_table2_golden()},
        ),
    ]


def load_table_golden(path: str) -> Dict[str, Any]:
    """Load a frozen table fixture."""
    with open(path) as fh:
        return json.load(fh)


PACKED_CAMPAIGN_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "packed_campaign_golden.json",
)


def packed_campaign_points():
    """The frozen heterogeneous campaign of the packed-execution fixture.

    Small enough to run in well under a second, heterogeneous enough to
    cover multiple families, platforms, seeds, both fail-stop settings
    and an explicit ``engine="packed"`` request.
    """
    from repro.campaign.spec import ScenarioPoint, platform_to_dict
    from repro.platforms.catalog import coastal, hera

    points = []
    for p_i, base in enumerate((hera(), coastal())):
        plat = platform_to_dict(base.scaled_rates(factor_f=1.0 + 0.5 * p_i))
        for kind in ("PD", "PDM", "PDMV"):
            for seed in (SEED + 1, SEED + 2):
                points.append(
                    ScenarioPoint(
                        mode="simulate",
                        kind=kind,
                        platform=plat,
                        n_patterns=10,
                        n_runs=4,
                        seed=seed,
                        fail_stop_in_operations=bool(p_i == 0),
                        engine="auto",
                    )
                )
    points.append(
        ScenarioPoint(
            mode="simulate",
            kind="PDMV*",
            platform=platform_to_dict(hera()),
            n_patterns=8,
            n_runs=2,
            seed=SEED + 3,
            engine="packed",
        )
    )
    return points


def compute_packed_campaign_golden() -> List[Dict[str, Any]]:
    """Evaluate the fixture campaign through the packed mega-batch path."""
    from repro.campaign.executor import evaluate_points

    return evaluate_points(packed_campaign_points())


def write_packed_campaign_golden() -> str:
    """Recompute and overwrite the packed-campaign fixture."""
    return _write_json(
        PACKED_CAMPAIGN_GOLDEN_PATH,
        {
            "comment": (
                "Packed-campaign records pinned at rtol 1e-12; regenerate "
                "with tests/golden/regenerate.py packed after an intended "
                "semantics change (and bump SEMANTICS_VERSION or "
                "PACKED_VERSION)."
            ),
            "records": compute_packed_campaign_golden(),
        },
    )


# ---------------------------------------------------------------------------
# figure fixtures (Figures 7-9 and the accuracy sweep)
# ---------------------------------------------------------------------------

FIGURES_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "figures_golden.json",
)

#: Small Monte-Carlo sizes: every case runs in well under a second.
FIGURE_MC = {"n_patterns": 4, "n_runs": 3}

#: Node counts of the weak-scaling cases: low, mid and high error regime.
FIGURE_NODES = (256, 4096, 65536)

#: Rate factors of the Figure-9 cases.
FIGURE_FACTORS = (0.5, 1.0, 2.0)


def compute_figures_golden() -> Dict[str, List[Dict[str, Any]]]:
    """Rows of every figure driver on small Monte-Carlo sizes.

    Keys name the case; values are the rows exactly as the public
    ``run_*`` functions return them (and the CLI prints them).
    """
    from repro.analysis.accuracy import accuracy_sweep
    from repro.experiments.fig7 import run_weak_scaling
    from repro.experiments.fig8 import run_fig8
    from repro.experiments.fig9 import (
        run_error_rate_grid,
        run_error_rate_sweep,
    )

    cases: Dict[str, List[Dict[str, Any]]] = {}
    for engine in ("auto", "fast", "step", "analytic"):
        cases[f"fig7_{engine}"] = run_weak_scaling(
            FIGURE_NODES, seed=SEED + 7, engine=engine, **FIGURE_MC
        )
    cases["fig8"] = run_fig8(FIGURE_NODES, seed=SEED + 8, **FIGURE_MC)
    cases["fig9_grid"] = run_error_rate_grid(
        FIGURE_FACTORS, seed=SEED + 9, **FIGURE_MC
    )
    for vary in ("f", "s"):
        cases[f"fig9_sweep_{vary}"] = run_error_rate_sweep(
            vary, FIGURE_FACTORS, seed=SEED + 10, **FIGURE_MC
        )
    for kind in (PatternKind.PD, PatternKind.PDMV_STAR):
        cases[f"accuracy_{kind.value}"] = accuracy_sweep(
            FIGURE_NODES, kind=kind, simulate=True, seed=SEED + 12,
            **FIGURE_MC,
        )
    return cases


def write_figures_golden() -> str:
    """Recompute and overwrite the figure fixture.

    Keys stay in row order: column order is part of what the CLI prints.
    """
    return _write_json(
        FIGURES_GOLDEN_PATH,
        {
            "comment": (
                "Figure-driver rows pinned exactly; regenerate with "
                "tests/golden/regenerate.py figures after an intended "
                "semantics change (and bump SEMANTICS_VERSION or "
                "ANALYTIC_VERSION)."
            ),
            "cases": compute_figures_golden(),
        },
        sort_keys=False,
    )


def load_figures_golden() -> Dict[str, List[Dict[str, Any]]]:
    """Load the frozen figure fixture's cases."""
    with open(FIGURES_GOLDEN_PATH) as fh:
        return json.load(fh)["cases"]


# ---------------------------------------------------------------------------
# cold error-rate sweep fixture
# ---------------------------------------------------------------------------

COLD_SWEEP_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "cold_sweep_golden.json",
)


def cold_sweep_points():
    """An error-rate grid over all six families, one fresh rate per point.

    Each (engine, fail-stop setting) pair sweeps its own factors, so no
    two points share a configuration: every point builds its Table-1
    optimum, op schedule and RNG fingerprint from scratch, as in a
    campaign sweeping error rates.
    """
    from dataclasses import replace

    from repro.campaign.spec import CampaignSpec

    kinds = [kind.value for kind in PatternKind]
    points = []
    for e_i, engine in enumerate(("auto", "fast", "packed")):
        for fsio in (True, False):
            offset = 0.01 * (2 * e_i + int(fsio) + 1)
            spec = CampaignSpec(
                name="cold-sweep",
                scenario="error_rate_sweep",
                params={
                    "vary": "grid",
                    "factors": [0.5 + offset, 1.5 + offset],
                    "kinds": kinds,
                },
                n_patterns=4,
                n_runs=3,
                seed=SEED + 20,
                engine=engine,
            )
            points.extend(
                replace(point, fail_stop_in_operations=fsio)
                for point in spec.points()
            )
    return points


def compute_cold_sweep_golden() -> List[Dict[str, Any]]:
    """Evaluate the cold sweep through the batch entry of every path."""
    from repro.campaign.executor import evaluate_points

    return evaluate_points(cold_sweep_points())


def write_cold_sweep_golden() -> str:
    """Recompute and overwrite the cold-sweep fixture."""
    return _write_json(
        COLD_SWEEP_GOLDEN_PATH,
        {
            "comment": (
                "Cold error-rate sweep records pinned exactly; regenerate "
                "with tests/golden/regenerate.py cold after an intended "
                "semantics change (and bump SEMANTICS_VERSION)."
            ),
            "records": compute_cold_sweep_golden(),
        },
    )


def load_cold_sweep_golden() -> List[Dict[str, Any]]:
    """Load the frozen cold-sweep records."""
    with open(COLD_SWEEP_GOLDEN_PATH) as fh:
        return json.load(fh)["records"]


# ---------------------------------------------------------------------------
# draw-identity fixture (the fast tier's solo batches)
# ---------------------------------------------------------------------------

DRAW_IDENTITY_GOLDEN_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden",
    "draw_identity_golden.json",
)

#: Seed of the draw-identity cases; case ``i`` of a group draws from
#: ``default_rng([DRAW_SEED, offset + i])``.
DRAW_SEED = 20260731


def _draw_platform(name: str, lambda_f: float, lambda_s: float) -> Platform:
    return Platform(
        name=name,
        nodes=2,
        lambda_f=lambda_f,
        lambda_s=lambda_s,
        costs=default_costs(C_D=15.0, C_M=2.0),
    )


def _optimised(kind: PatternKind, platform: Platform, fs: bool = True):
    """The Table-1 optimum of a family and its simulation platform."""
    from repro.core.formulas import optimal_pattern, simulation_costs

    opt = optimal_pattern(kind, platform)
    return opt.pattern, simulation_costs(kind, platform), fs


def draw_identity_configs():
    """Heterogeneous ``(pattern, platform, fail_stop)`` configurations.

    Every structural family, catalog and weak-scaled platforms, both
    fail-stop settings and the zero-rate corners (no silent errors, no
    fail-stop errors).
    """
    from repro.platforms.catalog import hera
    from repro.platforms.scaling import weak_scaling_platform

    return [
        _optimised(PatternKind.PDMV, hera()),
        _optimised(PatternKind.PDM, weak_scaling_platform(2**16)),
        _optimised(PatternKind.PD, hera(), fs=False),
        _optimised(PatternKind.PDV, weak_scaling_platform(2**14)),
        _optimised(PatternKind.PDMV_STAR, weak_scaling_platform(2**18)),
        (build_pattern(PatternKind.PDM, 900.0, n=3),
         _draw_platform("zs", 5e-4, 0.0), True),
        (build_pattern(PatternKind.PDV, 900.0, m=3, r=0.8),
         _draw_platform("zf", 0.0, 8e-4), True),
    ]


def stressed_configs():
    """Error rates x5-x20, both fail-stop settings, zero-rate corners.

    At these rates disk recoveries are themselves struck, so the retry
    rounds of the recovery loop run.
    """
    from repro.platforms.catalog import hera
    from repro.platforms.scaling import weak_scaling_platform

    w14 = weak_scaling_platform(2**14)
    fixed = build_pattern(PatternKind.PDMV, 4000.0, n=3, m=2)
    return [
        _optimised(PatternKind.PDMV, w14.scaled_rates(5, 5)),
        _optimised(PatternKind.PDMV, w14.scaled_rates(5, 5), fs=False),
        _optimised(PatternKind.PD, w14.scaled_rates(10, 10)),
        _optimised(PatternKind.PDV, hera().scaled_rates(10, 20)),
        _optimised(PatternKind.PDMV_STAR, hera().scaled_rates(20, 5),
                  fs=False),
        (fixed, hera().scaled_rates(20, 0), True),
        (fixed, hera().scaled_rates(0, 20), True),
        (fixed, hera().scaled_rates(0, 0), False),
    ]


def draw_identity_cases():
    """``name -> (pattern, platform, n_instances, seed, fail_stop)``.

    Three groups: ``solo/i`` (the configurations of
    :func:`draw_identity_configs`, ``200 + 40 i`` instances), ``mixed/i``
    (the PDMV optimum on Hera with fail-stop errors in operations on and
    off, 150 instances) and ``stressed/i`` (:func:`stressed_configs`,
    300 instances).
    """
    from repro.platforms.catalog import hera

    cases = {}
    for i, (pattern, platform, fs) in enumerate(draw_identity_configs()):
        cases[f"solo/{i}"] = (
            pattern, platform, 200 + 40 * i, [DRAW_SEED, i], fs
        )
    pdmv, platform, _ = _optimised(PatternKind.PDMV, hera())
    for i, fs in enumerate((True, False)):
        cases[f"mixed/{i}"] = (
            pdmv, platform, 150, [DRAW_SEED, 100 + i], fs
        )
    for i, (pattern, platform, fs) in enumerate(stressed_configs()):
        cases[f"stressed/{i}"] = (
            pattern, platform, 300, [DRAW_SEED, 200 + i], fs
        )
    return cases


def batch_digest(result) -> Dict[str, Any]:
    """``n``, the sums and a SHA-256 of each per-instance array's bytes."""
    import hashlib

    def entry(arr: np.ndarray) -> Dict[str, Any]:
        arr = np.ascontiguousarray(arr)
        return {
            "sha256": hashlib.sha256(arr.tobytes()).hexdigest(),
            "sum": arr.sum().item(),
        }

    return {
        "n": int(result.times.size),
        "pattern_work": float(result.pattern_work),
        "times": entry(result.times),
        "counters": {
            name: entry(result.counters[name])
            for name in sorted(result.counters)
        },
    }


def compute_draw_identity_golden() -> Dict[str, Dict[str, Any]]:
    """The fast tier's solo batch (a packed batch of one) of every case."""
    from repro.simulation.packed_engine import PackedJob, simulate_packed_batch

    out = {}
    for name, case in draw_identity_cases().items():
        pattern, platform, n, seed, fs = case
        job = PackedJob(
            pattern, platform, n, np.random.default_rng(seed),
            fail_stop_in_operations=fs,
        )
        (out[name],) = map(batch_digest, simulate_packed_batch([job]))
    return out


def write_draw_identity_golden() -> str:
    """Recompute and overwrite the draw-identity fixture."""
    return _write_json(
        DRAW_IDENTITY_GOLDEN_PATH,
        {
            "comment": (
                "Per-instance times and counters of the fast tier's solo "
                "batches, as SHA-256 digests of the array bytes plus n "
                "and the sums; regenerate with tests/golden/regenerate.py "
                "draws after an intended semantics change (and bump "
                "SEMANTICS_VERSION)."
            ),
            "cases": compute_draw_identity_golden(),
        },
    )


def load_draw_identity_golden() -> Dict[str, Dict[str, Any]]:
    """Load the frozen draw-identity digests."""
    with open(DRAW_IDENTITY_GOLDEN_PATH) as fh:
        return json.load(fh)["cases"]
