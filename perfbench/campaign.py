"""Campaign workload: cold campaigns through ``repro.run_campaign``.

Each campaign is a 128-point error-rate grid with fresh factors and a
fresh seed, run with a result cache and a new journal on the default
worker pool (one process per core) -- what ``repro campaign run`` does
for a campaign it has not seen.  Campaigns run back to back; one
campaign is one operation.  The pool also keeps the measurement steady:
a single busy process on a shared host runs at a speed that depends on
where the scheduler places it.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

import inputs
import layers
from inputs import BenchError

#: Points of the last campaign re-run one by one as the batching check.
SOLO_SAMPLE = 8


def setup_probe(root: str, workdir: str) -> Tuple[float, Optional[str]]:
    """Time a fresh ``repro campaign run`` of the canary set.

    The time covers interpreter start, imports, spec expansion, the
    first evaluation and writing the output.  Returns it with what was
    wrong with the output (``None`` when it matches the golden records).
    """
    os.makedirs(workdir)
    out = os.path.join(workdir, "canary.json")
    cmd = [
        sys.executable, "-m", "repro", "campaign", "run",
        *inputs.canary_cli_args(), "--workers", "1",
        "--cache-dir", os.path.join(workdir, "cache"),
        "--journal", os.path.join(workdir, "journal.jsonl"),
        "--json", out,
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=workdir, env=inputs.child_env(root),
        capture_output=True, timeout=120,
    )
    setup_s = time.perf_counter() - t0
    if proc.returncode != 0:
        raise BenchError(
            f"repro campaign run exited {proc.returncode}: "
            + proc.stderr.decode("utf-8", "replace")[-2000:]
        )
    with open(out) as fh:
        by_kind = {r.get("kind"): r for r in json.load(fh)}
    return setup_s, inputs.check_canaries(
        [by_kind.get(k, {}) for k in inputs.KINDS]
    )


def _run_one(cache_dir: str, journal: Optional[str], spec: Dict[str, Any]):
    from repro import CampaignSpec, run_campaign

    return run_campaign(
        CampaignSpec.from_dict(spec),
        cache=cache_dir,
        journal_path=journal,
    )


def _campaign_problems(spec: Dict[str, Any], result) -> List[str]:
    expected = inputs.CAMPAIGN_POINTS
    n = len(result.points)
    if n != expected or result.n_computed != n:
        return [
            f"{spec['name']}: {n} points, {result.n_computed} computed, "
            f"expected {expected} cold points"
        ]
    for point, record in zip(result.points, result.records):
        problem = inputs.record_problem(record)
        if problem is None and record.get("seed") != point.seed:
            problem = "record does not echo the point's seed"
        if problem is not None:
            return [f"{spec['name']}: {problem}"]
    return []


def _final_checks(
    cache_dir: str, seed: int, spec: Dict[str, Any], result
) -> List[str]:
    """Warm re-run from the cache, and a sample evaluated point by point."""
    from repro import run_campaign

    found = []
    warm = _run_one(cache_dir, None, spec)
    if warm.n_from_cache != len(warm.points):
        found.append("warm re-run recomputed points")
    for got, want in zip(warm.records, result.records):
        problem = inputs.mismatch(got, want)
        if problem is not None:
            found.append(f"warm re-run differs: {problem}")
            break
    for idx in random.Random(seed).sample(
        range(len(result.points)), SOLO_SAMPLE
    ):
        (solo,) = run_campaign([result.points[idx]], n_workers=1).records
        problem = inputs.mismatch(solo, result.records[idx])
        if problem is not None:
            found.append(f"point {idx} alone differs: {problem}")
    return found


def run(
    root: str,
    workdir: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    setups: int,
    warmup_points: int,
    **_: Any,
) -> Dict[str, Any]:
    """One campaign workload run; returns the raw measurements.

    Campaigns of at least ``warmup_points`` points in all run first, so
    the shared cache has its shard directories and lazy imports are
    done before timing.
    """
    probes = [
        setup_probe(root, os.path.join(workdir, f"probe{k}"))
        for k in range(setups)
    ]
    problems = [problem for _, problem in probes if problem is not None]
    clock = None
    if traced:
        spool = os.path.join(workdir, "layers")
        os.makedirs(spool)
        clock = layers.LayerClock(spool)
        missing = layers.install(clock)
    # One result cache for the whole run, as a user's cache outlives a
    # campaign: the warm-up creates its shard directories, and every
    # measured campaign still misses (new factors, new seed).
    cache_dir = os.path.join(workdir, "cache")

    def campaigns(tag: str, spec_seed: int, budget_s: float, least: int):
        """Run campaigns until ``budget_s`` has passed and at least
        ``least`` ran; yields each spec, result and wall time."""
        deadline = time.perf_counter() + budget_s
        index = 0
        while index < least or time.perf_counter() < deadline:
            spec = inputs.campaign_spec_dict(spec_seed, index)
            journal = os.path.join(workdir, f"{tag}{index}.jsonl")
            t0 = time.perf_counter()
            result = _run_one(cache_dir, journal, spec)
            yield spec, result, time.perf_counter() - t0
            index += 1

    warm_campaigns = -(-warmup_points // inputs.CAMPAIGN_POINTS)
    for _ in campaigns("warm", seed + 1, 0.0, warm_campaigns):
        pass
    base = clock.collect() if clock is not None else None

    ops: List[Tuple[float, float, int]] = []
    computed = 0
    t_start = time.perf_counter()
    for spec, result, dt in campaigns("c", seed, seconds, 1):
        ops.append((time.perf_counter(), dt, len(result.points)))
        computed += result.n_computed
        problems += _campaign_problems(spec, result)
        last = (spec, result)
    measured = clock.collect() if clock is not None else None
    problems += _final_checks(cache_dir, seed, *last)

    out: Dict[str, Any] = {
        "setup_times": [setup_s for setup_s, _ in probes],
        "t_start": t_start,
        "ops": ops,
        "attempted": len(ops),
        "failed": 0,
        "problems": problems,
    }
    if traced:
        measured_layers = layers.delta(measured, base)
        out["missing_layers"] = missing
        out["layer_us"] = layers.per_point_us(measured_layers)
        out["spans_ms"] = {}
        out["counts"] = {
            "points_computed": computed,
            "batches": measured_layers["batches"],
            "batch_points": measured_layers["batch_points"],
        }
    return out
