"""Seeded inputs and output checks shared by every workload.

Inputs depend only on ``--seed``: the work mix (pattern family,
platform, Monte-Carlo size) follows a fixed rotation, and the seed
picks the Monte-Carlo seeds and the campaign error-rate factors.
Every run therefore carries the same amount of work while no two
seeds share a cache key.

The canary set is the ``family_comparison`` scenario on Hera (six
pattern families) at a fixed seed; ``golden.json`` holds its records,
written by ``python3 perfbench/inputs.py --write-golden``.
"""

from __future__ import annotations

import json
import math
import os
import random
import sys
from typing import Any, Dict, List, Mapping, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")

KINDS = ("PD", "PDV*", "PDV", "PDM", "PDMV*", "PDMV")

#: Monte-Carlo size of one daemon request (patterns x runs).
REQUEST_PATTERNS = 20
REQUEST_RUNS = 5

#: One campaign: an 8x8 error-rate grid for two families (128 points).
CAMPAIGN_FACTORS = 8
CAMPAIGN_KINDS = ("PDMV", "PD")
CAMPAIGN_PATTERNS = 15
CAMPAIGN_RUNS = 8
CAMPAIGN_POINTS = CAMPAIGN_FACTORS ** 2 * len(CAMPAIGN_KINDS)

CANARY_SEED = 20160601

#: Fields every simulate record must carry.
CORE_FIELDS = ("kind", "H*", "W_star", "n*", "m*", "simulated", "predicted")


class BenchError(RuntimeError):
    """The program failed in a way that leaves nothing to measure."""


def child_env(root: str) -> Dict[str, str]:
    """Environment for a ``repro`` child process run from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
    )
    return env


def canary_points() -> List[Dict[str, Any]]:
    """Request-form points of the canary set (platform by name)."""
    return [
        {
            "kind": kind,
            "platform": "hera",
            "n_patterns": REQUEST_PATTERNS,
            "n_runs": REQUEST_RUNS,
            "seed": CANARY_SEED,
        }
        for kind in KINDS
    ]


def canary_cli_args() -> List[str]:
    """``repro campaign run`` flags that evaluate the canary set."""
    return [
        "--scenario", "family_comparison",
        "--set", "platform=hera",
        "--patterns", str(REQUEST_PATTERNS),
        "--runs", str(REQUEST_RUNS),
        "--seed", str(CANARY_SEED),
    ]


class RequestStream:
    """The daemon workloads' request sequence, generated on demand.

    Points come from the load generator's default mix
    (:func:`repro.loadgen.traces.make_trace`, no duplicates) at the
    benchmark's Monte-Carlo size, in chunks seeded from the stream's
    seed, so request ``i`` is the same for a given seed however fast
    clients consume the stream, and every request is a distinct cold
    point.  The first chunk is made on construction: a chunk takes a
    few milliseconds, which a client loop would otherwise spend inside
    the timed run.
    """

    CHUNK = 8192

    def __init__(self, seed: int):
        self._seed = seed
        self._points: List[Dict[str, Any]] = []
        self._taken = 0
        self._extend()

    def take(self) -> "tuple[int, Dict[str, Any]]":
        """Next ``(index, point)``."""
        i = self._taken
        if i == len(self._points):
            self._extend()
        self._taken += 1
        return i, self._points[i]

    def _extend(self) -> None:
        from repro.loadgen.traces import PointMix, make_trace

        chunk = len(self._points) // self.CHUNK
        events = make_trace(
            "constant",
            rate=self.CHUNK,
            duration_s=1.0,
            seed=random.Random(f"{self._seed}/{chunk}").randrange(2**31),
            mix=PointMix(n_patterns=REQUEST_PATTERNS, n_runs=REQUEST_RUNS),
        )
        self._points.extend(dict(event.point) for event in events)


def campaign_spec_dict(seed: int, index: int) -> Dict[str, Any]:
    """Campaign ``index`` of a run: fresh error-rate factors and seed.

    The factors sit within 1% of a fixed grid over [0.2, 2.0], so every
    campaign has new platforms (nothing is cached or memoised from an
    earlier one) but the same amount of work.
    """
    rng = random.Random(f"{seed}/{index}")
    step = 1.8 / (CAMPAIGN_FACTORS - 1)
    factors = [
        round((0.2 + k * step) * rng.uniform(0.99, 1.01), 6)
        for k in range(CAMPAIGN_FACTORS)
    ]
    return {
        "name": f"perfbench-{index}",
        "scenario": "error_rate_sweep",
        "params": {
            "vary": "grid",
            "factors": factors,
            "kinds": list(CAMPAIGN_KINDS),
        },
        "n_patterns": CAMPAIGN_PATTERNS,
        "n_runs": CAMPAIGN_RUNS,
        "seed": rng.randrange(1, 2**31),
    }


def scenario_point(request_point: Mapping[str, Any]):
    """The library ``ScenarioPoint`` for a request-form point."""
    from repro import ScenarioPoint, get_platform
    from repro.campaign.spec import platform_to_dict

    return ScenarioPoint(
        mode="simulate",
        kind=request_point["kind"],
        platform=platform_to_dict(get_platform(request_point["platform"])),
        n_patterns=request_point["n_patterns"],
        n_runs=request_point["n_runs"],
        seed=request_point["seed"],
    )


def record_problem(
    record: Mapping[str, Any], point: Optional[Mapping[str, Any]] = None
) -> Optional[str]:
    """Why a simulate record is malformed, or ``None`` if it is sound."""
    if "error" in record:
        return f"error record: {record['error']}"
    for name in CORE_FIELDS:
        if name not in record:
            return f"record lacks {name!r}"
    for name in ("simulated", "predicted", "H*", "W_star"):
        value = record[name]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            return f"{name}={value!r} is not a finite number"
    if point is not None:
        for name in ("kind", "n_patterns", "n_runs", "seed"):
            if record.get(name) != point[name]:
                return (
                    f"{name}={record.get(name)!r} does not echo the "
                    f"request's {point[name]!r}"
                )
    return None


def mismatch(
    got: Mapping[str, Any], want: Mapping[str, Any]
) -> Optional[str]:
    """First field on which two records of one point differ, if any.

    Compares the fields both carry (front ends add labels or planner
    columns), which must include the core fields; floats must match
    bit for bit.
    """
    shared = set(got) & set(want)
    for name in CORE_FIELDS:
        if name not in shared:
            return f"field {name!r} missing from one side"
    for name in sorted(shared):
        if name == "labels":
            continue
        if got[name] != want[name]:
            return f"{name}: {got[name]!r} != {want[name]!r}"
    return None


def load_golden() -> List[Dict[str, Any]]:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)["records"]


def check_canaries(records: Sequence[Mapping[str, Any]]) -> Optional[str]:
    """Compare canary answers (in :data:`KINDS` order) to the golden."""
    golden = load_golden()
    if len(records) != len(golden):
        return f"{len(records)} canary records, expected {len(golden)}"
    for kind, got, want in zip(KINDS, records, golden):
        problem = mismatch(got, want)
        if problem is not None:
            return f"canary {kind}: {problem}"
    return None


def reference_records(
    points: Sequence[Mapping[str, Any]]
) -> List[Dict[str, Any]]:
    """Records of request-form points from one in-process campaign."""
    from repro import run_campaign

    if not points:
        return []
    result = run_campaign(
        [scenario_point(p) for p in points], n_workers=1
    )
    return result.records


def _write_golden() -> None:
    records = reference_records(canary_points())
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(
            {"points": canary_points(), "records": records}, fh, indent=1
        )
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write-golden"]:
        sys.exit("usage: python3 perfbench/inputs.py --write-golden")
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    _write_golden()
