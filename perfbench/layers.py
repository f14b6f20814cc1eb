"""Per-layer clocks placed around the calls into each layer of ``repro``.

Used only by traced runs (``--trace 1``).  :func:`install` replaces each
target function with a wrapper that accumulates *self time* -- the
call's duration minus the time spent in nested wrapped calls -- under a
layer name, so the layers partition the time spent inside them without
double counting.  Targets are looked up by dotted name; a target that
no longer exists is skipped and its layer reads 0, so a refactor of the
program degrades the breakdown instead of breaking the benchmark.

Every module-level alias of a wrapped function (``from x import f``
bindings made before :func:`install` ran) is rebound too, so the clock
sees calls however the caller spells them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(layer, module, attribute)``; the attribute may be ``Class.method``.
#: ``evaluate`` is the batch evaluation entry: its self time is the
#: point-building, engine-selection and job-packing work around the
#: named sub-layers, and its outermost calls count engine batches.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("evaluate", "repro.campaign.executor", "evaluate_points_packed"),
    ("evaluate", "repro.campaign.executor", "evaluate_points"),
    ("optimise", "repro.core.formulas", "optimal_pattern"),
    ("optimise", "repro.core.formulas", "simulation_costs"),
    ("rng", "repro.simulation.dispatch", "tier_rng"),
    ("engine", "repro.simulation.packed_engine", "simulate_packed_batch"),
    ("engine", "repro.simulation.runner", "run_monte_carlo"),
    ("assemble", "repro.campaign.executor", "_packed_mc_fields_batch"),
    ("assemble", "repro.campaign.executor", "_mc_record_fields"),
    ("assemble", "repro.campaign.executor", "_model_record"),
    ("cache_io", "repro.campaign.cache", "cache_key"),
    ("cache_io", "repro.campaign.cache", "ResultCache.get"),
    ("cache_io", "repro.campaign.cache", "ResultCache.get_many"),
    ("cache_io", "repro.campaign.cache", "ResultCache.put"),
    ("cache_io", "repro.campaign.cache", "ResultCache.put_many"),
    ("journal", "repro.campaign.executor", "Journal.append"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t[0] for t in TARGETS))


class LayerClock:
    """Self-time totals per layer, plus the evaluation batch counts.

    Worker processes forked after :func:`install` (a campaign's process
    pool, the daemon's evaluation fleet) inherit the wrappers.  Each starts its own totals and, when a
    ``spool`` directory is given, writes them there after every batch;
    :meth:`collect` adds them to this process's totals.
    """

    def __init__(self, spool: Optional[str] = None) -> None:
        self.spool = spool
        self._origin = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self._pid = os.getpid()
        # Reentrant: a snapshot may be taken from a signal handler that
        # interrupted this thread inside a wrapped call's update.
        self._lock = threading.RLock()
        self._local = threading.local()
        self.self_s: Dict[str, float] = {name: 0.0 for name in LAYERS}
        self.batches = 0
        self.batch_points = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        clock = self

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() != clock._pid:
                clock._reset()
            local = clock._local
            stack: List[float] = local.__dict__.setdefault("stack", [])
            depth = local.__dict__.get("eval_depth", 0)
            outermost_eval = layer == "evaluate" and depth == 0
            if layer == "evaluate":
                local.eval_depth = depth + 1
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                if layer == "evaluate":
                    local.eval_depth = depth
                with clock._lock:
                    clock.self_s[layer] += elapsed - nested
                    if outermost_eval:
                        clock.batches += 1
                        clock.batch_points += len(args[0]) if args else 0
                if outermost_eval and clock._pid != clock._origin:
                    clock._spool_out()

        return timed

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "batches": self.batches,
                "batch_points": self.batch_points,
            }

    def _spool_out(self) -> None:
        if self.spool is None:
            return
        path = os.path.join(self.spool, f"{self._pid}.json")
        with open(f"{path}.tmp", "w") as fh:
            json.dump(self.snapshot(), fh)
        os.replace(f"{path}.tmp", path)

    def collect(self) -> Dict[str, Any]:
        """This process's totals plus those spooled by its workers."""
        total = self.snapshot()
        names = os.listdir(self.spool) if self.spool is not None else []
        for name in names:
            if not name.endswith(".json"):
                continue
            with open(os.path.join(self.spool, name)) as fh:
                part = json.load(fh)
            for layer, seconds in part["self_s"].items():
                total["self_s"][layer] += seconds
            total["batches"] += part["batches"]
            total["batch_points"] += part["batch_points"]
        return total


def install(clock: LayerClock) -> List[str]:
    """Wrap every :data:`TARGETS` entry; returns the targets not found."""
    missing: List[str] = []
    replaced: Dict[int, Callable] = {}
    for layer, module_name, attr in TARGETS:
        try:
            owner: Any = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{attr}")
            continue
        *owner_path, name = attr.split(".")
        for part in owner_path:
            owner = getattr(owner, part, None)
        original = getattr(owner, name, None) if owner is not None else None
        if original is None or not callable(original):
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = clock.wrap(layer, original)
        setattr(owner, name, wrapped)
        if not owner_path:
            replaced[id(original)] = wrapped
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            wrapped = replaced.get(id(value))
            if wrapped is not None:
                setattr(module, key, wrapped)
    return missing


def delta(after: Dict[str, Any], before: Dict[str, Any]) -> Dict[str, Any]:
    """Totals accumulated between two snapshots of one clock."""
    return {
        "self_s": {
            layer: seconds - before["self_s"][layer]
            for layer, seconds in after["self_s"].items()
        },
        "batches": after["batches"] - before["batches"],
        "batch_points": after["batch_points"] - before["batch_points"],
    }


def per_point_us(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Layer self time in microseconds per evaluated point."""
    denom = max(1, snapshot["batch_points"])
    return {
        layer: 1e6 * seconds / denom
        for layer, seconds in snapshot["self_s"].items()
    }
