"""End-to-end benchmark of ``repro``: the daemon and the campaign layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload request --seed 1 --seconds 10 --trace 0

Workloads (one simulate point per daemon request, 20 patterns x 5 runs,
every request a distinct cold point):

* ``request`` -- one client in a closed loop against the default daemon
  (in-process evaluation): the latency of a single request, which
  batching cannot help.
* ``burst``   -- 64 clients in a closed loop against the default daemon:
  micro-batching under concurrency.
* ``fleet``   -- 4 clients in a closed loop against a daemon with a
  two-process evaluation fleet and admission control on (limits never
  reached): bucket planning, process handoff and admission.
* ``campaign`` -- cold 128-point campaigns back to back through
  ``repro.run_campaign`` on its default worker pool, with a result
  cache and journal.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are end to end: latency median and 90th percentile of one
operation (a request, or a whole campaign) and points answered per
second, each the median over :data:`WINDOWS` windows of the run, and
set-up time, the median of :data:`SETUPS` fresh starts (a daemon up to
its first answer, or a ``repro campaign run`` of six points).  With
``--trace 1`` they are per layer: mean daemon span times per request
from ``/v1/trace`` (zero on the campaign workload, and for spans the
workload's daemon configuration does not produce), self time per
evaluated point of each layer from clocks placed around the calls into
it (:mod:`layers`), and the number of computed points and points per
engine batch.

``correct`` is false when an answer is malformed, when the canary
points differ from ``golden.json``, or when a sample of the answers
differs from the same points evaluated another way (in-process for the
daemon, one at a time and from the cache for campaigns).

Everything the benchmark writes goes under ``.perfbench/`` in the
working directory and is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
import tempfile
from statistics import median
from typing import Any, Callable, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import campaign  # noqa: E402  (benchmark modules; none imports repro)
import daemon  # noqa: E402
from inputs import BenchError  # noqa: E402

#: Workload name -> (its ``run`` function, workload-specific arguments).
WORKLOADS: Dict[str, Tuple[Callable[..., Dict[str, Any]], Dict[str, Any]]] = {
    "request": (daemon.run, {"clients": 1, "serve_args": ()}),
    "burst": (daemon.run, {"clients": 64, "serve_args": ()}),
    "fleet": (daemon.run, {
        "clients": 4,
        "serve_args": ("--eval-procs", "2", "--rate-rows-per-s", "1e9"),
    }),
    "campaign": (campaign.run, {}),
}

SETUPS = 7
WARMUP_POINTS = 1536
WARMUP_S = 0.5
REFERENCE_SAMPLE = 24
WINDOWS = 10


def _quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def end_to_end(raw: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Latency quantiles and throughput as medians over windows.

    The operations, in completion order, are cut into :data:`WINDOWS`
    windows of consecutive completions; each metric is computed per
    window and the median of the window values is reported.  A few
    seconds of interference from outside the program then move one
    window, not the result.
    """
    ops = sorted(raw["ops"])
    n = len(ops)
    cuts = [round(j * n / WINDOWS) for j in range(WINDOWS + 1)]
    p50, p90, rate = [], [], []
    t_prev = raw["t_start"]
    for lo, hi in zip(cuts, cuts[1:]):
        if hi <= lo:
            continue
        window = ops[lo:hi]
        latencies = [latency for _, latency, _ in window]
        p50.append(_quantile(latencies, 0.5))
        p90.append(_quantile(latencies, 0.9))
        t_end = window[-1][0]
        rate.append(sum(points for *_, points in window) / (t_end - t_prev))
        t_prev = t_end
    return {
        "latency_p50_ms": {"value": 1e3 * median(p50), "unit": "ms"},
        "latency_p90_ms": {"value": 1e3 * median(p90), "unit": "ms"},
        "throughput_pts_s": {"value": median(rate), "unit": "1/s"},
        "setup_s": {"value": median(raw["setup_times"]), "unit": "s"},
    }


def per_layer(raw: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    metrics: Dict[str, Dict[str, Any]] = {}
    for name in (*daemon.SPANS, "unattributed"):
        metrics[f"span_{name}_ms"] = {
            "value": raw["spans_ms"].get(name, 0.0), "unit": "ms",
        }
    for layer, us in raw["layer_us"].items():
        metrics[f"{layer}_us_per_pt"] = {"value": us, "unit": "us"}
    counts = raw["counts"]
    batches = counts["batches"]
    metrics["points_per_batch"] = {
        "value": counts["batch_points"] / batches if batches else 0.0,
        "unit": "count",
    }
    metrics["points_computed"] = {
        "value": counts["points_computed"], "unit": "count",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(
            f"perfbench: no repro sources under {ROOT}/src; run from a "
            "full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))

    run, options = WORKLOADS[args.workload]
    scratch = os.path.join(os.getcwd(), ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        raw = run(
            ROOT,
            workdir,
            seed=args.seed,
            seconds=args.seconds,
            traced=bool(args.trace),
            setups=SETUPS,
            warmup_points=WARMUP_POINTS,
            warmup_s=WARMUP_S,
            reference_sample=REFERENCE_SAMPLE,
            **options,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    for problem in raw["problems"][:20]:
        print(f"perfbench: incorrect: {problem}", file=sys.stderr)
    if args.trace:
        metrics = per_layer(raw)
        if raw["missing_layers"]:
            print(
                "perfbench: no layer clock on (its layer reads 0): "
                + ", ".join(raw["missing_layers"]),
                file=sys.stderr,
            )
    else:
        metrics = end_to_end(raw)
    print(json.dumps({
        "correct": not raw["problems"] and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
