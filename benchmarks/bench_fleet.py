"""Benchmark: process-fleet evaluation and admission under overload.

Three gates, two of them unconditional:

* **Bit-identity** (always): :class:`repro.campaign.pool.EvalFleet`
  records under 1 / 2 / 4 workers are field-by-field identical to solo
  :func:`repro.campaign.executor.evaluate_point` runs -- ``tier_rng``'s
  placement invariance makes the worker count invisible in results.
* **Throughput** (floor scaled to the machine): one compute-heavy
  batch evaluated in-process vs through the fleet.  The target of the
  exercise is >= 1.8x on a >= 4-core box; a 2-3-core box is asserted
  at >= 1.2x and a single-core box (where extra processes cannot buy
  throughput, only cost IPC) at a bounded-overhead floor.  The
  measured core count and the applied floor are recorded in
  ``BENCH_fleet.json`` so a reader knows which regime produced the
  number -- the same honesty discipline the parallel bench uses.
* **Overload correctness** (always): a rate-limited daemon driven past
  its admission budget must answer *every* rejected request with a
  clean ``429`` (carrying ``Retry-After``) or ``503`` -- no transport
  errors, no timeouts -- and its admitted-row queue must drain back to
  zero (bounded, not merely slow).

Both measured arms land in one ``BENCH_fleet.json`` record.  Smoke
mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the workload and
leaves the trajectory file untouched.
"""

import os
import time

import pytest

from _history import write_bench_record
from repro.campaign.executor import (
    available_cpus,
    evaluate_point,
    evaluate_points,
)
from repro.campaign.pool import EvalFleet
from repro.loadgen.replay import WorkloadReplayer
from repro.loadgen.traces import TraceEvent
from repro.service.protocol import point_from_request
from repro.service.server import BackgroundService

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_fleet.json",
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

KINDS = ("PD", "PDV", "PDM", "PDMV*", "PDMV")

#: Compute-heavy throughput workload (per arm).
N_POINTS = 8 if SMOKE else 24
N_PATTERNS = 10 if SMOKE else 40
N_RUNS = 4 if SMOKE else 10

#: Overload arm: requests fired at once vs. the admission budget.
N_OVERLOAD = 8 if SMOKE else 24


def _fleet_floor(cores: int):
    """The throughput floor this machine is held to, with its label."""
    if cores >= 4:
        return 1.8, f"{cores} cores: full >= 1.8x scaling target"
    if cores >= 2:
        return 1.2, f"{cores} cores: reduced >= 1.2x target"
    return 0.35, (
        "1 core: no parallel speedup is physically available; the "
        "fleet is asserted at bounded overhead (>= 0.35x in-process "
        "throughput), and the 1.8x target applies on >= 4-core runners"
    )


def _points(arm: int, n: int = None, rows=None):
    rows = rows or (N_PATTERNS, N_RUNS)
    base_seed = 61_000_000 + arm * 1_000_000
    return [
        point_from_request(
            {
                "mode": "simulate",
                "kind": KINDS[i % len(KINDS)],
                "platform": "hera",
                "n_patterns": rows[0],
                "n_runs": rows[1],
                "seed": base_seed + i,
            }
        )
        for i in range(n if n is not None else N_POINTS)
    ]


def _measure_throughput():
    """In-process vs fleet wall time on one compute-heavy batch."""
    cores = available_cpus()
    procs = max(2, min(4, cores))
    floor, floor_note = _fleet_floor(cores)
    points = _points(1)

    warm = _points(2, n=2)
    evaluate_points(warm)  # heat this process's memo caches
    t0 = time.perf_counter()
    inproc_records = evaluate_points(points)
    inproc_wall = time.perf_counter() - t0

    with EvalFleet(procs) as fleet:
        fleet.evaluate(warm)  # heat every worker
        t0 = time.perf_counter()
        fleet_records = fleet.evaluate(points)
        fleet_wall = time.perf_counter() - t0
        counters = fleet.stats()["counters"]

    assert fleet_records == inproc_records  # identity before speed
    ratio = inproc_wall / fleet_wall
    print(
        f"\nin-process: {N_POINTS / inproc_wall:7.1f} points/s; "
        f"fleet x{procs}: {N_POINTS / fleet_wall:7.1f} points/s "
        f"({ratio:.2f}x, floor {floor:.2f}x on {cores} core(s), "
        f"{counters['buckets']} buckets)"
    )
    return {
        "cpu_cores": cores,
        "fleet_procs": procs,
        "inprocess_points_per_second": N_POINTS / inproc_wall,
        "fleet_points_per_second": N_POINTS / fleet_wall,
        "throughput_ratio": ratio,
        "asserted_floor": floor,
        "floor_note": floor_note,
        "records_bit_identical": True,
        "fleet_buckets": counters["buckets"],
    }


def _measure_overload(tmp_path):
    """Drive a rate-limited daemon past its budget; audit rejections."""
    with BackgroundService(
        cache_dir=str(tmp_path / "cache"),
        batch_window_ms=0,
        rate_rows_per_s=2.0,
        burst_rows=16,  # admits the first two 8-row requests
        queue_rows=64,
    ) as svc:
        events = [
            TraceEvent(
                0.001 * i,
                {
                    "mode": "simulate",
                    "kind": KINDS[i % len(KINDS)],
                    "platform": "hera",
                    "n_patterns": 4,
                    "n_runs": 2,
                    "seed": 62_000_000 + i,
                },
            )
            for i in range(N_OVERLOAD)
        ]
        result = WorkloadReplayer(
            port=svc.port, client_name="overload", retry_429=0
        ).run(events)
        report = result.report()
        admission = svc.admission.stats()
        outstanding = svc.admission.outstanding_rows

    served = [r for r in result.requests if r.ok]
    rejected = [r for r in result.requests if not r.ok]
    assert served, "overload arm served nothing at all"
    assert rejected, "overload arm never overloaded the daemon"
    # The contract: every rejection is an explicit admission answer.
    bad = [r for r in rejected if r.status not in (429, 503)]
    assert not bad, (
        f"{len(bad)} rejection(s) were not clean 429/503: "
        f"{[(r.status, r.error) for r in bad[:3]]}"
    )
    assert outstanding == 0, "admitted rows never drained"
    assert admission["counters"]["rejected_429"] + admission[
        "counters"
    ]["shed_503"] == len(rejected)
    print(
        f"overload: {len(served)} served, {len(rejected)} rejected "
        f"(all 429/503), peak queue "
        f"{admission['peak_outstanding_rows']} rows"
    )
    return {
        "n_served": len(served),
        "n_rejected": len(rejected),
        "all_rejections_clean_429_503": True,
        "n_rejected_429": report["n_rejected_429"],
        "n_shed_503": report["n_shed_503"],
        "peak_outstanding_rows": admission["peak_outstanding_rows"],
    }


@pytest.mark.benchmark(group="fleet")
def test_fleet_records_bit_identical_across_worker_counts():
    """1, 2 and 4 workers -> records identical to solo evaluation."""
    points = _points(0, n=6, rows=(4, 3))
    solo = [evaluate_point(p) for p in points]
    for procs in (1, 2, 4):
        with EvalFleet(procs, pack_rows=12) as fleet:
            assert fleet.evaluate(points) == solo, (
                f"fleet records diverged from solo at procs={procs}"
            )


@pytest.mark.benchmark(group="fleet")
def test_fleet_throughput_and_overload(tmp_path):
    """Measured arms: fleet speedup + clean overload rejection."""
    throughput = _measure_throughput()
    overload = _measure_overload(tmp_path)

    if not SMOKE:
        write_bench_record(
            BENCH_PATH,
            {
                "bench": "fleet",
                "workload": (
                    f"{N_POINTS} distinct points, "
                    f"{N_PATTERNS}x{N_RUNS} MC each, in-process vs "
                    f"EvalFleet({throughput['fleet_procs']}); overload: "
                    f"{N_OVERLOAD} near-simultaneous 8-row requests vs "
                    "rate 2 rows/s, burst 16, queue 64"
                ),
                **throughput,
                "overload": overload,
            },
        )
    assert throughput["throughput_ratio"] >= throughput[
        "asserted_floor"
    ], (
        f"fleet throughput {throughput['throughput_ratio']:.2f}x under "
        f"the {throughput['asserted_floor']:.2f}x floor "
        f"({throughput['floor_note']})"
    )
