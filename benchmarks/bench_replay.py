"""Benchmark: latency SLOs under replayed arrival traces.

Where ``bench_service.py`` saturates the daemon with closed-loop
clients (peak throughput), this bench measures what an *arrival
process* sees: open-loop replay of three trace shapes -- constant,
Poisson and bursty (shock-decay) -- against the default daemon,
recording p50/p95/p99 latency and throughput per shape into
``BENCH_replay.json``.

The second arm compares batching modes: the same bursty trace is
replayed against (a) a static daemon at the default 5 ms collection
window and (b) an adaptive daemon at ``batch_window_ms=0``, which
batches when busy: a lone request is dispatched at once, and whatever
queues while the scheduler's one evaluation slot is busy becomes the
next batch (:mod:`repro.service.scheduler`).  Under mostly-quiet
bursty traffic the static window taxes every quiet-phase request ~5 ms
of pure waiting, while the adaptive daemon's batches grow only when
requests pile up, so the adaptive median must beat the static median
by the asserted floor.  That assertion is the benchmark's point:
batching when busy is a measured SLO win, not a microbenchmark
claim.

Smoke mode (``REPRO_BENCH_SMOKE=1``, used by CI) shrinks the traces,
relaxes the floor to absorb shared-runner noise, and leaves the
trajectory file untouched.
"""

import os

import pytest

from _history import write_bench_record
from repro.loadgen.replay import WorkloadReplayer
from repro.loadgen.traces import TRACE_SHAPES, make_trace
from repro.service.client import ServiceClient
from repro.service.server import BackgroundService

BENCH_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir,
    "BENCH_replay.json",
)

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

#: Shape-sweep trace sizing.
RATE = 25.0 if SMOKE else 60.0
DURATION_S = 2.0 if SMOKE else 5.0

#: Adaptive-vs-static bursty trace: a low quiet-phase base rate with
#: strong shocks, so most requests land in the quiet phase where the
#: static window is pure added latency.
BURSTY_BASE_RATE = 15.0
BURSTY_DURATION_S = 3.0 if SMOKE else 6.0

#: The adaptive p50 must beat the static p50 by at least this ratio
#: (static/adaptive).  The measured gap on a development box is ~4x
#: (static ~= engine + 5 ms window, adaptive ~= engine); the smoke
#: floor only demands adaptive not lose.
MIN_P50_RATIO = 1.0 if SMOKE else 1.2

SEED = 20160601


def _replay(port, events, *, warmup_frac=0.05):
    replayer = WorkloadReplayer(port=port, mode="open", concurrency=32)
    result = replayer.run(events)
    warmup = max(1, int(len(events) * warmup_frac))
    report = result.report(warmup_drop=warmup)
    assert report["n_errors"] == 0, report
    return report


def _slim(report):
    """The per-shape record kept in BENCH_replay.json."""
    return {
        "n_requests": report["n_requests"],
        "throughput_rps": report["throughput_rps"],
        "p50_ms": report["latency"]["p50_ms"],
        "p95_ms": report["latency"]["p95_ms"],
        "p99_ms": report["latency"]["p99_ms"],
        "mean_ms": report["latency"]["mean_ms"],
    }


@pytest.mark.benchmark(group="replay")
def test_replay_slo_trajectories():
    """Three trace shapes + the adaptive-beats-static floor."""
    shapes = {}
    for shape in TRACE_SHAPES:
        events = make_trace(
            shape, rate=RATE, duration_s=DURATION_S, seed=SEED
        )
        with BackgroundService() as svc:
            shapes[shape] = _slim(_replay(svc.port, events))
        print(
            f"\n{shape:>9s}: {shapes[shape]['n_requests']:4d} req, "
            f"{shapes[shape]['throughput_rps']:7.1f} req/s, "
            f"p50 {shapes[shape]['p50_ms']:7.2f} ms, "
            f"p99 {shapes[shape]['p99_ms']:7.2f} ms"
        )

    # -- adaptive vs static on one bursty trace --------------------------
    bursty = make_trace(
        "bursty",
        rate=BURSTY_BASE_RATE,
        duration_s=BURSTY_DURATION_S,
        seed=SEED + 1,
        shock_factor=8.0,
        shock_rate=0.5,
        shock_decay_s=0.4,
    )
    # The generous warm-up drop keeps both arms' steady state in frame
    # (the same drop applies to both arms).
    with BackgroundService() as svc:
        static = _slim(_replay(svc.port, bursty, warmup_frac=0.2))
    with BackgroundService(batch_window_ms=0) as svc:
        adaptive = _slim(_replay(svc.port, bursty, warmup_frac=0.2))
        with ServiceClient(port=svc.port) as client:
            counters = client.stats()["counters"]
    ratio = static["p50_ms"] / adaptive["p50_ms"]
    print(
        f"\n bursty x static:   p50 {static['p50_ms']:7.2f} ms, "
        f"p99 {static['p99_ms']:7.2f} ms"
        f"\n bursty x adaptive: p50 {adaptive['p50_ms']:7.2f} ms, "
        f"p99 {adaptive['p99_ms']:7.2f} ms"
        f"\n adaptive p50 advantage: {ratio:.2f}x "
        f"(floor {MIN_P50_RATIO:g}x); {counters['batches']} batches, "
        f"largest {counters['max_batch_points']} points"
    )

    if not SMOKE:
        write_bench_record(
            BENCH_PATH,
            {
                "bench": "replay",
                "workload": (
                    f"open-loop replay, rate {RATE:g}/s x "
                    f"{DURATION_S:g}s per shape (4x2 MC mixed "
                    f"points); bursty adaptive-vs-static at base "
                    f"{BURSTY_BASE_RATE:g}/s x {BURSTY_DURATION_S:g}s"
                ),
                "shapes": shapes,
                "bursty_static": static,
                "bursty_adaptive": adaptive,
                "adaptive_p50_advantage": ratio,
            },
        )

    # Batching when busy must pay: the adaptive median beats the
    # static default window on the bursty trace by the floor.
    assert ratio >= MIN_P50_RATIO, (
        f"adaptive p50 {adaptive['p50_ms']:.2f} ms vs static "
        f"{static['p50_ms']:.2f} ms: ratio {ratio:.2f} below floor "
        f"{MIN_P50_RATIO}"
    )
