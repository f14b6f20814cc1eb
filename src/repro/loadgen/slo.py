"""SLO measurement vocabulary: warm-up drop, EWMA, percentile summaries.

Shared by the replayer, ``repro loadtest`` and the benchmarks
(``bench_replay.py`` and ``bench_service.py``'s latency fence), so
every latency number in the repository is computed the same way:

* **warm-up drop** -- the first requests of any run pay one-off costs
  (import, schedule/optimisation memo caches, thread-pool spin-up)
  that say nothing about steady-state SLOs; :func:`drop_warmup`
  excludes them before percentiles are taken.
* **EWMA** -- the exponentially weighted moving average of latency in
  completion order, the standard online health signal.
* **summaries** -- p50/p95/p99/mean/max plus throughput over the
  measured (post-warm-up) span, overall and per request class.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, TypeVar

import numpy as np

T = TypeVar("T")

#: Default EWMA smoothing factor (weight of the newest sample).
DEFAULT_EWMA_ALPHA = 0.2

#: Reported percentiles, in report-key order.
PERCENTILES = (50, 95, 99)


def drop_warmup(values: Sequence[T], n_warmup: int) -> List[T]:
    """Drop the first ``n_warmup`` entries (the latency fence).

    Never drops everything: if the sequence is shorter than the
    requested warm-up, the last entry survives so summaries stay
    well-defined on tiny runs.
    """
    if n_warmup < 0:
        raise ValueError(f"n_warmup must be >= 0, got {n_warmup}")
    if not values:
        return []
    kept = list(values[n_warmup:])
    return kept if kept else [values[-1]]


def ewma(
    values: Sequence[float], alpha: float = DEFAULT_EWMA_ALPHA
) -> Optional[float]:
    """Final EWMA of ``values`` in order; ``None`` on empty input."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    state: Optional[float] = None
    for value in values:
        state = (
            float(value)
            if state is None
            else alpha * float(value) + (1.0 - alpha) * state
        )
    return state


def _latency_block(latencies_s: Sequence[float]) -> Dict[str, float]:
    arr = np.asarray(latencies_s, dtype=float) * 1e3
    block = {
        f"p{q}_ms": float(np.percentile(arr, q)) for q in PERCENTILES
    }
    block["mean_ms"] = float(arr.mean())
    block["max_ms"] = float(arr.max())
    block["ewma_ms"] = float(ewma(arr.tolist()))
    return block


def summarize(
    records: Sequence[Any],
    *,
    warmup_drop: int = 0,
) -> Dict[str, Any]:
    """Build the SLO report for a replay's request records.

    ``records`` are :class:`~repro.loadgen.replay.RequestRecord`-shaped
    objects (``latency_s``/``start_t``/``ok``/``request_class``
    attributes), in completion order.  The first ``warmup_drop``
    completions are excluded from every latency and throughput figure
    (they still appear in ``n_requests``); failures are excluded from
    latency percentiles but counted in ``n_errors``.
    """
    measured = drop_warmup(records, warmup_drop) if records else []
    ok = [r for r in measured if r.ok]
    report: Dict[str, Any] = {
        "n_requests": len(records),
        "n_warmup_dropped": len(records) - len(measured),
        "n_measured": len(measured),
        "n_errors": sum(1 for r in measured if not r.ok),
    }
    if not ok:
        report["latency"] = None
        report["throughput_rps"] = 0.0
        report["classes"] = {}
        return report
    report["latency"] = _latency_block([r.latency_s for r in ok])
    t_first = min(r.start_t for r in ok)
    t_last = max(r.start_t + r.latency_s for r in ok)
    span = max(t_last - t_first, 1e-9)
    report["throughput_rps"] = len(ok) / span
    report["measured_span_s"] = span
    classes: Dict[str, Dict[str, Any]] = {}
    for name in sorted({r.request_class for r in ok}):
        members = [r for r in ok if r.request_class == name]
        classes[name] = {
            "n": len(members),
            **_latency_block([r.latency_s for r in members]),
        }
    report["classes"] = classes
    return report
