"""End-to-end observability for the evaluation daemon.

One :class:`Observability` instance per daemon carries everything the
serving stack (PRs 5-9) was missing a window into:

* **Request tracing.**  Every ``POST /v1/evaluate`` gets a trace ID --
  accepted from the ``X-Repro-Trace-Id`` request header or generated
  -- returned in the response (header + JSON ``trace_id``) and
  propagated into batch and fleet-bucket execution.  Each request
  accumulates a monotonic-clock span timeline (parse, admission, cache
  lookup, queue wait, batch execute, per-worker buckets, respond);
  completed traces live in a bounded ring buffer served by
  ``GET /v1/trace[/<id>]``, so "where did this slow request spend its
  time?" has an answer after the fact.
* **Prometheus-text metrics.**  ``GET /metrics`` renders the existing
  ``/v1/stats`` counters plus four native histograms (request latency,
  batch size, rows per bucket, queue depth at batch cut) in text
  exposition format 0.0.4 -- stdlib only, with correct label escaping.
* **Structured JSON logging** (``repro serve --log-json``): one JSON
  object per line on stderr, trace IDs attached, plus a dedicated
  slow-request event above a configurable threshold.
* **Live trace recording** (``repro serve --record-trace FILE``):
  every arrival is journalled as a :mod:`repro.loadgen` trace event
  (JSONL), so production traffic replays byte-for-byte through
  ``repro loadtest --trace``.

Every hook is **guarded and allocation-light**: with observability off
the daemon constructs no trace objects, takes no extra locks, and
evaluates bit-identically to PR 9 -- ``benchmarks/bench_obs.py``
asserts the on-vs-off throughput overhead stays within 5 %.  The
spans never touch result records, so bit-identity of service output
to solo CLI runs is untouched by construction.

Spans, and the thread-local sink that carries the process pool's
bucket spans back from the scheduler's executor thread, live in
:mod:`repro.spans`.
"""

from __future__ import annotations

import bisect
import itertools
import json
import re
import sys
import threading
import time
import uuid
from collections import deque
from typing import (
    Any,
    Dict,
    IO,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.spans import Span

#: Request/response header carrying the trace ID (lower-cased on read;
#: the server lower-cases incoming header names).
TRACE_HEADER = "x-repro-trace-id"

#: Completed traces kept for ``GET /v1/trace`` (ring buffer size).
DEFAULT_TRACE_BUFFER = 256

#: Trace IDs are capped so a hostile header cannot balloon the ring.
MAX_TRACE_ID_LEN = 128

#: Explicit histogram bucket bounds (upper edges, ``+Inf`` implied).
LATENCY_BUCKETS_S = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)
BATCH_POINTS_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 1024, 4096)
BUCKET_ROWS_BUCKETS = (
    1, 10, 100, 1_000, 10_000, 100_000, 1_000_000,
)
QUEUE_DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128, 512)


#: Generated trace IDs are a per-process random prefix plus a counter:
#: 32 hex chars like a UUID, but ~4x cheaper to mint than ``uuid4()``
#: -- this runs once per request on the event loop.  ``next()`` on a
#: C-level iterator is atomic under the GIL.
_ID_PREFIX = uuid.uuid4().hex[:16]
_ID_COUNTER = itertools.count(int(uuid.uuid4().hex[:8], 16))


def new_trace_id() -> str:
    """A fresh trace ID (32 hex chars, unique across daemon restarts)."""
    return f"{_ID_PREFIX}{next(_ID_COUNTER):016x}"


def clean_trace_id(raw: Optional[str]) -> Optional[str]:
    """Validate a client-supplied trace ID; ``None`` when unusable."""
    if not raw:
        return None
    raw = raw.strip()
    if not raw or len(raw) > MAX_TRACE_ID_LEN:
        return None
    if not re.fullmatch(r"[A-Za-z0-9._:-]+", raw):
        return None
    return raw


class RequestTrace:
    """One traced request: ID, span timeline, final status.

    Spans arrive from two threads (the event loop, and the executor
    thread running the batch), but ``list.append``/``extend`` are
    atomic under CPython's GIL, so the hot path takes no lock --
    readers snapshot the list before iterating.
    """

    __slots__ = (
        "trace_id", "t_start", "wall_start", "t_end",
        "status", "n_points", "spans",
    )

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.t_start = time.perf_counter()
        self.wall_start = time.time()
        self.t_end: Optional[float] = None
        self.status: Optional[int] = None
        self.n_points = 0
        self.spans: List[Span] = []

    def span(
        self,
        name: str,
        t0: float,
        t1: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record one completed span (GIL-atomic append)."""
        self.spans.append(Span(name, t0, t1, meta))

    def add_spans(self, spans: Iterable[Span]) -> None:
        self.spans.extend(spans)

    @property
    def duration_s(self) -> float:
        end = self.t_end if self.t_end is not None else time.perf_counter()
        return end - self.t_start

    def to_dict(self) -> Dict[str, Any]:
        spans = sorted(list(self.spans), key=lambda s: s.t0)
        docs = [s.to_dict(self.t_start) for s in spans]
        return {
            "trace_id": self.trace_id,
            "started_at": self.wall_start,
            "duration_ms": round(1e3 * self.duration_s, 4),
            "status": self.status,
            "n_points": self.n_points,
            "spans": docs,
        }

    def summary(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "started_at": self.wall_start,
            "duration_ms": round(1e3 * self.duration_s, 4),
            "status": self.status,
            "n_points": self.n_points,
            "n_spans": len(self.spans),
        }


class TraceBuffer:
    """A bounded ring of completed traces, addressable by ID."""

    def __init__(self, maxlen: int = DEFAULT_TRACE_BUFFER):
        if maxlen < 1:
            raise ValueError(f"maxlen must be >= 1, got {maxlen}")
        self._ring: "deque[RequestTrace]" = deque(maxlen=maxlen)
        self._by_id: Dict[str, RequestTrace] = {}
        self._lock = threading.Lock()

    def push(self, trace: RequestTrace) -> None:
        with self._lock:
            if len(self._ring) == self._ring.maxlen:
                evicted = self._ring[0]
                # Only drop the index entry if it still points at the
                # evictee (a reused trace ID may have overwritten it).
                if self._by_id.get(evicted.trace_id) is evicted:
                    del self._by_id[evicted.trace_id]
            self._ring.append(trace)
            self._by_id[trace.trace_id] = trace

    def get(self, trace_id: str) -> Optional[RequestTrace]:
        with self._lock:
            return self._by_id.get(trace_id)

    def recent(self, limit: int = 50) -> List[RequestTrace]:
        """Newest-first slice of the ring."""
        with self._lock:
            items = list(self._ring)
        return list(reversed(items))[: max(0, limit)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)


class Histogram:
    """A Prometheus-style histogram with explicit bucket bounds.

    ``observe`` is lock-protected: the fleet observes bucket rows from
    scheduler executor threads while the event loop observes batch
    sizes.  Bucket counts are *non-cumulative* internally; the
    renderer emits the cumulative form the exposition format requires.
    """

    def __init__(self, name: str, help_text: str, bounds: Sequence[float]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(
                f"histogram bounds must be non-empty ascending, "
                f"got {bounds!r}"
            )
        self.name = name
        self.help = help_text
        self.bounds = [float(b) for b in bounds]
        self._counts = [0] * (len(self.bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        i = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[i] += 1
            self._sum += value
            self._count += 1

    def snapshot(self) -> Tuple[List[int], float, int]:
        """``(cumulative_counts, sum, count)``; counts include +Inf."""
        with self._lock:
            counts = list(self._counts)
            total_sum, total = self._sum, self._count
        cumulative: List[int] = []
        acc = 0
        for c in counts:
            acc += c
            cumulative.append(acc)
        return cumulative, total_sum, total


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition format: backslash,
    double-quote and newline."""
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(*parts: str) -> str:
    name = "_".join(_NAME_RE.sub("_", p) for p in parts if p)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


class _MetricsWriter:
    """Accumulates exposition-format lines with HELP/TYPE headers."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._seen: set = set()

    def header(self, name: str, kind: str, help_text: str) -> None:
        if name in self._seen:
            return
        self._seen.add(name)
        safe_help = help_text.replace("\\", "\\\\").replace("\n", "\\n")
        self.lines.append(f"# HELP {name} {safe_help}")
        self.lines.append(f"# TYPE {name} {kind}")

    def sample(
        self,
        name: str,
        value: float,
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        if labels:
            body = ",".join(
                f'{k}="{escape_label_value(str(v))}"'
                for k, v in labels.items()
            )
            self.lines.append(
                f"{name}{{{body}}} {_format_value(value)}"
            )
        else:
            self.lines.append(f"{name} {_format_value(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


#: Stats counter names rendered as Prometheus counters (monotone);
#: everything else numeric becomes a gauge.
_COUNTER_SECTIONS = ("counters",)


def _walk_stats(
    writer: _MetricsWriter,
    prefix: Tuple[str, ...],
    node: Any,
    *,
    in_counters: bool = False,
) -> None:
    """Flatten a stats payload into prefixed gauges/counters."""
    if isinstance(node, Mapping):
        for key, value in node.items():
            _walk_stats(
                writer,
                prefix + (str(key),),
                value,
                in_counters=in_counters or str(key) in _COUNTER_SECTIONS,
            )
        return
    if isinstance(node, bool):
        node = 1 if node else 0
    if isinstance(node, (int, float)):
        name = _metric_name("repro", *prefix)
        if in_counters:
            if not name.endswith("_total"):
                name += "_total"
            writer.header(name, "counter", f"repro stat {'.'.join(prefix)}")
        else:
            writer.header(name, "gauge", f"repro stat {'.'.join(prefix)}")
        writer.sample(name, float(node))
    # non-numeric leaves (strings, None, lists) are not metrics


def render_prometheus(
    stats: Mapping[str, Any],
    histograms: Sequence[Histogram],
) -> str:
    """Render ``/v1/stats`` + histograms as text exposition 0.0.4.

    Per-client admission counters become labelled samples
    (``repro_admission_client_*{client="..."}``) instead of one metric
    per client name, exercising label escaping on arbitrary client
    identities.
    """
    writer = _MetricsWriter()
    writer.header("repro_up", "gauge", "daemon liveness (always 1)")
    writer.sample("repro_up", 1)

    flat = dict(stats)
    admission = flat.get("admission")
    clients = None
    if isinstance(admission, Mapping) and "clients" in admission:
        flat["admission"] = {
            k: v for k, v in admission.items() if k != "clients"
        }
        clients = admission["clients"]
    _walk_stats(writer, (), flat)
    if isinstance(clients, Mapping):
        for counter in (
            "admitted", "rejected_429", "shed_503", "rows_admitted"
        ):
            name = f"repro_admission_client_{counter}_total"
            writer.header(
                name, "counter",
                f"per-client admission counter {counter}",
            )
            for client, counters in clients.items():
                if isinstance(counters, Mapping) and counter in counters:
                    writer.sample(
                        name,
                        float(counters[counter]),
                        {"client": str(client)},
                    )

    for hist in histograms:
        writer.header(hist.name, "histogram", hist.help)
        cumulative, total_sum, count = hist.snapshot()
        for bound, acc in zip(hist.bounds, cumulative[:-1]):
            writer.sample(
                f"{hist.name}_bucket", acc, {"le": _format_value(bound)}
            )
        writer.sample(
            f"{hist.name}_bucket", cumulative[-1], {"le": "+Inf"}
        )
        writer.sample(f"{hist.name}_sum", total_sum)
        writer.sample(f"{hist.name}_count", count)
    return writer.render()


class StructuredLogger:
    """Opt-in JSON-lines logging (``repro serve --log-json``)."""

    def __init__(self, stream: Optional[IO[str]] = None):
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()

    def event(self, event: str, **fields: Any) -> None:
        doc = {"ts": round(time.time(), 6), "event": event}
        doc.update(fields)
        line = json.dumps(doc, default=str)
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()


class ArrivalRecorder:
    """Journal live arrivals as a replayable ``repro.loadgen`` trace.

    Each admitted ``/v1/evaluate`` point becomes one JSONL line in
    :class:`~repro.loadgen.traces.TraceEvent` schema -- ``t`` is the
    monotonic offset from the first recorded arrival, ``point`` the
    fully-resolved protocol dict -- so ``repro loadtest --trace FILE``
    re-issues the captured traffic byte-for-byte.  Lines are flushed
    per arrival: a crashed daemon loses nothing already recorded.
    """

    def __init__(self, path: str):
        self.path = path
        self._fh: Optional[IO[str]] = open(path, "w")
        self._t0: Optional[float] = None
        self._lock = threading.Lock()
        self.recorded = 0

    def record(self, points: Sequence[Any], now: float) -> None:
        """Record one request's points at monotonic time ``now``."""
        with self._lock:
            if self._fh is None:
                return
            if self._t0 is None:
                self._t0 = now
            t = now - self._t0
            for point in points:
                desc = point.to_dict() if hasattr(point, "to_dict") else (
                    dict(point)
                )
                if (
                    desc.get("mode", "simulate") == "simulate"
                    and desc.get("engine") == "analytic"
                ):
                    request_class = "analytic"
                else:
                    request_class = str(desc.get("mode", "simulate"))
                line = json.dumps(
                    {"t": round(t, 6), "class": request_class,
                     "point": desc}
                )
                self._fh.write(line + "\n")
                self.recorded += 1
            self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


class Observability:
    """The daemon's observability hub; absent (``None``) when off.

    Owns the trace ring, the four native histograms, the shared stats
    snapshot lock, and the optional structured logger and arrival
    recorder.  Everything here is thread-safe.
    """

    def __init__(
        self,
        *,
        trace_buffer: int = DEFAULT_TRACE_BUFFER,
        log_json: bool = False,
        log_stream: Optional[IO[str]] = None,
        slow_request_s: Optional[float] = None,
        record_trace_path: Optional[str] = None,
    ):
        self.traces = TraceBuffer(trace_buffer)
        #: One lock for cross-subsystem counter consistency: the fleet
        #: updates its batch counters under it and ``/v1/stats`` +
        #: ``/metrics`` assemble their snapshots under it, so a reader
        #: never sees one subsystem mid-update relative to another.
        #: Re-entrant because the snapshot assembly holds it while the
        #: fleet's own ``stats()`` re-acquires it underneath.
        self.stats_lock = threading.RLock()
        #: Per-request events need ``--log-json``; a slow-request
        #: threshold alone still gets its own logger so outliers are
        #: reported without the full request firehose.
        self._log_all = bool(log_json)
        self.log: Optional[StructuredLogger] = (
            StructuredLogger(log_stream)
            if log_json or slow_request_s is not None
            else None
        )
        self.slow_request_s = slow_request_s
        self.recorder: Optional[ArrivalRecorder] = (
            ArrivalRecorder(record_trace_path)
            if record_trace_path
            else None
        )
        self.h_request_latency = Histogram(
            "repro_request_latency_seconds",
            "wall latency of /v1/evaluate requests, server-side",
            LATENCY_BUCKETS_S,
        )
        self.h_batch_points = Histogram(
            "repro_batch_points",
            "points per dispatched micro-batch",
            BATCH_POINTS_BUCKETS,
        )
        self.h_bucket_rows = Histogram(
            "repro_bucket_rows",
            "Monte-Carlo rows per fleet bucket",
            BUCKET_ROWS_BUCKETS,
        )
        self.h_queue_depth = Histogram(
            "repro_queue_depth",
            "scheduler queue depth at each batch cut",
            QUEUE_DEPTH_BUCKETS,
        )
        self.histograms = (
            self.h_request_latency,
            self.h_batch_points,
            self.h_bucket_rows,
            self.h_queue_depth,
        )

    # -- request lifecycle ---------------------------------------------------
    def begin_trace(self, header_value: Optional[str]) -> RequestTrace:
        """Open a trace for one request; honours a client-supplied ID."""
        trace_id = clean_trace_id(header_value) or new_trace_id()
        return RequestTrace(trace_id)

    def finish_trace(
        self, trace: RequestTrace, status: int, *, path: str = "/v1/evaluate"
    ) -> None:
        """Close a trace: ring-buffer it, observe latency, maybe log."""
        trace.t_end = time.perf_counter()
        trace.status = status
        self.traces.push(trace)
        duration = trace.t_end - trace.t_start
        self.h_request_latency.observe(duration)
        if (
            self.slow_request_s is not None
            and duration >= self.slow_request_s
            and self.log is not None
        ):
            self.log.event(
                "slow_request",
                trace_id=trace.trace_id,
                path=path,
                status=status,
                duration_ms=round(1e3 * duration, 3),
                threshold_ms=round(1e3 * self.slow_request_s, 3),
                n_points=trace.n_points,
            )
        elif self._log_all and self.log is not None:
            self.log.event(
                "request",
                trace_id=trace.trace_id,
                path=path,
                status=status,
                duration_ms=round(1e3 * duration, 3),
                n_points=trace.n_points,
            )

    def event(self, name: str, **fields: Any) -> None:
        """Emit a structured log event (no-op unless ``--log-json``)."""
        if self._log_all and self.log is not None:
            self.log.event(name, **fields)

    def render_metrics(self, stats: Mapping[str, Any]) -> str:
        """The ``GET /metrics`` body."""
        return render_prometheus(stats, self.histograms)

    def close(self) -> None:
        if self.recorder is not None:
            self.recorder.close()
