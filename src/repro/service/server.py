"""The daemon: a minimal asyncio HTTP/1.1 front end for the scheduler.

Stdlib only -- ``asyncio.start_server`` plus a hand-rolled HTTP/1.1
reader/writer (no framework).  Endpoints:

* ``POST /v1/evaluate`` -- evaluate one or many scenario points
  (:mod:`repro.service.protocol` schema); concurrent requests are
  micro-batched and coalesced by the scheduler.  Since protocol 2 a
  failing point yields a per-point ``error`` record inside a 200
  response instead of failing the whole request.
* ``POST /v1/campaign`` and ``GET|DELETE /v1/jobs...`` -- the jobs API
  (:mod:`repro.service.jobs`): submit whole campaign specs as
  journaled background jobs, poll progress, stream results, cancel.
* ``GET /v1/health`` -- liveness plus version info.
* ``GET /v1/stats`` -- scheduler counters, batch configuration,
  tiered-cache state and job-manager counters.
* ``GET /metrics`` -- the same counters plus native histograms in
  Prometheus text exposition format (:mod:`repro.service.obs`).
* ``GET /v1/trace`` / ``GET /v1/trace/<id>`` -- span timelines of
  recently completed requests (the trace ring).

Connections are keep-alive by default (HTTP/1.1 semantics), so a
client issuing many queries pays TCP setup once.

:func:`run_service` is the blocking ``repro serve`` entry point;
:class:`BackgroundService` runs the identical stack on a daemon thread
for tests, benchmarks and embedders.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import threading
import time
import urllib.parse
from contextlib import suppress
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro._version import __version__
from repro.campaign.planner import DEFAULT_PACK_ROWS, point_rows
from repro.service.admission import (
    ANONYMOUS_CLIENT,
    AdmissionConfig,
    AdmissionController,
    CLIENT_HEADER,
)
from repro.service.faults import FaultInjector, FaultPlan, wrap_evaluate
from repro.service.jobs.api import JobsApi
from repro.service.jobs.manager import (
    DEFAULT_MAX_INFLIGHT,
    JobManager,
)
from repro.service.jobs.store import JobStore
from repro.service.memcache import (
    DEFAULT_MEM_ENTRIES,
    LRUCache,
    TieredCache,
)
from repro.service.obs import (
    DEFAULT_TRACE_BUFFER,
    Observability,
    RequestTrace,
    TRACE_HEADER,
)
from repro.service.protocol import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PROTOCOL_VERSION,
    ProtocolError,
    evaluate_response,
    parse_evaluate_body,
)
from repro.service.fleet import EvalFleet
from repro.service.scheduler import (
    DEFAULT_EVAL_WORKERS,
    DEFAULT_WINDOW_MS,
    MicroBatchScheduler,
)

#: Reject request bodies beyond this size (a 4096-point batch is ~2 MB).
MAX_BODY_BYTES = 32 * 1024 * 1024

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _HttpError(Exception):
    """An HTTP-level failure to report to the client and move on."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` needs to stand up a daemon."""

    host: str = DEFAULT_HOST
    port: int = DEFAULT_PORT  # 0 binds an ephemeral port
    batch_window_ms: float = DEFAULT_WINDOW_MS
    pack_rows: int = DEFAULT_PACK_ROWS
    mem_entries: int = DEFAULT_MEM_ENTRIES
    eval_workers: int = DEFAULT_EVAL_WORKERS
    cache_dir: Optional[str] = None
    #: When set, the bound port is written here once listening --
    #: scripts starting a ``--port 0`` daemon poll this file.
    port_file: Optional[str] = None
    #: Jobs persistence root.  ``None`` keeps jobs memory-only (still
    #: fully functional, but lost on restart).
    jobs_dir: Optional[str] = None
    #: Concurrently dispatched job buckets across all jobs.
    job_inflight: int = DEFAULT_MAX_INFLIGHT
    #: Adaptive micro-batching: the scheduler sets its own window from
    #: the compute-arrival rate it counts, ignoring ``batch_window_ms``
    #: (:mod:`repro.service.scheduler`).
    autotune: bool = False
    #: Resident evaluation processes (:mod:`repro.service.fleet`).
    #: ``0`` keeps evaluation in-process (the single-core default);
    #: ``N >= 1`` fans scheduler batches out to N warm workers.
    eval_procs: int = 0
    #: Admission control (:mod:`repro.service.admission`): per-client
    #: sustained row rate.  ``None`` leaves the front door wide open.
    rate_rows_per_s: Optional[float] = None
    #: Per-client burst capacity in rows; defaults to two seconds of
    #: the sustained rate when admission is on.
    burst_rows: Optional[int] = None
    #: Global bound on admitted-but-unanswered rows (0 = unbounded);
    #: beyond it requests are shed with 503.
    queue_rows: int = 0
    #: Age (days since finishing) past which terminal jobs in
    #: ``jobs_dir`` are garbage-collected.  ``None`` keeps them forever.
    job_ttl_days: Optional[float] = None
    #: Deterministic fault-injection plan
    #: (:mod:`repro.service.faults` grammar, e.g. ``"kill@2,drop@1"``).
    #: ``None`` falls back to the ``REPRO_FAULTS`` environment
    #: variable; empty/absent disables injection entirely.
    faults: Optional[str] = None
    #: How long a graceful drain waits for in-flight requests before
    #: force-closing their connections.
    drain_grace_s: float = 10.0
    #: Observability (:mod:`repro.service.obs`): request tracing,
    #: ``GET /metrics`` and ``GET /v1/trace``.  On by default -- the
    #: hooks are allocation-light; ``--no-obs`` turns the whole
    #: subsystem off (both endpoints then answer 404).
    observability: bool = True
    #: Structured JSON logging to stderr (``repro serve --log-json``).
    log_json: bool = False
    #: Log a ``slow_request`` event for requests at or above this
    #: server-side latency (works with or without ``--log-json``).
    slow_request_ms: Optional[float] = None
    #: Journal every admitted ``/v1/evaluate`` arrival to this file as
    #: a replayable ``repro loadtest --trace`` JSONL.
    record_trace: Optional[str] = None
    #: Completed traces kept for ``GET /v1/trace``.
    trace_buffer: int = DEFAULT_TRACE_BUFFER


class ServiceServer:
    """The HTTP front end bound to one scheduler."""

    def __init__(
        self,
        scheduler: MicroBatchScheduler,
        *,
        host: str = DEFAULT_HOST,
        port: int = 0,
        jobs_api: Optional[JobsApi] = None,
        admission: Optional[AdmissionController] = None,
        fleet: Optional[EvalFleet] = None,
        injector: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ):
        self.scheduler = scheduler
        self.jobs_api = jobs_api
        self.admission = admission
        self.fleet = fleet
        self.injector = injector
        self.obs = obs
        self.host = host
        self.port = port
        #: Readiness gate: set during graceful shutdown.  Liveness
        #: (``/v1/health``) stays 200 while draining; readiness
        #: (``/v1/health?check=ready``) flips to 503 and new work is
        #: refused so load balancers route around this instance.
        self.draining = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._t0 = 0.0
        self._started_wall = 0.0

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns ``(host, port)`` with the real port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.monotonic()
        self._started_wall = time.time()
        return self.host, self.port

    async def close(self, *, grace_s: float = 10.0) -> None:
        """Stop accepting and drain: the first step of shutdown.

        Stops the listener, waits up to ``grace_s`` for in-flight
        requests to answer (the scheduler is still live at this point,
        so they finish normally), then closes the remaining keep-alive
        connections -- idle clients just see EOF, and ``wait_closed``
        can never hang on a silent connection (Python >= 3.12 waits
        for all connection handlers).
        """
        self.draining = True
        if self._server is None:
            return
        self._server.close()
        deadline = time.monotonic() + max(0.0, grace_s)
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        for writer in list(self._connections):
            with suppress(Exception):
                writer.close()
        with suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._server.wait_closed(), max(0.1, grace_s)
            )
        self._server = None

    # -- connection handling ------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._connections.add(writer)
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    await _write_response(
                        writer,
                        exc.status,
                        {"error": str(exc)},
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                if (
                    self.injector is not None
                    and self.injector.drop_request()
                ):
                    break  # scheduled drop: close without answering
                method, path, headers, body = request
                trace: Optional[RequestTrace] = None
                if (
                    self.obs is not None
                    and method == "POST"
                    and path.partition("?")[0] == "/v1/evaluate"
                ):
                    trace = self.obs.begin_trace(
                        headers.get(TRACE_HEADER)
                    )
                self._active_requests += 1
                try:
                    status, payload = await self._dispatch(
                        method, path, headers, body, trace=trace
                    )
                finally:
                    self._active_requests -= 1
                keep_alive = (
                    headers.get("connection", "keep-alive").lower()
                    != "close"
                ) and not self.draining
                extra_headers: Optional[Dict[str, str]] = None
                if (
                    status == 429
                    and isinstance(payload, dict)
                    and payload.get("retry_after_s")
                ):
                    # Header granularity is whole seconds (RFC 9110);
                    # the exact float rides in the JSON body.
                    extra_headers = {
                        "retry-after": str(
                            max(1, int(-(-payload["retry_after_s"] // 1)))
                        )
                    }
                if trace is not None:
                    extra_headers = dict(extra_headers or {})
                    extra_headers[TRACE_HEADER] = trace.trace_id
                t_respond = time.perf_counter()
                await _write_response(
                    writer,
                    status,
                    payload,
                    keep_alive=keep_alive,
                    extra_headers=extra_headers,
                )
                if trace is not None:
                    trace.span(
                        "respond", t_respond, time.perf_counter()
                    )
                    self.obs.finish_trace(trace, status)
                if not keep_alive:
                    break
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass  # client went away mid-request; nothing to answer
        finally:
            self._connections.discard(writer)
            writer.close()
            with suppress(ConnectionError):
                await writer.wait_closed()

    def _stats_payload(self) -> Dict[str, Any]:
        """Assemble the ``/v1/stats`` document (also feeds /metrics).

        With observability on, the whole snapshot is taken under the
        shared ``stats_lock`` (the same lock the fleet's counters
        update under), so no subsystem is read mid-update relative to
        another.
        """
        payload = {
            "uptime_seconds": round(time.monotonic() - self._t0, 3),
            "uptime_s": round(time.monotonic() - self._t0, 3),
            "version": __version__,
            "started_at": round(self._started_wall, 3),
            **self.scheduler.stats(),
        }
        if self.fleet is not None:
            payload["evaluator"] = self.fleet.stats()
        payload["admission"] = (
            self.admission.stats()
            if self.admission is not None
            else {"enabled": False}
        )
        if self.jobs_api is not None:
            payload["jobs"] = self.jobs_api.manager.stats()
        if self.injector is not None:
            payload["faults"] = self.injector.stats()
        return payload

    def _stats_snapshot(self) -> Dict[str, Any]:
        if self.obs is not None:
            with self.obs.stats_lock:
                return self._stats_payload()
        return self._stats_payload()

    async def _dispatch(
        self,
        method: str,
        path: str,
        headers: Dict[str, str],
        body: bytes,
        trace: Optional[RequestTrace] = None,
    ) -> Tuple[int, Any]:
        path, _, raw_query = path.partition("?")
        query = (
            {k: v[0] for k, v in urllib.parse.parse_qs(raw_query).items()}
            if raw_query
            else {}
        )
        if path == "/v1/health":
            if method != "GET":
                return 405, {"error": f"{path} accepts GET only"}
            ready = not self.draining
            payload = {
                "status": "ok",
                "service": "repro",
                "version": __version__,
                "protocol": PROTOCOL_VERSION,
                "ready": ready,
            }
            if query.get("check") == "ready" and not ready:
                # Liveness stays 200 while draining (the process is
                # healthy); readiness flips so balancers stop routing.
                return 503, {**payload, "error": "daemon is draining"}
            return 200, payload
        if path == "/v1/stats":
            if method != "GET":
                return 405, {"error": f"{path} accepts GET only"}
            return 200, self._stats_snapshot()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": f"{path} accepts GET only"}
            if self.obs is None:
                return 404, {
                    "error": "observability is disabled (--no-obs); "
                    "/metrics is unavailable"
                }
            # A str payload is written as text/plain (exposition 0.0.4).
            return 200, self.obs.render_metrics(self._stats_snapshot())
        if path == "/v1/trace" or path.startswith("/v1/trace/"):
            if method != "GET":
                return 405, {"error": "/v1/trace accepts GET only"}
            if self.obs is None:
                return 404, {
                    "error": "observability is disabled (--no-obs); "
                    "/v1/trace is unavailable"
                }
            trace_id = path[len("/v1/trace/"):]
            if trace_id:
                found = self.obs.traces.get(trace_id)
                if found is None:
                    return 404, {
                        "error": f"trace {trace_id!r} is not in the "
                        f"ring (last {len(self.obs.traces)} completed "
                        "requests are kept)"
                    }
                return 200, {"trace": found.to_dict()}
            try:
                limit = max(1, min(int(query.get("limit", 50)), 1000))
            except ValueError:
                return 400, {"error": '"limit" must be an integer'}
            return 200, {
                "traces": [
                    t.summary() for t in self.obs.traces.recent(limit)
                ]
            }
        if path == "/v1/evaluate":
            if method != "POST":
                return 405, {"error": f"{path} accepts POST only"}
            if self.draining:
                return 503, {
                    "error": "daemon is draining and not accepting "
                    "new work"
                }
            t_parse = time.perf_counter()
            try:
                points = parse_evaluate_body(body)
            except ProtocolError as exc:
                return 400, {"error": str(exc)}
            if trace is not None:
                trace.n_points = len(points)
                trace.span(
                    "parse", t_parse, time.perf_counter(),
                    {"bytes": len(body)},
                )
            admitted = None
            if self.admission is not None:
                t_admit = time.perf_counter()
                admitted = self.admission.admit(
                    headers.get(CLIENT_HEADER, ANONYMOUS_CLIENT),
                    sum(point_rows(p) for p in points),
                    asyncio.get_running_loop().time(),
                )
                if trace is not None:
                    trace.span(
                        "admission", t_admit, time.perf_counter(),
                        {"admitted": admitted.admitted},
                    )
                if not admitted.admitted:
                    payload: Dict[str, Any] = {"error": admitted.error}
                    if admitted.retry_after_s is not None:
                        payload["retry_after_s"] = admitted.retry_after_s
                    return admitted.status, payload
            if self.obs is not None and self.obs.recorder is not None:
                # Journal admitted arrivals on the loop clock -- the
                # same clock admission replays under.
                self.obs.recorder.record(
                    points, asyncio.get_running_loop().time()
                )
            try:
                keys, records, n_failed = (
                    await self.scheduler.submit_settled(
                        points, trace=trace
                    )
                )
            except Exception as exc:  # scheduler torn down mid-request
                return 500, {"error": f"evaluation failed: {exc}"}
            finally:
                if admitted is not None:
                    self.admission.release(admitted)
            return 200, evaluate_response(
                keys,
                records,
                n_failed,
                trace_id=trace.trace_id if trace is not None else None,
            )
        if self.jobs_api is not None:
            answer = await self.jobs_api.handle(
                method, path, query, body
            )
            if answer is not None:
                return answer
        return 404, {
            "error": f"unknown path {path!r}; endpoints: "
            "POST /v1/evaluate, POST /v1/campaign, GET /v1/jobs, "
            "GET /v1/health, GET /v1/stats, GET /metrics, "
            "GET /v1/trace"
        }


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """Read one HTTP/1.1 request; ``None`` on clean end-of-stream."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").split()
    if len(parts) != 3:
        raise _HttpError(400, "malformed HTTP request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        # Without this check a chunked POST (no content-length) would
        # read as an *empty* body and come back as a baffling schema
        # error; name the real problem instead.
        raise _HttpError(
            400, "chunked bodies unsupported, send content-length"
        )
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError:
        raise _HttpError(400, "malformed content-length header") from None
    if length < 0:
        raise _HttpError(400, "malformed content-length header")
    if length > MAX_BODY_BYTES:
        raise _HttpError(
            413,
            f"request body of {length} bytes exceeds the "
            f"{MAX_BODY_BYTES}-byte cap",
        )
    body = await reader.readexactly(length) if length > 0 else b""
    return method, target, headers, body


async def _write_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Any,
    *,
    keep_alive: bool,
    extra_headers: Optional[Dict[str, str]] = None,
) -> None:
    if isinstance(payload, str):
        # Pre-rendered text body (GET /metrics, exposition 0.0.4).
        blob = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        blob = json.dumps(payload, default=str).encode("utf-8")
        content_type = "application/json"
    extra = "".join(
        f"{name}: {value}\r\n"
        for name, value in (extra_headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
        f"content-type: {content_type}\r\n"
        f"content-length: {len(blob)}\r\n"
        f"connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extra}"
        "\r\n"
    )
    writer.write(head.encode("latin-1") + blob)
    await writer.drain()


# -- service lifecycle -------------------------------------------------------
async def start_service(
    config: ServiceConfig,
) -> Tuple[MicroBatchScheduler, ServiceServer, JobManager]:
    """Stand up the cache, scheduler, job manager and listening server."""
    from repro.campaign.cache import ResultCache

    disk = (
        ResultCache(config.cache_dir)
        if config.cache_dir is not None
        else None
    )
    cache = TieredCache(LRUCache(config.mem_entries), disk)
    obs: Optional[Observability] = None
    if config.observability:
        obs = Observability(
            trace_buffer=config.trace_buffer,
            log_json=config.log_json,
            slow_request_s=(
                config.slow_request_ms / 1e3
                if config.slow_request_ms is not None
                else None
            ),
            record_trace_path=config.record_trace,
        )
    fault_spec = (
        config.faults
        if config.faults is not None
        else os.environ.get("REPRO_FAULTS", "")
    )
    plan = FaultPlan.parse(fault_spec)
    injector = FaultInjector(plan) if plan.enabled else None
    fleet: Optional[EvalFleet] = None
    if config.eval_procs >= 1:
        # Create the pool before the event loop grows threads: the
        # fork start method snapshots the parent, and forking early
        # keeps that snapshot small and thread-free.  A warm-up
        # failure raises FleetUnavailableError here, so `repro serve`
        # fails fast instead of hanging at the first batch.
        fleet = EvalFleet(
            config.eval_procs,
            pack_rows=config.pack_rows,
            injector=injector,
            obs=obs,
        )
    evaluate = fleet.evaluate if fleet is not None else None
    fallback = None
    if fleet is not None:
        from repro.campaign.executor import evaluate_points

        fallback = evaluate_points
    elif injector is not None and plan.touches_eval:
        from repro.campaign.executor import evaluate_points

        evaluate = wrap_evaluate(evaluate_points, injector)
    scheduler = MicroBatchScheduler(
        cache,
        batch_window_ms=config.batch_window_ms,
        pack_rows=config.pack_rows,
        eval_workers=config.eval_workers,
        evaluate=evaluate,
        fallback_evaluate=fallback,
        obs=obs,
        autotune=config.autotune,
        # N fleet workers absorb ~N times the arrival rate before
        # batching pays, so the window ramp's knee scales with them.
        knee_scale=fleet.procs if fleet is not None else 1,
    )
    await scheduler.start()
    store = (
        JobStore(config.jobs_dir)
        if config.jobs_dir is not None
        else None
    )
    manager = JobManager(
        scheduler,
        store,
        max_inflight=config.job_inflight,
        job_ttl_days=config.job_ttl_days,
        obs=obs,
    )
    await manager.start()
    admission: Optional[AdmissionController] = None
    if config.rate_rows_per_s is not None:
        burst = (
            config.burst_rows
            if config.burst_rows is not None
            else max(1, int(2 * config.rate_rows_per_s))
        )
        admission = AdmissionController(
            AdmissionConfig(
                rate_rows_per_s=config.rate_rows_per_s,
                burst_rows=burst,
                queue_rows=config.queue_rows,
            ),
            obs=obs,
        )
    server = ServiceServer(
        scheduler,
        host=config.host,
        port=config.port,
        jobs_api=JobsApi(manager),
        admission=admission,
        fleet=fleet,
        injector=injector,
        obs=obs,
    )
    await server.start()
    if config.port_file:
        _write_port_file(config.port_file, server.port)
    return scheduler, server, manager


def _write_port_file(path: str, port: int) -> None:
    """Publish the bound port atomically (pollers never see a partial)."""
    if os.path.exists(path):
        # Leftover from an abnormal exit (a clean drain removes it):
        # overwrite, but say so -- a poller racing two daemons on one
        # port file is otherwise maddening to diagnose.
        print(
            f"warning: overwriting stale port file {path}",
            file=sys.stderr,
        )
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        fh.write(f"{port}\n")
    os.replace(tmp, path)


def _remove_port_file(path: Optional[str]) -> None:
    """Drain-path cleanup; missing files are fine."""
    if path:
        with suppress(OSError):
            os.remove(path)


async def _serve_async(
    config: ServiceConfig,
    *,
    ready: Optional[
        Callable[[MicroBatchScheduler, ServiceServer], None]
    ] = None,
    stop: Optional[asyncio.Event] = None,
    install_signal_handlers: bool = False,
) -> None:
    """Run a full service until ``stop`` is set (or forever).

    On exit the drain order is: stop accepting HTTP and answer what is
    in flight, then flush job journals, flush the scheduler's
    remaining queue (``close(flush=True)`` evaluates already-accepted
    batches instead of abandoning their futures), close the fleet, and
    finally remove the port file -- its absence is the external signal
    that the daemon is truly gone.
    """
    scheduler, server, manager = await start_service(config)
    if stop is None:
        stop = asyncio.Event()
    if install_signal_handlers:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with suppress(NotImplementedError, ValueError):
                loop.add_signal_handler(signum, stop.set)
    if ready is not None:
        ready(scheduler, server)
    try:
        await stop.wait()
    finally:
        await server.close(grace_s=config.drain_grace_s)
        await manager.close()
        await scheduler.close(flush=True)
        if server.fleet is not None:
            # After the scheduler: its in-flight batches are the
            # fleet's last callers.
            server.fleet.close()
        if server.obs is not None:
            # Last: flushes and closes the arrival recorder after the
            # final admitted request has been journalled.
            server.obs.close()
        _remove_port_file(config.port_file)


def run_service(
    config: ServiceConfig,
    *,
    ready: Optional[
        Callable[[MicroBatchScheduler, ServiceServer], None]
    ] = None,
) -> int:
    """Blocking entry point for ``repro serve``.

    SIGTERM and SIGINT trigger a graceful drain (see
    :func:`_serve_async`) rather than an abrupt exit, so supervisors
    sending TERM get flushed journals and a removed port file.
    """
    try:
        asyncio.run(
            _serve_async(config, ready=ready, install_signal_handlers=True)
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    return 0


class BackgroundService:
    """A full service on a daemon thread, for tests and benchmarks.

    Runs exactly the stack ``repro serve`` runs (tiered cache,
    micro-batch scheduler, HTTP server) inside a private event loop::

        with BackgroundService(cache_dir=str(tmp)) as svc:
            client = ServiceClient(port=svc.port)
            ...

    The scheduler and job manager are exposed for white-box assertions
    on their counters.
    """

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        self.config = config if config is not None else ServiceConfig(
            port=0, **overrides
        )
        self.host = self.config.host
        self.port: Optional[int] = None
        self.scheduler: Optional[MicroBatchScheduler] = None
        self.manager: Optional[JobManager] = None
        self.fleet: Optional[EvalFleet] = None
        self.admission: Optional[AdmissionController] = None
        self.obs: Optional[Observability] = None
        self.server: Optional[ServiceServer] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self) -> Tuple[str, int]:
        """Start the thread; returns ``(host, port)`` once listening."""
        if self._thread is not None:
            return self.host, self.port
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30.0):
            raise RuntimeError("service did not start within 30s")
        if self._error is not None:
            raise RuntimeError(
                f"service failed to start: {self._error}"
            ) from self._error
        return self.host, self.port

    def stop(self) -> None:
        """Shut the service down and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "BackgroundService":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def ready(
            scheduler: MicroBatchScheduler, server: ServiceServer
        ) -> None:
            self.scheduler = scheduler
            if server.jobs_api is not None:
                self.manager = server.jobs_api.manager
            self.fleet = server.fleet
            self.admission = server.admission
            self.obs = server.obs
            self.server = server
            self.host, self.port = server.host, server.port
            self._ready.set()

        await _serve_async(self.config, ready=ready, stop=self._stop)
