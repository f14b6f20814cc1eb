"""Daemon workloads: a real ``repro serve`` process driven over HTTP.

The daemon runs in a child process with the workload's ``repro serve``
flags on top of the defaults: micro-batching, the in-memory result
cache and observability on.  No disk cache: its writes on the event
loop make the latency tail follow the host's disk, not the program.
Clients are coroutines on one event loop of the benchmark process,
each on its own keep-alive connection, in a closed loop (a client
sends its next request when the previous answer arrives) -- cheaper
and steadier than one thread per client, so the clients take less of
the CPU the daemon runs on.  Untimed calls (canaries, warm-up, stats)
go through the program's own :class:`repro.service.client.ServiceClient`.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import random
import signal
import subprocess
import sys
import time
from contextlib import suppress
from typing import Any, Dict, List, Optional, Sequence, Tuple

import inputs
import layers
from inputs import BenchError

HERE = os.path.dirname(os.path.abspath(__file__))

#: Daemon spans reported per request, in timeline order.  ``admission``
#: needs admission control on, ``pack`` and ``bucket`` (the process
#: handoff to a fleet worker) need ``--eval-procs``.
SPANS = (
    "parse", "admission", "cache_lookup", "batch_window", "queue_wait",
    "execute", "pack", "bucket", "unpack", "respond",
)

#: Traces fetched per traced run for the span breakdown.
TRACE_SAMPLE = 600

STARTUP_TIMEOUT_S = 60.0


class Daemon:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(
        self,
        root: str,
        workdir: str,
        serve_args: Sequence[str],
        *,
        traced: bool = False,
    ):
        os.makedirs(workdir)
        self.port_file = os.path.join(workdir, "port")
        self.layers_file = os.path.join(workdir, "layers.json")
        serve = [
            "serve", "--port", "0", "--port-file", self.port_file,
            *serve_args,
        ]
        if traced:
            spool = os.path.join(workdir, "spool")
            os.makedirs(spool)
            cmd = [
                sys.executable, os.path.join(HERE, "serve_traced.py"),
                self.layers_file, spool, *serve,
                "--trace-buffer", "1000000",
            ]
        else:
            cmd = [sys.executable, "-m", "repro", *serve]
        self._log = open(os.path.join(workdir, "daemon.log"), "wb")
        self.proc = subprocess.Popen(
            cmd, cwd=workdir, env=inputs.child_env(root),
            stdout=self._log, stderr=subprocess.STDOUT,
        )
        self.port = 0

    def _wait_for(self, path: str, what: str) -> None:
        deadline = time.perf_counter() + STARTUP_TIMEOUT_S
        while not os.path.exists(path):
            if self.proc.poll() is not None:
                raise BenchError(
                    f"daemon exited with {self.proc.returncode}: "
                    + self.log_tail()
                )
            if time.perf_counter() > deadline:
                raise BenchError(f"daemon did not {what}")
            time.sleep(0.002)

    def wait_ready(self) -> int:
        self._wait_for(self.port_file, "publish its port")
        with open(self.port_file) as fh:
            self.port = int(fh.read())
        return self.port

    def layer_snapshot(self) -> Dict[str, Any]:
        """The traced daemon's layer totals so far (asked by SIGUSR1)."""
        with suppress(FileNotFoundError):
            os.remove(self.layers_file)
        self.proc.send_signal(signal.SIGUSR1)
        self._wait_for(self.layers_file, "write its layer totals")
        with open(self.layers_file) as fh:
            return json.load(fh)

    def log_tail(self) -> str:
        self._log.flush()
        with open(self._log.name, "rb") as fh:
            return fh.read()[-2000:].decode("utf-8", "replace")

    def stop(self) -> None:
        """Drain (SIGTERM) and reap."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _service_client(port: int):
    from repro.service.client import ServiceClient

    # No retries: a rejected or refused call is a failure to report.
    return ServiceClient(
        "127.0.0.1", port, timeout=120, retry_429=0, connect_retries=0
    )


def _evaluate(port: int, points: Sequence[Dict[str, Any]]) -> List[Dict]:
    from repro.service.client import ServiceError

    with _service_client(port) as client:
        try:
            result = client.evaluate(points)
        except ServiceError as exc:
            raise BenchError(f"evaluate failed: {exc}") from None
    if result.n_failed:
        raise BenchError(f"evaluate answered {result.n_failed} errors")
    return result.records


def _stats(port: int) -> Dict[str, Any]:
    from repro.service.client import ServiceError

    with _service_client(port) as client:
        try:
            return client.stats()["counters"]
        except ServiceError as exc:
            raise BenchError(f"/v1/stats failed: {exc}") from None


def start_daemon(
    root: str, workdir: str, serve_args: Sequence[str], traced: bool
) -> Tuple[Daemon, float, Optional[str]]:
    """Start a daemon and have it answer the canaries.

    Returns the daemon, its set-up time and what was wrong with the
    canary answers (``None`` when they match the golden records).

    Set-up time runs from process spawn to the canaries' answer, so it
    covers interpreter start, imports, daemon start-up (with its fleet,
    if any) and the lazy work of the first evaluation.
    """
    t0 = time.perf_counter()
    daemon = Daemon(root, workdir, serve_args, traced=traced)
    try:
        records = _evaluate(daemon.wait_ready(), inputs.canary_points())
        setup_s = time.perf_counter() - t0
    except BaseException:
        daemon.stop()
        raise
    return daemon, setup_s, inputs.check_canaries(records)


async def _read_response(reader: asyncio.StreamReader) -> Tuple[int, Any]:
    """Read one HTTP/1.1 response with a content-length JSON body."""
    status = int((await reader.readline()).split()[1])
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value)
    return status, json.loads(await reader.readexactly(length))


class Drive:
    """Closed-loop clients consuming one :class:`inputs.RequestStream`."""

    def __init__(self, port: int, stream: inputs.RequestStream, tag: str):
        self.port = port
        self.stream = stream
        self.tag = tag
        #: index -> (point, record, t_sent, t_answered)
        self.done: Dict[int, Tuple[Dict[str, Any], Dict[str, Any], float, float]] = {}
        self.attempted = 0
        self.errors: List[str] = []
        self.t_start = 0.0

    def run(self, clients: int, seconds: float, traced: bool) -> None:
        """Drive for ``seconds``; requests in flight then still finish."""
        asyncio.run(self._run(clients, seconds, traced))

    async def _run(self, clients: int, seconds: float, traced: bool) -> None:
        self.t_start = time.perf_counter()
        deadline = self.t_start + seconds
        await asyncio.gather(
            *(self._client(deadline, traced) for _ in range(clients))
        )

    async def _client(self, deadline: float, traced: bool) -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            while time.perf_counter() < deadline:
                i, point = self.stream.take()
                self.attempted += 1
                head = (
                    "POST /v1/evaluate HTTP/1.1\r\n"
                    "host: 127.0.0.1\r\n"
                    "content-type: application/json\r\n"
                )
                if traced:
                    head += f"x-repro-trace-id: {self.tag}-{i}\r\n"
                body = json.dumps({"points": [point]}).encode()
                t0 = time.perf_counter()
                try:
                    writer.write(
                        f"{head}content-length: {len(body)}\r\n\r\n".encode()
                        + body
                    )
                    status, data = await _read_response(reader)
                    if status != 200 or data.get("n_failed"):
                        raise BenchError(f"evaluate answered {status}: {data}")
                except (BenchError, OSError, ValueError, IndexError,
                        asyncio.IncompleteReadError) as exc:
                    self.errors.append(f"request {i}: {exc}")
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", self.port
                    )
                    continue
                self.done[i] = (point, data["records"][0], t0,
                                time.perf_counter())
        finally:
            writer.close()
            await writer.wait_closed()

    def ops(self) -> List[Tuple[float, float, int]]:
        """``(t_answered, latency_s, points)`` of every answered request."""
        return [(t1, t1 - t0, 1) for _, _, t0, t1 in self.done.values()]

    def problems(self, seed: int, reference_sample: int) -> List[str]:
        """Check every answer, and a sample against the library."""
        found = list(self.errors)
        for i in sorted(self.done):
            point, record, _, _ = self.done[i]
            problem = inputs.record_problem(record, point)
            if problem is not None:
                found.append(f"request {i}: {problem}")
        ids = sorted(self.done)
        ids = random.Random(seed).sample(ids, min(reference_sample, len(ids)))
        sample = [self.done[i][0] for i in ids]
        # The daemon batches differently from either reference, and
        # records must not depend on batching.
        batched = inputs.reference_records(sample)
        solo = [inputs.reference_records([p])[0] for p in sample]
        for i, *wants in zip(ids, batched, solo):
            point, got, _, _ = self.done[i]
            for want in wants:
                problem = inputs.mismatch(got, want)
                if problem is not None:
                    found.append(f"point {point}: {problem}")
                    break
        return found


def _covered(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def span_breakdown(
    port: int, drive: Drive, seed: int
) -> Dict[str, float]:
    """Mean per-request span time (ms) from the daemon's ``/v1/trace``.

    A span name's time is the wall time its spans cover, so the fleet
    buckets of one batch, which run in parallel, count once.
    ``unattributed`` is the client-observed latency not covered by any
    daemon span: HTTP transport, the client, and event-loop hand-offs.
    """
    ids = sorted(drive.done)
    ids = random.Random(seed).sample(ids, min(TRACE_SAMPLE, len(ids)))
    totals = {name: 0.0 for name in (*SPANS, "unattributed")}
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
    try:
        for i in ids:
            conn.request("GET", f"/v1/trace/{drive.tag}-{i}")
            response = conn.getresponse()
            data = json.loads(response.read())
            if response.status != 200:
                raise BenchError(
                    f"trace {drive.tag}-{i}: {response.status} {data}"
                )
            by_name: Dict[str, List[Tuple[float, float]]] = {}
            for span in data["trace"]["spans"]:
                start = span["start_ms"]
                by_name.setdefault(span["name"], []).append(
                    (start, start + span["duration_ms"])
                )
            for name, intervals in by_name.items():
                if name in totals:
                    totals[name] += _covered(intervals)
            _, _, t_sent, t_answered = drive.done[i]
            totals["unattributed"] += 1e3 * (t_answered - t_sent) - _covered(
                [iv for intervals in by_name.values() for iv in intervals]
            )
    finally:
        conn.close()
    n = max(1, len(ids))
    return {name: total / n for name, total in totals.items()}


def run(
    root: str,
    workdir: str,
    *,
    seed: int,
    seconds: float,
    traced: bool,
    clients: int,
    serve_args: Sequence[str],
    setups: int,
    warmup_points: int,
    warmup_s: float,
    reference_sample: int,
) -> Dict[str, Any]:
    """One daemon workload run; returns the raw measurements.

    Set-up is measured on ``setups`` fresh daemons; the last one is
    measured.  Before timing, one request of ``warmup_points`` points
    and a ``warmup_s`` drive at the workload's concurrency let lazy
    work and memo caches settle, as in a daemon that has been up for a
    while.  Counters and layer clocks are read before and after the
    measured drive, so both cover exactly the measured requests.
    """
    setup_times: List[float] = []
    problems: List[str] = []
    daemon: Optional[Daemon] = None
    for k in range(setups):
        if daemon is not None:
            daemon.stop()
        daemon, setup_s, problem = start_daemon(
            root, os.path.join(workdir, f"daemon{k}"), serve_args, traced
        )
        setup_times.append(setup_s)
        if problem is not None:
            problems.append(problem)
    assert daemon is not None
    try:
        warm_stream = inputs.RequestStream(seed + 1)
        _evaluate(
            daemon.port,
            [warm_stream.take()[1] for _ in range(warmup_points)],
        )
        warm = Drive(daemon.port, warm_stream, "warm")
        warm.run(clients, warmup_s, traced=False)
        if warm.errors:
            raise BenchError(warm.errors[0])
        before = _stats(daemon.port)
        layers_before = daemon.layer_snapshot() if traced else None
        drive = Drive(daemon.port, inputs.RequestStream(seed), f"pb{seed}")
        drive.run(clients, seconds, traced)
        layers_after = daemon.layer_snapshot() if traced else None
        after = _stats(daemon.port)
        spans = span_breakdown(daemon.port, drive, seed) if traced else {}
    finally:
        daemon.stop()
    counters = {k: after[k] - before.get(k, 0) for k in after}
    result: Dict[str, Any] = {
        "setup_times": setup_times,
        "t_start": drive.t_start,
        "ops": drive.ops(),
        "attempted": drive.attempted,
        "failed": len(drive.errors),
        "problems": problems + drive.problems(seed, reference_sample),
    }
    if traced:
        result["missing_layers"] = layers_after["missing"]
        result["layer_us"] = layers.per_point_us(
            layers.delta(layers_after, layers_before)
        )
        result["spans_ms"] = spans
        result["counts"] = {
            "points_computed": counters.get("computed", 0),
            "batches": counters.get("batches", 0),
            "batch_points": counters.get("engine_points", 0),
        }
    return result
