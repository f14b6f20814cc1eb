"""Request micro-batching: the core of the evaluation daemon.

Concurrent ``/v1/evaluate`` requests land here as scenario points.  For
each point the scheduler, in order:

1. answers from the :class:`~repro.service.memcache.TieredCache`
   (memory LRU, then the on-disk campaign cache);
2. **coalesces** onto an identical in-flight computation -- requests
   sharing a campaign cache key await one future, so N concurrent
   identical queries cost exactly one engine invocation;
3. enqueues the point and lets it ride the next **micro-batch**: the
   drain loop waits a short window (``batch_window_ms``) after the
   first enqueue -- or until ``pack_rows`` Monte-Carlo rows are queued
   -- so that points arriving together are evaluated together.

Exactly one batch is in flight at a time.  Once the window closes, the
drain loop waits for that **evaluation slot**; everything queued
meanwhile (up to ``pack_rows``) becomes the next batch.  At
``batch_window_ms=0`` this is batching when busy: a lone request is
dispatched at once, and requests arriving while the engine works share
the next batch, so batches grow with load and no rate estimate or
tuning knob is needed.

A batch is evaluated on one resident thread through
:func:`~repro.campaign.executor.evaluate_points` -- the one batch entry
every execution path uses: analytic points grouped per family
onto :mod:`repro.core.batch`, simulate points packed into one
struct-of-arrays mega-batch, everything else per point.  Each point's
random stream comes from :func:`~repro.simulation.dispatch.tier_rng`
(the grouping-invariant per-point derivation), so service records are
**bit-identical** to solo CLI runs of the same points, whatever mix of
requests they were batched with.  A thread -- not a process -- carries
the work on purpose: the vectorised engines release the GIL inside
their NumPy kernels, so the event loop keeps collecting while a batch
runs, and the daemon's process keeps the schedule/optimisation memo
caches hot across requests, which is the point of a daemon.

Completed records are written through the tiered cache and fanned back
to every awaiting future.  All counters are surfaced via :meth:`stats`
(the ``GET /v1/stats`` payload).
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from concurrent.futures.process import BrokenProcessPool

from repro.campaign.cache import cache_key
from repro.campaign.planner import DEFAULT_PACK_ROWS, point_rows
from repro.campaign.pool import FleetUnavailableError
from repro.campaign.spec import ScenarioPoint
from repro.service.memcache import TieredCache
from repro.service.obs import Observability, RequestTrace
from repro.spans import BatchSink, run_with_sink

#: Default micro-batch collection window.  Long enough that requests
#: issued "at the same time" (one client fan-out, a burst of users)
#: land in one batch; short enough to be invisible next to engine time.
DEFAULT_WINDOW_MS = 5.0

#: Consecutive fleet-infrastructure failures before the circuit breaker
#: stops trying the fleet and routes every batch to the in-process
#: fallback.
DEFAULT_FLEET_FAILURE_THRESHOLD = 3

#: Evaluate failures that mean "the evaluator is gone", not "this batch
#: is bad": the fallback gets the batch and the circuit breaker counts.
FLEET_INFRA_ERRORS = (FleetUnavailableError, BrokenProcessPool)

#: A settled per-key outcome: the result record, or the exception the
#: computation raised.
Outcome = Union[Dict[str, Any], BaseException]


@dataclass
class _Pending:
    """One enqueued computation: a unique cache key awaiting a batch."""

    key: str
    point: ScenarioPoint
    rows: int
    future: "asyncio.Future[Dict[str, Any]]" = field(repr=False)
    #: Observability only (``None`` when tracing is off): when the
    #: point was enqueued, and the request traces riding this key --
    #: the original submitter plus any coalescers.
    enqueued_t: float = 0.0
    traces: Optional[List[RequestTrace]] = field(
        default=None, repr=False
    )


def _evaluate_with_spans(
    sink: BatchSink,
    t_cut: float,
    evaluate: Callable[[List[ScenarioPoint]], List[Dict[str, Any]]],
    points: List[ScenarioPoint],
) -> List[Dict[str, Any]]:
    """Executor-thread wrapper stamping queue-wait/execute spans.

    Runs *inside* the evaluation thread so the queue-wait span measures
    real executor dispatch delay, and the thread-local sink is armed on
    the same thread the fleet's ``evaluate`` runs on (contextvars do
    not cross ``run_in_executor``).
    """
    t0 = time.perf_counter()
    sink.add("queue_wait", t_cut, t0)
    try:
        return run_with_sink(sink, evaluate, points)
    finally:
        sink.add(
            "execute",
            t0,
            time.perf_counter(),
            {"batch_points": len(points)},
        )


class MicroBatchScheduler:
    """Coalesce, cache and micro-batch concurrent evaluation requests.

    Parameters
    ----------
    cache:
        The tiered result cache; ``None`` disables caching (in-flight
        coalescing still works).
    batch_window_ms:
        How long the drain loop waits after the first enqueue before
        cutting a batch, letting concurrent requests pile in.  ``0``
        dispatches as soon as the evaluation slot is free, so batches
        form only from what queues while the engine is busy.
    pack_rows:
        Row budget per batch; a full budget cuts the batch early and
        oversized queues split into several batches.
    evaluate:
        The batch evaluation function, ``points -> records`` in order.
        Defaults to :func:`~repro.campaign.executor.evaluate_points`;
        tests inject counting wrappers here to
        assert coalescing.
    fallback_evaluate:
        Graceful-degradation path for an injected ``evaluate`` that can
        disappear (the process fleet): when ``evaluate`` raises a fleet
        infrastructure error (:data:`FLEET_INFRA_ERRORS`), the batch is
        re-run through this callable instead of failing, and after
        ``fleet_failure_threshold`` *consecutive* such failures the
        circuit breaker opens -- every subsequent batch goes straight
        to the fallback (``"degraded": true`` plus counters in
        ``/v1/stats``).
    fleet_failure_threshold:
        Consecutive fleet failures that open the circuit breaker.
    """

    def __init__(
        self,
        cache: Optional[TieredCache] = None,
        *,
        batch_window_ms: float = DEFAULT_WINDOW_MS,
        pack_rows: int = DEFAULT_PACK_ROWS,
        evaluate: Optional[
            Callable[[List[ScenarioPoint]], List[Dict[str, Any]]]
        ] = None,
        fallback_evaluate: Optional[
            Callable[[List[ScenarioPoint]], List[Dict[str, Any]]]
        ] = None,
        fleet_failure_threshold: int = DEFAULT_FLEET_FAILURE_THRESHOLD,
        obs: Optional[Observability] = None,
    ):
        if batch_window_ms < 0:
            raise ValueError(
                f"batch_window_ms must be >= 0, got {batch_window_ms}"
            )
        if pack_rows < 1:
            raise ValueError(f"pack_rows must be >= 1, got {pack_rows}")
        if fleet_failure_threshold < 1:
            raise ValueError(
                f"fleet_failure_threshold must be >= 1, got "
                f"{fleet_failure_threshold}"
            )
        if evaluate is None:
            from repro.campaign.executor import evaluate_points

            evaluate = evaluate_points
        self._evaluate = evaluate
        self._fallback = fallback_evaluate
        self.fleet_failure_threshold = int(fleet_failure_threshold)
        self._consecutive_fleet_failures = 0
        self._circuit_open = False
        self._draining = False
        self._cache = cache
        self.batch_window_ms = float(batch_window_ms)
        self.pack_rows = int(pack_rows)

        #: Observability hub; ``None`` keeps every hook a no-op.
        self._obs = obs
        self._queue: "deque[_Pending]" = deque()
        self._queued_rows = 0
        self._inflight: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        #: key -> queued/in-flight pending, maintained only when
        #: tracing is on, so a coalescing request can attach its trace
        #: to the computation it joined.
        self._pending_by_key: Dict[str, _Pending] = {}
        #: The evaluation slot: the one batch in flight, if any.
        self._batch_task: Optional[asyncio.Task] = None
        self._drain_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._counters: Dict[str, int] = {
            "requests": 0,        # submit() calls
            "points": 0,          # points across all requests
            "cache_hits": 0,      # points answered by the tiered cache
            "coalesced": 0,       # points joined onto an in-flight future
            "computed": 0,        # points that started a new computation
            "computed_rows": 0,   # their summed Monte-Carlo rows
            "batches": 0,         # engine batches dispatched
            "engine_points": 0,   # unique points the engine evaluated
            "batch_failures": 0,  # batches whose evaluation raised
            "point_failures": 0,  # unique points whose evaluation raised
            "cache_put_failures": 0,
            "max_batch_points": 0,
            "fleet_failures": 0,  # evaluate raised a fleet infra error
            "fallback_batches": 0,  # batches answered by the fallback
            "circuit_breaker_trips": 0,  # times the breaker opened
        }

    @property
    def running(self) -> bool:
        """Whether the drain loop is active."""
        return self._drain_task is not None

    async def start(self) -> None:
        """Bind to the running event loop and start the drain task."""
        if self.running:
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        self._draining = False
        self._pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-eval"
        )
        self._drain_task = self._loop.create_task(self._drain())

    async def close(self, *, flush: bool = False) -> None:
        """Stop draining and finish the in-flight batch.

        With ``flush=False`` (teardown) queued-but-unbatched points
        fail with a clear error.  With ``flush=True`` (graceful drain,
        the SIGTERM path) the remaining queue is cut into batches and
        **evaluated** through the same slot first, so every request
        already accepted gets a real answer before the scheduler
        stops.  New submissions are refused either way once closing
        begins.
        """
        self._draining = True
        if self._drain_task is not None:
            self._drain_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._drain_task
            self._drain_task = None
        await self._slot_free()
        if flush and self._loop is not None and self._pool is not None:
            while self._queue:
                self._start_batch(self._take_batch())
                await self._slot_free()
        while self._queue:
            pending = self._queue.popleft()
            self._inflight.pop(pending.key, None)
            self._pending_by_key.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_exception(
                    RuntimeError("scheduler closed before evaluation")
                )
            # Retrieve the exception if nobody is awaiting, so closing
            # an idle scheduler never logs "exception never retrieved".
            with suppress(RuntimeError):
                pending.future.exception()
        self._queued_rows = 0
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    async def resolve(
        self,
        points: Sequence[ScenarioPoint],
        *,
        trace: Optional[RequestTrace] = None,
    ) -> Tuple[List[str], Dict[str, Outcome]]:
        """Evaluate points, returning settled per-unique-key outcomes.

        The low-level entry the jobs layer builds on: duplicate points
        within the request, identical concurrent requests and cached
        points all resolve to one outcome per cache key.  An outcome is
        the **raw** result record (no ``labels`` merged -- exactly what
        the campaign journal stores) or the exception its evaluation
        raised; nothing is raised here, so one bad point never poisons
        its neighbours.
        """
        if not self.running:
            raise RuntimeError(
                "scheduler is not running; call start() first"
            )
        if self._draining:
            raise RuntimeError(
                "scheduler is draining and not accepting new work"
            )
        keys = [cache_key(p) for p in points]
        if not points:
            return keys, {}
        self._counters["requests"] += 1
        self._counters["points"] += len(points)
        unique: Dict[str, ScenarioPoint] = {}
        for key, point in zip(keys, points):
            unique.setdefault(key, point)
        # One bulk lookup per request, deduplicated: the disk tier
        # probes each unique key once, on the loop thread.
        outcomes: Dict[str, Outcome] = {}
        if self._cache is not None:
            t_cache0 = time.perf_counter() if trace is not None else 0.0
            outcomes = dict(self._cache.get_many(list(unique)))
            self._counters["cache_hits"] += len(outcomes)
            if trace is not None:
                trace.span(
                    "cache_lookup",
                    t_cache0,
                    time.perf_counter(),
                    {"keys": len(unique), "hits": len(outcomes)},
                )
        waiting: Dict[str, "asyncio.Future[Dict[str, Any]]"] = {}
        tracing = self._obs is not None
        for key, point in unique.items():
            if key in outcomes:
                continue
            future = self._inflight.get(key)
            if future is not None:
                self._counters["coalesced"] += 1
                if trace is not None:
                    joined = self._pending_by_key.get(key)
                    if joined is not None:
                        if joined.traces is None:
                            joined.traces = []
                        joined.traces.append(trace)
            else:
                future = self._loop.create_future()
                self._inflight[key] = future
                rows = point_rows(point)
                pending = _Pending(key, point, rows, future)
                if tracing:
                    pending.enqueued_t = time.perf_counter()
                    if trace is not None:
                        pending.traces = [trace]
                    self._pending_by_key[key] = pending
                self._queue.append(pending)
                self._queued_rows += rows
                self._counters["computed"] += 1
                self._counters["computed_rows"] += rows
                self._wake.set()
            waiting[key] = future
        if waiting:
            results = await asyncio.gather(
                *waiting.values(), return_exceptions=True
            )
            outcomes.update(zip(waiting, results))
        return keys, outcomes

    async def submit(
        self, points: Sequence[ScenarioPoint]
    ) -> Tuple[List[str], List[Dict[str, Any]]]:
        """Evaluate points, returning ``(cache_keys, records)`` in order.

        Per-point ``labels`` are merged into each returned record
        exactly as campaign assembly does.  The first failed point's
        exception is re-raised (all-or-nothing); front ends that want
        per-point error reporting use :meth:`submit_settled`.
        """
        keys, outcomes = await self.resolve(points)
        records: List[Dict[str, Any]] = []
        for key, point in zip(keys, points):
            outcome = outcomes[key]
            if isinstance(outcome, BaseException):
                raise outcome
            records.append({**dict(point.labels), **outcome})
        return keys, records

    async def submit_settled(
        self,
        points: Sequence[ScenarioPoint],
        *,
        trace: Optional[RequestTrace] = None,
    ) -> Tuple[List[str], List[Dict[str, Any]], int]:
        """Evaluate points; failures become per-point ``error`` records.

        Returns ``(cache_keys, records, n_failed)``.  A point whose
        evaluation raised yields ``{**labels, "error": <message>}``
        instead of failing the whole request -- the ``/v1/evaluate``
        contract since protocol 2.
        """
        keys, outcomes = await self.resolve(points, trace=trace)
        t_unpack0 = time.perf_counter() if trace is not None else 0.0
        records: List[Dict[str, Any]] = []
        n_failed = 0
        for key, point in zip(keys, points):
            outcome = outcomes[key]
            if isinstance(outcome, BaseException):
                n_failed += 1
                records.append(
                    {**dict(point.labels), "error": str(outcome)}
                )
            else:
                records.append({**dict(point.labels), **outcome})
        if trace is not None:
            trace.span("unpack", t_unpack0, time.perf_counter())
        return keys, records, n_failed

    def stats(self) -> Dict[str, Any]:
        """Configuration, counters and cache state for ``/v1/stats``."""
        return {
            "config": {
                "batch_window_ms": self.batch_window_ms,
                "pack_rows": self.pack_rows,
            },
            "counters": dict(self._counters),
            "inflight": len(self._inflight),
            "queued": len(self._queue),
            "queued_rows": self._queued_rows,
            #: Circuit breaker open: batches run in-process, not on the
            #: injected evaluator (the fleet), until restart.
            "degraded": self._circuit_open,
            "cache": (
                self._cache.stats() if self._cache is not None else None
            ),
        }

    # -- drain loop ---------------------------------------------------------
    async def _drain(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            if not self._queue:
                continue
            if self.batch_window_ms > 0:
                # The micro-batching window: let concurrent requests
                # pile onto the queue before cutting a batch.  Every
                # enqueue re-signals the wake event, so a burst that
                # fills the row budget cuts the window short.
                deadline = self._loop.time() + self.batch_window_ms / 1000.0
                while self._queued_rows < self.pack_rows:
                    remaining = deadline - self._loop.time()
                    if remaining <= 0:
                        break
                    self._wake.clear()
                    try:
                        await asyncio.wait_for(
                            self._wake.wait(), remaining
                        )
                    except asyncio.TimeoutError:
                        break
            # One batch in flight: whatever queues while the slot is
            # busy (up to the row budget) becomes the next batch.
            while self._queue:
                await self._slot_free()
                self._start_batch(self._take_batch())

    async def _slot_free(self) -> None:
        """Wait until no batch is in flight.

        ``asyncio.wait`` rather than awaiting the task: cancelling the
        drain loop (:meth:`close`) must not cancel the batch it waits on.
        """
        if self._batch_task is not None:
            await asyncio.wait((self._batch_task,))
            self._batch_task = None

    def _start_batch(self, batch: List[_Pending]) -> None:
        """Occupy the evaluation slot with ``batch``."""
        self._batch_task = self._loop.create_task(self._run_batch(batch))

    def _take_batch(self) -> List[_Pending]:
        """Pop queued points up to the row budget (at least one)."""
        if self._obs is not None:
            self._obs.h_queue_depth.observe(len(self._queue))
        batch: List[_Pending] = []
        rows = 0
        while self._queue:
            pending = self._queue[0]
            if batch and rows + pending.rows > self.pack_rows:
                break
            batch.append(self._queue.popleft())
            rows += pending.rows
        self._queued_rows -= rows
        return batch

    def _active_evaluate(
        self,
    ) -> Tuple[Callable[..., List[Dict[str, Any]]], bool]:
        """The callable batches run through, and whether it's the fallback."""
        if self._circuit_open and self._fallback is not None:
            return self._fallback, True
        return self._evaluate, False

    def _record_fleet_failure(self) -> None:
        """Count one fleet infrastructure failure; maybe open the breaker."""
        self._counters["fleet_failures"] += 1
        self._consecutive_fleet_failures += 1
        if (
            not self._circuit_open
            and self._consecutive_fleet_failures
            >= self.fleet_failure_threshold
        ):
            self._circuit_open = True
            self._counters["circuit_breaker_trips"] += 1

    def _dispatch_evaluate(
        self,
        evaluate: Callable[..., List[Dict[str, Any]]],
        points: List[ScenarioPoint],
        sink: Optional[BatchSink],
        t_cut: float,
    ) -> "asyncio.Future":
        """Run one engine call on the pool, span-wrapped when traced."""
        if sink is not None:
            return self._loop.run_in_executor(
                self._pool, _evaluate_with_spans, sink, t_cut,
                evaluate, points,
            )
        return self._loop.run_in_executor(self._pool, evaluate, points)

    async def _run_batch(self, batch: List[_Pending]) -> None:
        self._counters["batches"] += 1
        self._counters["engine_points"] += len(batch)
        self._counters["max_batch_points"] = max(
            self._counters["max_batch_points"], len(batch)
        )
        points = [p.point for p in batch]
        evaluate, on_fallback = self._active_evaluate()
        # Observability: a span sink is allocated only when at least
        # one request trace rides this batch, so untraced traffic (and
        # obs-off daemons) pay nothing here.
        sink: Optional[BatchSink] = None
        t_cut = 0.0
        if self._obs is not None:
            self._obs.h_batch_points.observe(len(batch))
            if any(p.traces for p in batch):
                sink = BatchSink()
                t_cut = time.perf_counter()
        try:
            records = await self._dispatch_evaluate(
                evaluate, points, sink, t_cut
            )
            if not on_fallback:
                self._consecutive_fleet_failures = 0
        except FLEET_INFRA_ERRORS as exc:
            if on_fallback or self._fallback is None:
                self._counters["batch_failures"] += 1
                await self._isolate_failed_batch(batch, exc)
                return
            # Graceful degradation: the fleet is gone (not the batch);
            # answer in-process and let the breaker decide whether to
            # keep trying the fleet on future batches.
            self._record_fleet_failure()
            on_fallback = True
            try:
                records = await self._dispatch_evaluate(
                    self._fallback, points, sink, t_cut
                )
            except Exception as fallback_exc:
                self._counters["batch_failures"] += 1
                await self._isolate_failed_batch(batch, fallback_exc)
                return
        except Exception as exc:
            self._counters["batch_failures"] += 1
            await self._isolate_failed_batch(batch, exc)
            return
        if on_fallback:
            self._counters["fallback_batches"] += 1
        if self._obs is not None:
            self._stamp_batch_spans(batch, sink, t_cut, on_fallback)
        # Cache BEFORE resolving futures/in-flight entries: a request
        # arriving between those steps then finds the record in cache,
        # keeping "one computation per key" airtight.  A failed cache
        # write (disk full, permissions) must not fail the requests --
        # the records exist; count it and answer.
        if self._cache is not None:
            try:
                self._cache.put_many(
                    {p.key: r for p, r in zip(batch, records)}
                )
            except OSError:
                self._counters["cache_put_failures"] += 1
        for pending, record in zip(batch, records):
            self._inflight.pop(pending.key, None)
            self._pending_by_key.pop(pending.key, None)
            if not pending.future.done():
                pending.future.set_result(record)

    def _stamp_batch_spans(
        self,
        batch: List[_Pending],
        sink: Optional[BatchSink],
        t_cut: float,
        on_fallback: bool,
    ) -> None:
        """Fan batch-level spans out to every trace riding the batch."""
        bucket_spans = sink.spans if sink is not None else []
        for pending in batch:
            if not pending.traces:
                continue
            for trace in pending.traces:
                meta: Dict[str, Any] = {
                    "window_ms": self.batch_window_ms,
                    "batch_points": len(batch),
                }
                if on_fallback:
                    meta["fallback"] = True
                trace.span(
                    "batch_window", pending.enqueued_t, t_cut, meta
                )
                if bucket_spans:
                    trace.add_spans(bucket_spans)

    async def _isolate_failed_batch(
        self, batch: List[_Pending], exc: Exception
    ) -> None:
        """Attribute a failed batch to the points that actually fail.

        A mega-batch evaluates as one engine call, so one degenerate
        point would otherwise fail every point batched with it.  On
        failure each point is re-evaluated solo: the innocents still
        answer (and are cached), and only the genuinely failing points
        carry the exception.  A single-point batch needs no re-run --
        the failure is its own.
        """
        if len(batch) == 1:
            outcomes: List[Any] = [exc]
        else:
            evaluate, _ = self._active_evaluate()
            outcomes = list(
                await asyncio.gather(
                    *(
                        self._loop.run_in_executor(
                            self._pool, evaluate, [p.point]
                        )
                        for p in batch
                    ),
                    return_exceptions=True,
                )
            )
            outcomes = [
                o if isinstance(o, BaseException) else o[0]
                for o in outcomes
            ]
        good = {
            p.key: o
            for p, o in zip(batch, outcomes)
            if not isinstance(o, BaseException)
        }
        if self._cache is not None and good:
            try:
                self._cache.put_many(good)
            except OSError:
                self._counters["cache_put_failures"] += 1
        for pending, outcome in zip(batch, outcomes):
            self._inflight.pop(pending.key, None)
            self._pending_by_key.pop(pending.key, None)
            if pending.future.done():
                continue
            if isinstance(outcome, BaseException):
                self._counters["point_failures"] += 1
                pending.future.set_exception(outcome)
            else:
                pending.future.set_result(outcome)
