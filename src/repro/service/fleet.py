"""The process pool: the daemon's resident fleet and campaign workers.

One daemon process tops out at roughly one core of Monte-Carlo: the
:class:`~repro.service.scheduler.MicroBatchScheduler` evaluates its
mega-batches on an in-process thread pool, and NumPy holds the GIL for
only part of each engine call.  :class:`EvalFleet` lifts that ceiling
by fanning every scheduler batch out to **N resident worker
processes**.  It is the only process pool in the package:
``run_campaign`` with several workers runs its planned buckets on an
``EvalFleet`` too (:meth:`EvalFleet.run_buckets`, which yields each
bucket as it lands so the campaign journal streams), and so gets the
same crash recovery.

* The pool is created once (fork context) -- at service startup, or
  by the first multi-worker campaign of a process, whose later
  campaigns reuse it until exit -- and stays warm: each worker keeps
  its imports, schedule/optimisation memo caches and NumPy buffers
  across batches, so per-batch cost is IPC plus compute, never
  interpreter start-up.
* Each batch is carved into buckets by the **one planner every
  execution path uses** (:func:`repro.campaign.planner.plan_buckets`,
  also behind ``run_campaign`` and the jobs API), called with
  ``workers=procs``: packable points are row-budgeted with the budget
  spread across the fleet, and other points (explicit tiers, analytic,
  optimize) are chunked about four per process, so one batch fills the
  whole fleet instead of one worker.
* Workers evaluate through
  :func:`~repro.campaign.executor.evaluate_points`, whose per-point
  records are **bit-identical** to solo
  :func:`~repro.campaign.executor.evaluate_point` runs under any
  packing -- ``tier_rng``'s placement-invariant per-point streams make
  the worker count invisible in the results.  The fleet reassembles
  records in input order, so swapping it in for in-process evaluation
  changes throughput and nothing else.

The scheduler takes the fleet as its injectable ``evaluate`` callable
(``MicroBatchScheduler(..., evaluate=fleet.evaluate)``); ``repro serve
--eval-procs N`` wires it up, and the fleet's counters surface under
``"evaluator"`` in ``GET /v1/stats``.

Crash recovery
--------------
A worker dying mid-batch (OOM kill, segfault in a native extension, a
chaos-injected ``kill@N``) breaks the whole ``ProcessPoolExecutor``:
every in-flight future raises ``BrokenProcessPool`` and the pool never
accepts work again.  Instead of letting that poison the scheduler
forever, :meth:`EvalFleet.run_buckets` (behind both
:meth:`EvalFleet.evaluate` and campaign runs):

1. **rebuilds** the pool (fork + warm-up, exactly like startup) and
   **re-executes** the buckets that had not completed -- safe by
   construction, because ``tier_rng``'s placement invariance makes a
   retried bucket's records bit-identical to the records the dead
   worker would have produced;
2. retries each bucket a bounded number of times, then **bisects** a
   repeatedly-crashing bucket so the innocents in it still answer;
3. **quarantines** a single point that keeps crashing workers: its
   cache key goes on a deny list and further evaluations raise
   :class:`~repro.service.faults.PoisonPointError` immediately (a
   per-point error record downstream), never touching the pool again.

If the pool cannot be *rebuilt* (fork failing, warm-up dying -- an
infrastructure problem, not a point problem), evaluation raises
:class:`~repro.service.faults.FleetUnavailableError`; the scheduler's
circuit breaker then degrades to in-process evaluation.  A worker that
dies during the **constructor** warm-up fails fast with a clear
message instead of surfacing as an opaque ``BrokenProcessPool`` at the
first batch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from contextlib import suppress
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.campaign.cache import cache_key
from repro.campaign.planner import (
    DEFAULT_PACK_ROWS,
    Bucket,
    bucket_rows,
    plan_buckets,
    point_rows,
)
from repro.campaign.spec import ScenarioPoint
from repro.service.faults import (
    FaultInjector,
    FleetUnavailableError,
    InjectedFault,
    PoisonPointError,
)
from repro.service.obs import Observability, current_sink

#: Pool-crash retries per bucket before bisection kicks in.
DEFAULT_BUCKET_RETRIES = 2

#: Serialises the worker forks of every fleet in the process.  A worker
#: forked by one thread while another thread's pool is launching could
#: inherit that pool's new worker's exit-sentinel pipe; the worker's
#: death would then go unnoticed and its pool would wait forever.
_FORK_LOCK = threading.Lock()


def _warm_worker() -> None:
    """Pool initializer: pay the heavy imports once per worker.

    Under ``fork`` the parent's modules arrive pre-imported, but under
    ``spawn`` (or a parent that forked before importing the engine)
    this is where each resident worker loads NumPy and the simulation
    tiers -- before the first batch, not during it.
    """
    import repro.campaign.executor  # noqa: F401
    import repro.simulation.packed_engine  # noqa: F401


def _crash_on_warm() -> None:
    """Chaos initializer (``crash-prewarm``): die during warm-up."""
    os._exit(43)


def _noop() -> None:
    """Spawn-forcing task; see the prewarm in :class:`EvalFleet`."""


def _evaluate_bucket(
    point_dicts: Sequence[Dict[str, Any]],
    poison_seeds: Tuple[int, ...] = (),
    timed: bool = False,
) -> Any:
    """Worker entry: one row-budgeted bucket of serialised points.

    ``poison_seeds`` is the chaos harness's fail-stop model: a bucket
    containing a simulate point with one of these seeds hard-exits the
    worker, exactly like a segfault would -- the deterministic stand-in
    the bisection-quarantine tests and benches are built on.

    ``timed`` (observability: a traced request is riding the batch)
    wraps the same records -- untouched, bit-identity preserved -- in
    an envelope carrying the worker PID and in-worker evaluation time
    for the per-worker bucket spans of ``GET /v1/trace/<id>``.
    """
    if poison_seeds:
        for d in point_dicts:
            if (
                d.get("mode", "simulate") == "simulate"
                and d.get("seed") in poison_seeds
            ):
                os._exit(17)
    from repro.campaign.executor import evaluate_points

    points = [ScenarioPoint.from_dict(d) for d in point_dicts]
    if timed:
        t0 = time.perf_counter()
        records = evaluate_points(points)
        return {
            "records": records,
            "pid": os.getpid(),
            "eval_s": time.perf_counter() - t0,
        }
    return evaluate_points(points)


class EvalFleet:
    """A resident process pool evaluating scheduler batches.

    ``procs`` is the worker count; ``pack_rows`` bounds one bucket's
    Monte-Carlo rows (the effective budget also shrinks to spread each
    batch across the fleet); ``bucket_retries`` bounds pool rebuilds
    per bucket before bisection.  :meth:`evaluate` is thread-safe --
    the scheduler calls it from several executor threads at once, and
    pool rebuilds are generation-guarded so concurrent failures trigger
    exactly one rebuild.
    """

    def __init__(
        self,
        procs: int,
        *,
        pack_rows: int = DEFAULT_PACK_ROWS,
        bucket_retries: int = DEFAULT_BUCKET_RETRIES,
        injector: Optional[FaultInjector] = None,
        obs: Optional[Observability] = None,
    ):
        if procs < 1:
            raise ValueError(f"procs must be >= 1, got {procs}")
        if pack_rows < 1:
            raise ValueError(f"pack_rows must be >= 1, got {pack_rows}")
        if bucket_retries < 0:
            raise ValueError(
                f"bucket_retries must be >= 0, got {bucket_retries}"
            )
        self.procs = int(procs)
        self.pack_rows = int(pack_rows)
        self.bucket_retries = int(bucket_retries)
        self._injector = injector
        self._poison_seeds: Tuple[int, ...] = (
            tuple(sorted(injector.plan.poison_seeds))
            if injector is not None
            else ()
        )
        self._initializer = (
            _crash_on_warm
            if injector is not None and injector.plan.crash_prewarm
            else _warm_worker
        )
        self._obs = obs
        # With observability on, the counter lock IS the hub's shared
        # stats lock: /v1/stats and /metrics snapshots then can never
        # observe fleet counters mid-update relative to the rest of
        # the payload (one uncontended acquire per batch).
        self._lock = (
            obs.stats_lock if obs is not None else threading.Lock()
        )
        self._pool_lock = threading.Lock()
        self._generation = 0
        self._closed = False
        self._broken = False
        self._quarantine: set = set()
        self._counters: Dict[str, int] = {
            "batches": 0,
            "buckets": 0,
            "points": 0,
            "rows": 0,
            "max_bucket_rows": 0,
            "max_batch_buckets": 0,
            "pool_rebuilds": 0,
            "bucket_retries": 0,
            "bisections": 0,
            "quarantined_points": 0,
        }
        # Forked workers inherit the parent's modules: importing the
        # engines here, once, keeps them out of every worker's warm-up.
        _warm_worker()
        self._pool: Optional[ProcessPoolExecutor] = self._make_pool(
            at_startup=True
        )

    # -- pool lifecycle ------------------------------------------------------
    def _make_pool(self, *, at_startup: bool = False) -> ProcessPoolExecutor:
        """Fork and warm a fresh worker pool, failing fast and clearly.

        A worker dying during warm-up used to surface as an opaque
        hang/``BrokenProcessPool`` at the first batch; now it raises
        here, at ``repro serve`` startup (or mid-recovery as
        :class:`FleetUnavailableError`), naming the real problem.
        """
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        pool = ProcessPoolExecutor(
            max_workers=self.procs,
            mp_context=context,
            initializer=self._initializer,
        )
        # Force every worker to fork NOW, not lazily on first batch:
        # the executor spawns one process per submit while none are
        # idle, and the service creates the fleet *before* binding its
        # listening socket -- forking later would hand each worker a
        # copy of live connection FDs, holding client connections open
        # long after the server closes them.
        try:
            with _FORK_LOCK:  # the first submit forks every worker
                prewarms = [pool.submit(_noop) for _ in range(self.procs)]
            for prewarm in prewarms:
                prewarm.result()
        except BaseException as exc:
            pool.shutdown(wait=False, cancel_futures=True)
            message = (
                f"fleet worker died during warm-up "
                f"({self.procs} procs): {exc!r}. A worker "
                "process exited before serving its first batch -- "
                "check memory limits and engine imports in the worker "
                "environment"
            )
            if at_startup:
                raise FleetUnavailableError(message) from exc
            raise FleetUnavailableError(
                f"could not rebuild the worker pool: {message}"
            ) from exc
        return pool

    def _current_pool(self) -> Tuple[ProcessPoolExecutor, int]:
        """The live pool and its generation (for rebuild coordination)."""
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("EvalFleet is closed")
            if self._pool is None or self._broken:
                raise FleetUnavailableError(
                    "fleet worker pool is gone and could not be rebuilt"
                )
            return self._pool, self._generation

    def _ensure_rebuilt(self, broken_generation: int) -> None:
        """Rebuild the pool generation that just broke (exactly once).

        Several scheduler threads can observe the same broken pool;
        the generation guard makes the first one rebuild and the rest
        reuse its result.  A failed rebuild marks the fleet broken so
        callers degrade instead of rebuild-storming.
        """
        with self._pool_lock:
            if self._closed:
                raise RuntimeError("EvalFleet is closed")
            if self._broken:
                raise FleetUnavailableError(
                    "fleet worker pool is gone and could not be rebuilt"
                )
            if self._generation != broken_generation:
                return  # another thread already rebuilt
            old, self._pool = self._pool, None
            if old is not None:
                with suppress(Exception):
                    old.shutdown(wait=False, cancel_futures=True)
            try:
                self._pool = self._make_pool()
            except FleetUnavailableError:
                self._broken = True
                raise
            self._generation += 1
            with self._lock:
                self._counters["pool_rebuilds"] += 1

    def _submit_bucket(
        self, bucket: Bucket, timed: bool = False
    ) -> Tuple[int, "Future", float]:
        """Submit one bucket, riding through an already-broken pool.

        A pool killed *between* batches breaks at ``submit`` time, not
        at ``result`` time; rebuild and resubmit.  Termination is
        guaranteed because a rebuild either yields a warm, verified
        pool or raises :class:`FleetUnavailableError`.  Returns the
        submit timestamp too (the bucket span's start when traced).
        """
        payload = [p.to_dict() for _, p in bucket]
        while True:
            pool, generation = self._current_pool()
            try:
                t_sub = time.perf_counter() if timed else 0.0
                return generation, pool.submit(
                    _evaluate_bucket, payload, self._poison_seeds, timed
                ), t_sub
            except BrokenProcessPool:
                self._ensure_rebuilt(generation)
            except RuntimeError:
                # shutdown raced with us; report through the usual path
                self._current_pool()
                raise

    def _kill_one_worker(self) -> None:
        """Chaos hook: SIGKILL the lowest-pid live worker (``kill@N``)."""
        with self._pool_lock:
            pool = self._pool
        processes = getattr(pool, "_processes", None) or {}
        for pid in sorted(processes):
            with suppress(ProcessLookupError, PermissionError):
                os.kill(pid, signal.SIGKILL)
            return

    # -- evaluation ----------------------------------------------------------
    def evaluate(
        self, points: Sequence[ScenarioPoint]
    ) -> List[Dict[str, Any]]:
        """Evaluate one scheduler batch across the fleet, in order.

        Bucket planning depends only on point content, order and
        ``procs``, and every bucket is evaluated through the
        placement-invariant packed path, so the records match an
        in-process :func:`evaluate_points` call bit for bit,
        **including across pool rebuilds**: a retried bucket replays
        the exact per-point RNG streams the crashed attempt started.
        """
        self._current_pool()  # closed/broken checks up front
        if not points:
            return []
        batch_fault = None
        if self._injector is not None:
            fault = self._injector.eval_call()
            if fault.delay_s > 0:
                time.sleep(fault.delay_s)
            if fault.raise_now:
                raise InjectedFault(
                    f"injected evaluation failure "
                    f"(eval call {fault.ordinal})"
                )
            batch_fault = self._injector.fleet_batch()
        # Observability: the thread-local sink is armed by the
        # scheduler (same executor thread) only when a request trace
        # is riding this batch; its buckets then report per-worker
        # spans through it without touching the records themselves.
        sink = current_sink() if self._obs is not None else None
        # Index-keyed items: input position is the reassembly address
        # (cache keys may legitimately repeat within a batch).
        items = [(str(i), p) for i, p in enumerate(points)]
        total_rows = sum(point_rows(p) for p in points)
        t_plan0 = time.perf_counter() if self._obs is not None else 0.0
        buckets = plan_buckets(items, self.pack_rows, workers=self.procs)
        if self._obs is not None:
            for b in buckets:
                self._obs.h_bucket_rows.observe(bucket_rows(b))
            if sink is not None:
                sink.add(
                    "pack",
                    t_plan0,
                    time.perf_counter(),
                    {"buckets": len(buckets)},
                )
        out: List[Optional[Dict[str, Any]]] = [None] * len(points)
        for bucket, records in self.run_buckets(
            buckets,
            sink=sink,
            kill=batch_fault is not None and batch_fault.kill,
        ):
            for (key, _), record in zip(bucket, records):
                out[int(key)] = record
        with self._lock:
            self._counters["batches"] += 1
            self._counters["buckets"] += len(buckets)
            self._counters["points"] += len(points)
            self._counters["rows"] += total_rows
            self._counters["max_bucket_rows"] = max(
                self._counters["max_bucket_rows"],
                max(bucket_rows(b) for b in buckets),
            )
            self._counters["max_batch_buckets"] = max(
                self._counters["max_batch_buckets"], len(buckets)
            )
        return out  # type: ignore[return-value]

    def run_buckets(
        self,
        buckets: Sequence[Bucket],
        *,
        sink: Optional[Any] = None,
        kill: bool = False,
        width: Optional[int] = None,
    ) -> Iterator[Tuple[Bucket, List[Dict[str, Any]]]]:
        """Evaluate planned buckets; yield ``(bucket, records)`` as each lands.

        Buckets come back in completion order, a retried or bisected
        bucket as the pieces that finally answered, so a caller can
        stream every finished bucket (a campaign journals it) before
        the rest are done.  A worker crash rebuilds the pool and
        re-executes what had not answered; a point that keeps crashing
        workers raises :class:`PoisonPointError` after every other
        bucket ahead of it has been yielded, and stays quarantined:
        later runs that hold it raise before submitting anything.

        ``sink`` (a request trace riding the batch) receives one
        ``bucket`` span per answered bucket; ``kill`` is the chaos
        ``kill@N`` hook, fired once the first round is submitted.
        ``width`` caps the buckets running at once when it is below
        ``procs`` (a campaign asking for fewer workers than the pool
        has); they then run in rounds of ``width``.
        """
        if self._quarantine:
            for bucket in buckets:
                for _, point in bucket:
                    key = cache_key(point)
                    if key in self._quarantine:
                        raise PoisonPointError(
                            f"point {key} is quarantined: it repeatedly "
                            "crashed fleet workers and will not be "
                            "re-evaluated"
                        )
        timed = sink is not None
        # (bucket, crashes-so-far) work list; crashed buckets re-enter
        # it until their retry budget is spent, then split in half.
        pending: List[Tuple[Bucket, int]] = [(b, 0) for b in buckets]
        # A dead worker breaks EVERY in-flight future, so a concurrent
        # crash cannot be blamed on any one bucket -- an innocent
        # sharing the pool with a poisonous point must not accumulate
        # strikes toward quarantine.  After the first crash we run one
        # bucket per round: a bucket that then crashes did it alone,
        # and only those solo crashes count.
        serial = False
        step = width if width is not None and width < self.procs else None
        in_flight: Dict[Future, Tuple[Bucket, int, int, float]] = {}
        try:
            while pending:
                if serial:
                    round_items, pending = [pending[0]], pending[1:]
                else:
                    cut = step or len(pending)
                    round_items, pending = pending[:cut], pending[cut:]
                in_flight = {}
                for bucket, crashes in round_items:
                    generation, future, t_sub = self._submit_bucket(
                        bucket, timed
                    )
                    in_flight[future] = (bucket, crashes, generation, t_sub)
                if kill:
                    self._kill_one_worker()
                    kill = False
                solo = len(in_flight) == 1
                while in_flight:
                    done, _ = wait(in_flight, return_when=FIRST_COMPLETED)
                    for future in done:
                        bucket, crashes, generation, t_sub = in_flight.pop(
                            future
                        )
                        try:
                            answer = future.result()
                        except BrokenProcessPool:
                            self._ensure_rebuilt(generation)
                            if solo:
                                pending.extend(
                                    self._plan_retry(bucket, crashes + 1)
                                )
                            else:
                                pending.append((bucket, crashes))
                            serial = True
                            continue
                        if timed and isinstance(answer, dict):
                            sink.add(
                                "bucket",
                                t_sub,
                                time.perf_counter(),
                                {
                                    "points": len(bucket),
                                    "rows": bucket_rows(bucket),
                                    "worker_pid": answer["pid"],
                                    "worker_eval_ms": round(
                                        1e3 * answer["eval_s"], 3
                                    ),
                                },
                            )
                            answer = answer["records"]
                        yield bucket, answer
        finally:
            # A run that stops early (a poison point, an evaluation
            # error, a caller that gives up) cancels its buckets that
            # have not started, so a shared pool does not run them
            # ahead of the next caller's.
            for future in in_flight:
                future.cancel()

    def _plan_retry(
        self, bucket: Bucket, crashes: int
    ) -> List[Tuple[Bucket, int]]:
        """Decide a crashed bucket's fate: retry, bisect or quarantine.

        Retries are bounded (``bucket_retries``); past the budget a
        multi-point bucket splits in half -- each half re-entering with
        one remaining attempt, so a genuinely poisonous point is
        cornered in ~log2(bucket) extra crashes -- and a single
        repeatedly-crashing point is convicted and quarantined.
        """
        with self._lock:
            self._counters["bucket_retries"] += 1
        if crashes <= self.bucket_retries:
            return [(bucket, crashes)]
        if len(bucket) > 1:
            with self._lock:
                self._counters["bisections"] += 1
            mid = len(bucket) // 2
            resume_at = max(self.bucket_retries, 1) - 1
            return [
                (bucket[:mid], resume_at),
                (bucket[mid:], resume_at),
            ]
        key = cache_key(bucket[0][1])
        self._quarantine.add(key)
        with self._lock:
            self._counters["quarantined_points"] += 1
        raise PoisonPointError(
            f"point {key} crashed a fleet worker "
            f"{crashes} time(s) (pool rebuilt each time) and is now "
            "quarantined; it will answer as a per-point error"
        )

    # -- introspection / lifecycle -------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``"evaluator"`` section of ``GET /v1/stats``."""
        with self._lock:
            counters = dict(self._counters)
        return {
            "procs": self.procs,
            "pack_rows": self.pack_rows,
            "bucket_retries": self.bucket_retries,
            "quarantine_size": len(self._quarantine),
            "broken": self._broken,
            "counters": counters,
        }

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "EvalFleet":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
