"""The job state machine and its fair-share execution pump.

A **job** is one submitted :class:`~repro.campaign.spec.CampaignSpec`
running server-side: expanded into scenario points through the scenario
registry, carved into makespan-ordered buckets
(:func:`~repro.campaign.planner.plan_buckets`), and pushed
through the daemon's shared :class:`~repro.service.scheduler.
MicroBatchScheduler` -- the same coalescing, caching, micro-batching
pipeline that serves interactive ``/v1/evaluate`` traffic.  Job points
and interactive points ride the same mega-batches and the same tiered
cache, and every record is **bit-identical** to a solo
``repro campaign run`` of the same spec.

States move ``queued -> running -> done | failed | cancelled``.  A job
is ``failed`` when it ran to completion but at least one point's
evaluation raised (the per-point messages are kept and streamed as
``{"error": ...}`` records); ``cancelled`` drops the not-yet-dispatched
buckets while letting in-flight buckets finish into the journal.

Every resolved record is appended to the job's campaign-format JSONL
journal *before* it is visible to result streaming, so a daemon killed
mid-job loses nothing that was ever streamed: on restart the manager
reloads ``spec.json``, preloads the journal, and re-queues only the
missing points (:class:`~repro.service.jobs.store.JobStore`).

The pump dispatches at most ``max_inflight`` buckets at a time, always
from the least-served client (:class:`~repro.service.jobs.fair_share.
FairShare`): two clients' campaigns interleave bucket by bucket rather
than queueing behind each other, while the micro-batcher underneath
still packs whatever mix is in flight into dense mega-batches.
"""

from __future__ import annotations

import asyncio
import secrets
import time
from collections import deque
from contextlib import suppress
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set

from repro.campaign.store import Journal
from repro.campaign.planner import Bucket, bucket_rows, plan_buckets
from repro.campaign.spec import CampaignSpec, ScenarioPoint
from repro.service.jobs.fair_share import FairShare
from repro.service.jobs.store import JobStore
from repro.service.obs import Observability
from repro.service.scheduler import MicroBatchScheduler

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Default cap on concurrently dispatched buckets across all jobs.  Two
#: keeps one bucket in the scheduler's evaluation slot while the next
#: queues behind it, without flooding the queue so far ahead that
#: fair-share loses its grip.
DEFAULT_MAX_INFLIGHT = 2


def new_job_id() -> str:
    """A fresh job id (``j`` + 12 hex chars, the store's dir-name shape)."""
    return "j" + secrets.token_hex(6)


@dataclass
class Job:
    """One submitted campaign and everything known about its progress."""

    job_id: str
    client: str
    spec: CampaignSpec
    seq: int
    created: float
    state: str = "queued"
    points: List[ScenarioPoint] = field(default_factory=list)
    keys: List[str] = field(default_factory=list)
    #: Raw (label-free) records per unique cache key -- the journal's
    #: view of the job.
    resolved: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Per-unique-key evaluation error messages.
    failed: Dict[str, str] = field(default_factory=dict)
    #: Not-yet-dispatched buckets, in makespan (LPT) order.
    buckets: Deque[Bucket] = field(default_factory=deque)
    #: Buckets dispatched and not yet settled.
    inflight: int = 0
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Job-level failure message (spec expansion died, scheduler gone).
    error: Optional[str] = None
    journal: Optional[Journal] = None
    #: Keys already appended to the journal (preloaded + this run).
    journaled: Set[str] = field(default_factory=set)
    #: Unique keys answered straight from the job's own journal.
    n_from_journal: int = 0

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    @property
    def runnable(self) -> bool:
        return self.state in ("queued", "running") and bool(self.buckets)

    def point_done(self, i: int) -> bool:
        """Whether point ``i`` has a streamable record (result or error)."""
        key = self.keys[i]
        return key in self.resolved or key in self.failed

    def progress(self) -> Dict[str, int]:
        """Point-level progress counters (duplicates counted per point)."""
        n_done = 0
        n_failed = 0
        for key in self.keys:
            if key in self.resolved:
                n_done += 1
            elif key in self.failed:
                n_failed += 1
        return {
            "points": len(self.points),
            "done": n_done,
            "failed": n_failed,
            "pending": len(self.points) - n_done - n_failed,
        }


class JobManager:
    """Registry, pump and result assembly for daemon-side jobs.

    Parameters
    ----------
    scheduler:
        The daemon's shared micro-batch scheduler; all job evaluation
        flows through :meth:`~repro.service.scheduler.
        MicroBatchScheduler.resolve`.
    store:
        Optional :class:`JobStore` (or jobs-dir path).  Without one,
        jobs are memory-only: fully functional but lost on restart.
    max_inflight:
        Cap on concurrently dispatched buckets across all jobs.
    pack_rows:
        Row budget used to carve jobs into buckets; defaults to the
        scheduler's own budget so job buckets fill its mega-batches.
    job_ttl_days:
        Age (days since finishing) past which terminal jobs are
        garbage-collected -- removed from memory and, when persisted,
        from the jobs dir.  ``None`` keeps jobs forever (the historical
        behaviour, which let ``--jobs-dir`` accumulate without bound).
        Queued/running jobs are never collected.
    """

    #: How often the background GC sweep runs when a TTL is set.
    GC_INTERVAL_S = 60.0

    def __init__(
        self,
        scheduler: MicroBatchScheduler,
        store: Optional[JobStore] = None,
        *,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        pack_rows: Optional[int] = None,
        job_ttl_days: Optional[float] = None,
        obs: Optional["Observability"] = None,
    ):
        if max_inflight < 1:
            raise ValueError(
                f"max_inflight must be >= 1, got {max_inflight}"
            )
        if job_ttl_days is not None and job_ttl_days < 0:
            raise ValueError(
                f"job_ttl_days must be >= 0, got {job_ttl_days}"
            )
        if isinstance(store, str):
            store = JobStore(store)
        self._scheduler = scheduler
        self._store = store
        #: Observability hub: job lifecycle transitions become
        #: structured log events under ``repro serve --log-json``.
        self._obs = obs
        self.max_inflight = int(max_inflight)
        self.pack_rows = int(
            scheduler.pack_rows if pack_rows is None else pack_rows
        )
        self.job_ttl_days = (
            float(job_ttl_days) if job_ttl_days is not None else None
        )
        self._jobs: Dict[str, Job] = {}
        #: ``(client, idempotency_key) -> job_id`` for safe resubmits.
        self._idempotency: Dict[tuple, str] = {}
        self._fair = FairShare()
        self._seq = 0
        self._inflight_total = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._wake: Optional[asyncio.Event] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._gc_task: Optional[asyncio.Task] = None
        self._bucket_tasks: "set[asyncio.Task]" = set()
        self._counters: Dict[str, int] = {
            "submitted": 0,   # jobs accepted via submit()
            "resumed": 0,     # non-terminal jobs re-queued at startup
            "deduplicated": 0,  # submits answered by an existing job
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "buckets_dispatched": 0,
            "gc_collected": 0,  # terminal jobs removed by the TTL sweep
        }

    @property
    def running(self) -> bool:
        return self._pump_task is not None

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> None:
        """Load persisted jobs, resume the unfinished, start the pump."""
        if self.running:
            return
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        if self._store is not None:
            for loaded in self._store.load_all():
                self._restore(loaded)
        self._pump_task = self._loop.create_task(self._pump())
        if self.job_ttl_days is not None:
            self._gc_task = self._loop.create_task(self._gc_loop())
        self._wake.set()

    async def close(self) -> None:
        """Stop the pump, let in-flight buckets settle, close journals."""
        if self._gc_task is not None:
            self._gc_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._gc_task
            self._gc_task = None
        if self._pump_task is not None:
            self._pump_task.cancel()
            with suppress(asyncio.CancelledError):
                await self._pump_task
            self._pump_task = None
        if self._bucket_tasks:
            await asyncio.gather(
                *list(self._bucket_tasks), return_exceptions=True
            )
        for job in self._jobs.values():
            if job.journal is not None:
                job.journal.close()
                job.journal = None

    def _restore(self, loaded: Dict[str, Any]) -> None:
        """Re-register one persisted job (terminal or resumable)."""
        envelope = loaded["envelope"]
        spec: CampaignSpec = loaded["spec"]
        job = Job(
            job_id=loaded["job_id"],
            client=str(envelope.get("client", "anonymous")),
            spec=spec,
            seq=self._next_seq(),
            created=float(envelope.get("created", 0.0)),
        )
        idem = envelope.get("idempotency_key")
        if idem:
            self._idempotency[(job.client, str(idem))] = job.job_id
        try:
            job.points = spec.points()
            from repro.campaign.cache import cache_key

            job.keys = [cache_key(p) for p in job.points]
        except Exception as exc:  # registry drift, bad params
            job.state = "failed"
            job.error = f"spec no longer expands: {exc}"
            job.finished = time.time()
            self._jobs[job.job_id] = job
            return
        marker = loaded.get("state")
        journal = self._store.open_journal(job.job_id)
        job.resolved = dict(journal.existing)
        job.journaled = set(journal.existing)
        job.n_from_journal = len(journal.existing)
        if marker is not None and marker.get("state") in TERMINAL_STATES:
            # Terminal: keep the journal's records for result streaming
            # but release the append handle.
            journal.close()
            job.state = str(marker["state"])
            job.started = marker.get("started")
            job.finished = marker.get("finished")
            job.error = marker.get("error")
            job.failed = {
                str(k): str(v)
                for k, v in (marker.get("errors") or {}).items()
            }
            self._jobs[job.job_id] = job
            return
        job.journal = journal
        self._plan(job)
        self._jobs[job.job_id] = job
        self._counters["resumed"] += 1
        if not job.buckets:
            # Everything was already journaled when the daemon died
            # between the last append and the terminal marker.
            self._maybe_finish(job)

    # -- submission and queries ---------------------------------------------

    async def submit(
        self,
        spec: CampaignSpec,
        client: str,
        idempotency_key: Optional[str] = None,
    ) -> Job:
        """Register a campaign as a background job and wake the pump.

        Expands the spec eagerly (a generator error fails the
        submission, not the job), persists ``spec.json``, opens the
        journal, and queues the missing points' buckets.

        ``idempotency_key`` makes resubmission safe: a second submit
        carrying the same ``(client, key)`` pair returns the job the
        first one created instead of starting a duplicate -- the
        contract that lets the HTTP client retry ``POST /v1/campaign``
        over a dead keep-alive connection without double-submitting.
        """
        if not self.running:
            raise RuntimeError(
                "job manager is not running; call start() first"
            )
        if idempotency_key:
            existing_id = self._idempotency.get(
                (client, idempotency_key)
            )
            existing = (
                self._jobs.get(existing_id)
                if existing_id is not None
                else None
            )
            if existing is not None:
                self._counters["deduplicated"] += 1
                return existing
        points = spec.points()
        if not points:
            raise ValueError("campaign has no scenario points")
        from repro.campaign.cache import cache_key

        job = Job(
            job_id=new_job_id(),
            client=client,
            spec=spec,
            seq=self._next_seq(),
            created=time.time(),
            points=points,
            keys=[cache_key(p) for p in points],
        )
        if self._store is not None:
            envelope = {
                "spec": spec.to_dict(),
                "client": client,
                "created": job.created,
                "fingerprint": spec.fingerprint(),
            }
            if idempotency_key:
                envelope["idempotency_key"] = idempotency_key
            self._store.save_spec(job.job_id, envelope)
            journal = self._store.open_journal(job.job_id)
            job.journal = journal
            job.resolved = dict(journal.existing)
            job.journaled = set(journal.existing)
            job.n_from_journal = len(journal.existing)
        self._plan(job)
        self._jobs[job.job_id] = job
        if idempotency_key:
            self._idempotency[(client, idempotency_key)] = job.job_id
        self._counters["submitted"] += 1
        if self._obs is not None:
            self._obs.event(
                "job_submitted",
                job_id=job.job_id,
                client=client,
                scenario=spec.scenario,
                n_points=len(job.keys),
            )
        if not job.buckets:
            self._maybe_finish(job)
        self._wake.set()
        return job

    def get(self, job_id: str) -> Optional[Job]:
        return self._jobs.get(job_id)

    def list_jobs(self, client: Optional[str] = None) -> List[Job]:
        """All known jobs in submission order, optionally per client."""
        jobs = sorted(self._jobs.values(), key=lambda j: j.seq)
        if client is not None:
            jobs = [j for j in jobs if j.client == client]
        return jobs

    async def cancel(self, job_id: str) -> Optional[Job]:
        """Cancel a job: drop queued buckets, let in-flight ones land.

        Terminal jobs are returned unchanged (cancel is idempotent);
        unknown ids return ``None``.
        """
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return job
        job.buckets.clear()
        job.state = "cancelled"
        job.finished = time.time()
        self._counters["cancelled"] += 1
        if self._obs is not None:
            self._obs.event(
                "job_cancelled", job_id=job.job_id, client=job.client
            )
        self._persist_terminal(job)
        if job.inflight == 0:
            self._release_journal(job)
        self._wake.set()
        return job

    def job_doc(self, job: Job) -> Dict[str, Any]:
        """The ``GET /v1/jobs/<id>`` JSON document."""
        doc: Dict[str, Any] = {
            "id": job.job_id,
            "name": job.spec.name,
            "scenario": job.spec.scenario,
            "fingerprint": job.spec.fingerprint(),
            "client": job.client,
            "state": job.state,
            "created": job.created,
            "started": job.started,
            "finished": job.finished,
            "progress": job.progress(),
            "buckets_pending": len(job.buckets),
            "buckets_inflight": job.inflight,
            "n_from_journal": job.n_from_journal,
        }
        if job.error is not None:
            doc["error"] = job.error
        return doc

    def results_page(
        self,
        job: Job,
        offset: int = 0,
        limit: Optional[int] = None,
    ) -> Dict[str, Any]:
        """A page of finished records, streaming in **point order**.

        Records are returned from ``offset`` up to the first unfinished
        point (or ``limit``), with point ``labels`` merged exactly as
        campaign assembly does; failed points yield
        ``{**labels, "error": msg}``.  ``next_offset`` is where the
        client polls next, so concatenating pages reconstructs
        ``repro campaign run``'s record list byte for byte.
        """
        n = len(job.points)
        if offset < 0 or offset > n:
            raise ValueError(
                f"offset must be in [0, {n}], got {offset}"
            )
        records: List[Dict[str, Any]] = []
        i = offset
        while i < n and (limit is None or len(records) < limit):
            if not job.point_done(i):
                break
            key, point = job.keys[i], job.points[i]
            if key in job.resolved:
                records.append(
                    {**dict(point.labels), **job.resolved[key]}
                )
            else:
                records.append(
                    {**dict(point.labels), "error": job.failed[key]}
                )
            i += 1
        return {
            "id": job.job_id,
            "state": job.state,
            "offset": offset,
            "next_offset": i,
            "total": n,
            "records": records,
            "exhausted": job.terminal and i >= n,
        }

    # -- garbage collection --------------------------------------------------

    def gc(self, now: Optional[float] = None) -> List[str]:
        """Collect terminal jobs older than the TTL; returns their ids.

        A job is collectable when it is terminal, has no in-flight
        buckets, and finished more than ``job_ttl_days`` ago (jobs
        restored without a ``finished`` timestamp fall back to their
        creation time).  Queued/running jobs are never touched.  No-op
        when no TTL is configured.
        """
        if self.job_ttl_days is None:
            return []
        now = time.time() if now is None else now
        cutoff = now - self.job_ttl_days * 86400.0
        collected: List[str] = []
        for job_id, job in list(self._jobs.items()):
            if not job.terminal or job.inflight > 0:
                continue
            age_ref = job.finished if job.finished else job.created
            if age_ref >= cutoff:
                continue
            self._release_journal(job)
            del self._jobs[job_id]
            idem_keys = [
                k for k, v in self._idempotency.items() if v == job_id
            ]
            for k in idem_keys:
                del self._idempotency[k]
            if self._store is not None:
                self._store.delete_job(job_id)
            collected.append(job_id)
        self._counters["gc_collected"] += len(collected)
        return collected

    async def _gc_loop(self) -> None:
        while True:
            await asyncio.sleep(self.GC_INTERVAL_S)
            self.gc()

    def stats(self) -> Dict[str, Any]:
        """Manager counters for the ``/v1/stats`` payload."""
        by_state: Dict[str, int] = {}
        for job in self._jobs.values():
            by_state[job.state] = by_state.get(job.state, 0) + 1
        return {
            "config": {
                "max_inflight": self.max_inflight,
                "pack_rows": self.pack_rows,
                "job_ttl_days": self.job_ttl_days,
                "jobs_dir": (
                    self._store.root if self._store is not None else None
                ),
            },
            "counters": dict(self._counters),
            "jobs": by_state,
            "fair_share": self._fair.stats(),
        }

    # -- the pump -----------------------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _plan(self, job: Job) -> None:
        """Queue buckets for the job's not-yet-settled unique points."""
        todo: List = []
        seen: Set[str] = set()
        for key, point in zip(job.keys, job.points):
            if key in seen or key in job.resolved or key in job.failed:
                continue
            seen.add(key)
            todo.append((key, point))
        job.buckets = deque(plan_buckets(todo, self.pack_rows))

    async def _pump(self) -> None:
        while True:
            await self._wake.wait()
            self._wake.clear()
            while self._inflight_total < self.max_inflight:
                runnable = [
                    j for j in self._jobs.values() if j.runnable
                ]
                job = self._fair.pick(runnable)
                if job is None:
                    break
                bucket = job.buckets.popleft()
                if job.state == "queued":
                    job.state = "running"
                    job.started = time.time()
                job.inflight += 1
                self._inflight_total += 1
                self._fair.charge(job.client, bucket_rows(bucket))
                self._counters["buckets_dispatched"] += 1
                task = self._loop.create_task(
                    self._run_bucket(job, bucket)
                )
                self._bucket_tasks.add(task)
                task.add_done_callback(self._bucket_tasks.discard)

    async def _run_bucket(self, job: Job, bucket: Bucket) -> None:
        try:
            _, outcomes = await self._scheduler.resolve(
                [p for _, p in bucket]
            )
            done: Dict[str, Dict[str, Any]] = {}
            for key, outcome in outcomes.items():
                if isinstance(outcome, BaseException):
                    job.failed[key] = str(outcome)
                else:
                    done[key] = outcome
            # Journal the bucket (one append) BEFORE exposing it through
            # `resolved`: a record visible to result streaming is always
            # on disk, so a crash never un-streams anything.
            if job.journal is not None:
                job.journal.append(
                    {k: r for k, r in done.items() if k not in job.journaled}
                )
                job.journaled.update(done)
            job.resolved.update(done)
        except Exception as exc:  # scheduler torn down mid-dispatch
            if not job.terminal:
                job.buckets.clear()
                job.state = "failed"
                job.error = f"bucket dispatch failed: {exc}"
                job.finished = time.time()
                self._counters["failed"] += 1
                self._persist_terminal(job)
        finally:
            job.inflight -= 1
            self._inflight_total -= 1
            self._maybe_finish(job)
            if job.terminal and job.inflight == 0:
                self._release_journal(job)
            self._wake.set()

    def _maybe_finish(self, job: Job) -> None:
        """Move a drained job to its terminal state and persist it."""
        if job.terminal or job.inflight > 0 or job.buckets:
            return
        settled = all(
            k in job.resolved or k in job.failed for k in job.keys
        )
        if not settled:
            return
        if job.state == "queued":
            # Fully answered by journal/cache before any dispatch.
            job.started = job.started or time.time()
        job.finished = time.time()
        if job.failed:
            job.state = "failed"
            job.error = (
                f"{len(job.failed)} point(s) failed evaluation"
            )
            self._counters["failed"] += 1
        else:
            job.state = "done"
            self._counters["done"] += 1
        if self._obs is not None:
            self._obs.event(
                "job_finished",
                job_id=job.job_id,
                client=job.client,
                state=job.state,
                n_points=len(job.keys),
                n_failed=len(job.failed),
                duration_s=(
                    round(job.finished - job.started, 3)
                    if job.started
                    else None
                ),
            )
        self._persist_terminal(job)
        self._release_journal(job)

    def _persist_terminal(self, job: Job) -> None:
        if self._store is None:
            return
        self._store.save_state(
            job.job_id,
            {
                "state": job.state,
                "started": job.started,
                "finished": job.finished,
                "error": job.error,
                "errors": dict(job.failed),
                "progress": job.progress(),
            },
        )

    @staticmethod
    def _release_journal(job: Job) -> None:
        if job.journal is not None:
            job.journal.close()
            job.journal = None
