"""Campaign-as-a-service: journaled background jobs on the daemon.

``POST /v1/campaign`` turns a full
:class:`~repro.campaign.spec.CampaignSpec` into a server-side **job**:
the spec is expanded through the scenario registry, journaled to a
JSONL file in the exact ``campaign run`` format, and executed in the
background through the same coalescing
:class:`~repro.service.scheduler.MicroBatchScheduler` that serves
interactive ``/v1/evaluate`` traffic -- one batching pipeline, one
tiered cache, and records **bit-identical** to a solo
``repro campaign run`` of the same spec.

* :mod:`repro.service.jobs.manager` -- the :class:`JobManager` state
  machine (queued -> running -> done/failed/cancelled), the fair-share
  pump, progress counters and offset-based result streaming.
* :mod:`repro.service.jobs.store` -- the on-disk layout
  (``<jobs-dir>/<job-id>/{spec.json,journal.jsonl,state.json}``) that
  lets jobs survive a daemon restart and resume from their journals.
* :mod:`repro.service.jobs.fair_share` -- least-served-client job
  picking; jobs are carved into buckets by the planner every execution
  path shares (:func:`repro.campaign.planner.plan_buckets`).
* :mod:`repro.service.jobs.api` -- the HTTP route handlers
  (``/v1/campaign``, ``/v1/jobs``...), kept out of the server core.
"""

from repro.service.jobs.fair_share import FairShare
from repro.service.jobs.manager import Job, JobManager
from repro.service.jobs.store import JobStore

__all__ = [
    "FairShare",
    "Job",
    "JobManager",
    "JobStore",
]
