"""Fair-share job picking across concurrent jobs.

:class:`FairShare` decides **whose** work runs next in the
:class:`~repro.service.jobs.manager.JobManager` pump: clients are
charged for the Monte-Carlo rows dispatched on their behalf, and the
next bucket always comes from the least-charged client with runnable
work (ties break by submission order).  Two clients submitting
campaigns of any relative size therefore make interleaved progress
instead of queueing behind each other.

**What** a bucket is -- the compatibility bucketing, row budgets and
longest-processing-time-first order -- is decided by the planner every
execution path shares, :func:`repro.campaign.planner.plan_buckets`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence


class FairShare:
    """Least-served-client-first accounting across concurrent jobs.

    The manager charges each dispatched bucket's rows to its client and
    asks :meth:`pick` which runnable job goes next: the one whose
    client has consumed the fewest rows so far, ties broken by
    submission sequence.  Charges persist across a client's jobs within
    one daemon lifetime, so a client cannot gain priority by splitting
    one campaign into many submissions.
    """

    def __init__(self) -> None:
        self._served: Dict[str, int] = {}

    def charge(self, client: str, rows: int) -> None:
        """Account ``rows`` of dispatched work to ``client``."""
        self._served[client] = self._served.get(client, 0) + int(rows)

    def served(self, client: str) -> int:
        """Rows charged to ``client`` so far."""
        return self._served.get(client, 0)

    def pick(self, candidates: Sequence) -> Optional[object]:
        """The next job to serve: least-charged client, then FIFO.

        ``candidates`` are objects with ``client`` and ``seq``
        attributes (the manager's runnable jobs); returns ``None`` when
        there is nothing to pick.
        """
        best = None
        best_rank = None
        for job in candidates:
            rank = (self.served(job.client), job.seq)
            if best_rank is None or rank < best_rank:
                best, best_rank = job, rank
        return best

    def stats(self) -> Dict[str, int]:
        """Per-client served-row counters (for ``/v1/stats``)."""
        return dict(self._served)
