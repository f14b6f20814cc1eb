"""On-disk persistence for daemon-side campaign jobs.

Each job owns one directory under the jobs root::

    <jobs-dir>/<job-id>/
        spec.json       submission envelope (spec + client + timestamps)
        journal.jsonl   campaign-run-format result journal
        state.json      terminal marker (present only once the job ends)

``journal.jsonl`` is a :class:`repro.campaign.store.Journal` -- the
record-log line format ``campaign run --journal`` and the result cache
write, one append per bucket -- so a job journal is interchangeable with
a batch journal and a restarted daemon resumes a job the same way a
resumed campaign run does: re-expand ``spec.json`` through the scenario
registry, preload the journal (a torn tail is counted, skipped and cut
off), recompute only the missing points.  ``state.json`` exists only for terminal jobs
(done/failed/cancelled); its absence is what marks a job as resumable.

``spec.json`` and ``state.json`` are written through temp-file +
:func:`os.replace`, so a crash mid-write never leaves a half-readable
marker.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from typing import Any, Dict, List, Optional, Tuple

from repro.campaign.store import Journal
from repro.campaign.spec import CampaignSpec

_JOB_ID_RE = re.compile(r"^j[0-9a-f]{12}$")

SPEC_FILE = "spec.json"
JOURNAL_FILE = "journal.jsonl"
STATE_FILE = "state.json"


def _write_json_atomic(path: str, data: Dict[str, Any]) -> None:
    """Write JSON via temp + rename so readers never see a torn file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    os.replace(tmp, path)


class JobStore:
    """The jobs directory: one subdirectory per job, journal included.

    The store knows nothing about scheduling -- it persists and loads
    the three per-job files and hands the manager a
    :class:`~repro.campaign.store.Journal` opened on the job's
    journal path (which also preloads existing records for resume).
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)

    def job_dir(self, job_id: str) -> str:
        """The job's directory (created on demand)."""
        path = os.path.join(self.root, job_id)
        os.makedirs(path, exist_ok=True)
        return path

    def journal_path(self, job_id: str) -> str:
        return os.path.join(self.job_dir(job_id), JOURNAL_FILE)

    def open_journal(self, job_id: str) -> Journal:
        """Open (and preload) the job's campaign-format journal."""
        return Journal(self.journal_path(job_id))

    def save_spec(self, job_id: str, envelope: Dict[str, Any]) -> None:
        """Persist the submission envelope (spec dict + metadata)."""
        _write_json_atomic(
            os.path.join(self.job_dir(job_id), SPEC_FILE), envelope
        )

    def save_state(self, job_id: str, state: Dict[str, Any]) -> None:
        """Persist the terminal marker; only terminal jobs have one."""
        _write_json_atomic(
            os.path.join(self.job_dir(job_id), STATE_FILE), state
        )

    def load(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Load one job's persisted envelope (plus any terminal state).

        Returns ``None`` when the directory is not a readable job (no
        or corrupt ``spec.json``, spec that no longer parses) -- the
        manager skips those rather than refusing to start.
        """
        job_dir = os.path.join(self.root, job_id)
        spec_path = os.path.join(job_dir, SPEC_FILE)
        try:
            with open(spec_path) as fh:
                envelope = json.load(fh)
            spec = CampaignSpec.from_dict(envelope["spec"])
        except (OSError, ValueError, KeyError, TypeError):
            return None
        loaded: Dict[str, Any] = {
            "job_id": job_id,
            "spec": spec,
            "envelope": envelope,
            "state": None,
        }
        state_path = os.path.join(job_dir, STATE_FILE)
        if os.path.exists(state_path):
            try:
                with open(state_path) as fh:
                    loaded["state"] = json.load(fh)
            except (OSError, ValueError):
                # A torn terminal marker: treat the job as non-terminal
                # and let it resume; finishing rewrites the marker.
                loaded["state"] = None
        return loaded

    def load_all(self) -> List[Dict[str, Any]]:
        """Load every persisted job, sorted by submission time then id.

        Submission order matters on restart: job sequence numbers are
        reassigned in this order, so fair-share FIFO tie-breaking
        survives the daemon bounce.
        """
        jobs = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        for name in names:
            if not _JOB_ID_RE.match(name):
                continue
            loaded = self.load(name)
            if loaded is not None:
                jobs.append(loaded)
        jobs.sort(
            key=lambda j: (j["envelope"].get("created", 0.0), j["job_id"])
        )
        return jobs

    def delete_job(self, job_id: str) -> bool:
        """Remove one job's directory; ``True`` if something was removed.

        Only ids matching the job-dir shape are ever deleted -- a
        corrupted id can not escape the jobs root.
        """
        if not _JOB_ID_RE.match(job_id):
            return False
        path = os.path.join(self.root, job_id)
        if not os.path.isdir(path):
            return False
        shutil.rmtree(path, ignore_errors=True)
        return not os.path.isdir(path)

    def prune(
        self,
        ttl_days: float,
        *,
        now: Optional[float] = None,
        dry_run: bool = False,
    ) -> List[Tuple[str, str]]:
        """Offline TTL cleanup: delete old **terminal** job dirs.

        The ``repro jobs --prune`` path, safe to run against a live
        daemon's jobs dir: only directories carrying a ``state.json``
        terminal marker are candidates (queued/running jobs have none),
        aged by the marker's ``finished`` timestamp with the file's
        mtime as fallback.  Unreadable-spec directories are left alone
        -- deleting what we cannot read is how backups die.  Returns
        ``(job_id, state)`` pairs (the would-be list under
        ``dry_run``).
        """
        if ttl_days < 0:
            raise ValueError(f"ttl_days must be >= 0, got {ttl_days}")
        import time

        cutoff = (time.time() if now is None else now) - ttl_days * 86400.0
        pruned: List[Tuple[str, str]] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return []
        for name in names:
            if not _JOB_ID_RE.match(name):
                continue
            state_path = os.path.join(self.root, name, STATE_FILE)
            try:
                with open(state_path) as fh:
                    state = json.load(fh)
            except (OSError, ValueError):
                continue  # no/torn terminal marker: not collectable
            finished = state.get("finished")
            if not isinstance(finished, (int, float)) or not finished:
                try:
                    finished = os.path.getmtime(state_path)
                except OSError:
                    continue
            if finished >= cutoff:
                continue
            pruned.append((name, str(state.get("state", "?"))))
            if not dry_run:
                self.delete_job(name)
        return pruned
