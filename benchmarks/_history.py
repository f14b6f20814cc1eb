"""Shared writer for the ``BENCH_*.json`` trajectory files.

Each benchmark emits one *latest* record; this helper additionally keeps
a bounded, timestamped ``history`` list inside the same file so
successive PRs (and :mod:`benchmarks.run_all` sweeps) accumulate a
throughput trajectory instead of overwriting it.  The latest record's
fields stay at the top level, so existing consumers of the files keep
working unchanged.

Every record is stamped with the same ``host`` header
(:func:`host_header`), so trajectories from different machines and
checkouts can be told apart.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from datetime import datetime, timezone
from typing import Any, Dict, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Keep at most this many history entries per bench file.
MAX_HISTORY = 200


def _git_sha() -> Optional[str]:
    """The checkout's ``HEAD`` commit, or ``None`` outside a checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def host_header() -> Dict[str, Any]:
    """Where and from what a record was measured.

    CPUs this process may run on (the affinity mask, as the benches'
    worker counts use), the Python and NumPy versions, the git commit
    (``None`` outside a checkout) and whether the run was a smoke run.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        cpus = os.cpu_count() or 1
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    return {
        "affinity_cpus": cpus,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": _git_sha(),
        "smoke": os.environ.get("REPRO_BENCH_SMOKE") == "1",
    }


def write_bench_record(path: str, record: Dict[str, Any]) -> str:
    """Write ``record`` as the file's latest result and append history.

    The file layout is ``{**latest_record, "history": [...]}``; each
    history entry is the record plus an ISO-8601 UTC ``timestamp``.
    Corrupt or legacy files (no history) are tolerated: their top-level
    record seeds the new history when recognisable.  The record gets the
    :func:`host_header` under ``host``.
    """
    record = {**record, "host": host_header()}
    history = []
    try:
        with open(path) as fh:
            previous = json.load(fh)
        history = list(previous.get("history", []))
        if not history and "bench" in previous:
            # Legacy single-record file: preserve it as the first entry.
            history = [{k: v for k, v in previous.items()
                        if k != "history"}]
    except (OSError, ValueError):
        pass
    entry = {
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        **record,
    }
    history.append(entry)
    history = history[-MAX_HISTORY:]
    payload = {**record, "history": history}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return path
