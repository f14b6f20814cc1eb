"""Content-addressed on-disk cache for scenario-point results.

A point's cache key is the SHA-256 of its canonical JSON description --
pattern family, full platform parameter vector, Monte-Carlo configuration,
seed and engine version -- so any :func:`run_monte_carlo` result is
computed at most once *across* campaigns: overlapping sweeps, re-runs and
refinements all hit the same entries.  Free-form row ``labels`` are
deliberately excluded from the key: two campaigns that label the same
physical configuration differently still share one cache entry.

Records live in the root's append-only record log
(:mod:`repro.campaign.store`): each writing process appends whole
buckets of ``{"key", "record", "~meta"}`` lines to its own segment
(``root/seg-<pid>-<token>.jsonl``), and a per-process index maps each
key to its line.  Entries of the older one-file-per-key layout
(``root/ab/abcdef...json``) still read, count and prune; none are
written any more.

Each line wraps the record with a version stamp (:func:`entry_versions`)
naming the engine generation that computed it -- ``semantics`` for
Monte-Carlo rows, ``analytic`` for model-layer rows, plus ``packed`` for
explicitly packed rows -- so operators can see what a long-lived cache
holds (:meth:`ResultCache.version_counts`, surfaced by ``repro campaign
cache`` and ``/v1/stats``) and evict one generation precisely
(:meth:`ResultCache.prune_version`, the ``--prune-version`` flag).
Records themselves stay byte-identical to what the engines produced;
readers unwrap transparently, and entries written before the stamp
existed read fine and count as ``legacy``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Mapping, Optional

from repro._version import __version__
from repro.campaign.spec import ScenarioPoint
from repro.campaign.store import (  # noqa: F401  (re-exported)
    CACHE_SCHEMA,
    LEGACY_VERSION,
    Entry,
    RecordLog,
    encode_lines,
    entry_versions,
)
from repro.simulation.model import SEMANTICS_VERSION


def cache_key(point: ScenarioPoint) -> str:
    """Stable content hash identifying a point's result.

    :func:`_point_digest` runs once per point object; the key is kept on
    the point outside its dataclass fields, so ``==`` and ``to_dict``
    ignore it.
    """
    key = vars(point).get("_cache_key")
    if key is None:
        key = _point_digest(point)
        object.__setattr__(point, "_cache_key", key)
    return key


def _point_digest(point: ScenarioPoint) -> str:
    """SHA-256 of a point's canonical JSON description.

    Only fields that influence the computed numbers participate:
    ``labels`` are presentation metadata and are excluded, and
    ``optimize`` points ignore the Monte-Carlo configuration entirely
    (including the engine request, which only affects simulation).
    Analytic points (``engine="analytic"``) are deterministic model
    evaluations, so they also shed the Monte-Carlo fields and carry
    :data:`~repro.core.batch.ANALYTIC_VERSION` instead -- two campaigns
    requesting the same analytic cell at different Monte-Carlo sizes
    share one entry.  The payload also carries the engine
    :data:`SEMANTICS_VERSION`, so rows computed under a different engine
    generation (e.g. pre-vectorisation step-engine rows) are never
    silently mixed with current ones.
    """
    desc = point.to_dict()
    desc.pop("labels", None)
    if point.mode == "optimize":
        for field in ("n_patterns", "n_runs", "seed",
                      "fail_stop_in_operations", "engine"):
            desc.pop(field, None)
    payload = {
        "schema": CACHE_SCHEMA,
        "engine": __version__,
        "semantics": SEMANTICS_VERSION,
        "point": desc,
    }
    if point.mode != "optimize" and point.engine == "analytic":
        from repro.core.batch import ANALYTIC_VERSION

        for field in ("n_patterns", "n_runs", "seed",
                      "fail_stop_in_operations"):
            desc.pop(field, None)
        # Analytic rows never touch the Monte-Carlo engines, so they are
        # versioned by the model layer alone: a simulator semantics bump
        # must not invalidate them.
        payload.pop("semantics")
        payload["analytic"] = ANALYTIC_VERSION
    if point.mode != "optimize" and point.engine == "packed":
        from repro.simulation.packed_engine import PACKED_VERSION

        # Packed execution is draw-identical to the fast tier, so
        # ``auto``/``fast`` points keep their fast-tier entries whatever
        # strategy ran them.  Explicitly packed points additionally carry
        # the packed-layer version: their keys are new anyway, and a
        # packed-layer fix can then invalidate exactly those rows.
        payload["packed"] = PACKED_VERSION
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheStats:
    """A snapshot of cache state and this process's hit/miss counters."""

    entries: int
    total_bytes: int
    hits: int
    misses: int
    root: str

    @property
    def hit_rate(self) -> float:
        """Hits / lookups for this process (NaN-free: 0.0 when unused)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0


class ResultCache:
    """Content-addressed result store under one root directory.

    A thin view over the root's :class:`~repro.campaign.store.RecordLog`
    that adds this instance's hit/miss counters; every instance on a
    root shares the process's one index.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._log = RecordLog.at(self.root)
        self._hits = 0
        self._misses = 0

    # -- key/path plumbing --------------------------------------------------
    def key(self, point: ScenarioPoint) -> str:
        """The content hash for a point (see :func:`cache_key`)."""
        return cache_key(point)

    def _path(self, key: str) -> str:
        """Where the one-file-per-key layout keeps ``key`` (read only)."""
        return self._log.legacy_path(key)

    # -- store operations ---------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a cached record, counting a hit or miss."""
        return self.get_many((key,)).get(key)

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store one record (a bucket of one, see :meth:`put_many`)."""
        self.put_many({key: record})

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk fetch: present keys and their records, hits/misses counted.

        The index answers without touching the disk for keys it does
        not hold, after at most one refresh of what was appended since
        the last one.  Absent keys are simply missing from the result;
        undecodable entries count as misses.
        """
        keys = list(keys)
        found = self._log.get_many(keys)
        out = {key: found[key] for key in keys if key in found}
        hits = sum(1 for key in keys if key in out)
        self._hits += hits
        self._misses += len(keys) - hits
        return out

    def put_many(self, records: Mapping[str, Dict[str, Any]]) -> bytes:
        """Store a bucket of records with one append; returns its lines.

        The records are encoded once (:func:`~repro.campaign.store.
        encode_lines`); a caller that journals the same bucket writes
        the returned bytes instead of encoding again.  A killed write
        loses at most this bucket (the torn tail is skipped on read).
        """
        lines = encode_lines(records)
        self._log.append(lines)
        return lines

    def __contains__(self, key: str) -> bool:
        return key in self._log

    def stats(self) -> CacheStats:
        """Scan the store: distinct keys, bytes on disk, hit counters."""
        entries, total = self._log.sizes()
        return CacheStats(
            entries=entries,
            total_bytes=total,
            hits=self._hits,
            misses=self._misses,
            root=self.root,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many distinct keys went."""
        return self._log.clear()

    def version_counts(self) -> Dict[str, int]:
        """Entry counts per version label (``{"semantics=2": 41, ...}``).

        Labels come from each entry's ``~meta`` stamp; a packed row
        counts under both its ``semantics`` and ``packed`` labels, and
        pre-stamp entries count as ``legacy``; undecodable ones are
        skipped.  Reads the whole store, like :meth:`stats` -- an
        operator's inspection tool, not a hot-path call.
        """
        counts: Dict[str, int] = {}
        for entry in self._log.entries():
            for label in entry.labels or ():
                counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items()))

    def _prune(
        self, doomed: Callable[[Entry], bool], dry_run: bool
    ) -> "PruneReport":
        n_examined = 0
        pruned: Dict[str, int] = {}
        for entry in self._log.entries():
            n_examined += 1
            if doomed(entry):
                pruned[entry.key] = entry.nbytes
        if not dry_run:
            self._log.remove(set(pruned))
        return PruneReport(
            n_examined=n_examined,
            n_pruned=len(pruned),
            bytes_pruned=sum(pruned.values()),
            dry_run=dry_run,
        )

    def prune_version(
        self, version: str, *, dry_run: bool = False
    ) -> "PruneReport":
        """Evict entries carrying one version label (``"semantics=1"``).

        The surgical companion to :meth:`prune_older_than`: after an
        engine-generation bump, exactly the superseded entries go
        (``legacy`` evicts the pre-stamp ones, and undecodable ones).
        Content-addressed entries are always recomputable, so this is
        always safe.  ``dry_run`` reports without touching anything.
        """
        version = version.strip()
        if not version:
            raise ValueError("version label must be non-empty")
        return self._prune(
            lambda e: version in (e.labels or (LEGACY_VERSION,)), dry_run
        )

    def prune_older_than(
        self, days: float, *, dry_run: bool = False
    ) -> "PruneReport":
        """Evict entries written more than ``days`` days ago.

        Long-lived hosts (the ``repro serve`` daemon, shared campaign
        volumes) use this to bound disk usage: entries are content-
        addressed and recomputable, so age-based eviction is always
        safe.  A record line's age is its stamp's write time, a legacy
        entry's its file mtime.  ``dry_run`` reports what *would* be
        removed without touching anything.  Segments are rewritten
        without the evicted lines (see :mod:`repro.campaign.store`).
        """
        if days < 0:
            raise ValueError(f"days must be >= 0, got {days}")
        cutoff = time.time() - days * 86400.0
        return self._prune(lambda e: e.written < cutoff, dry_run)


@dataclass(frozen=True)
class PruneReport:
    """What :meth:`ResultCache.prune_older_than` examined and removed."""

    n_examined: int
    n_pruned: int
    bytes_pruned: int
    dry_run: bool
