"""Content-addressed on-disk cache for scenario-point results.

A point's cache key is the SHA-256 of its canonical JSON description --
pattern family, full platform parameter vector, Monte-Carlo configuration,
seed and engine version -- so any :func:`run_monte_carlo` result is
computed at most once *across* campaigns: overlapping sweeps, re-runs and
refinements all hit the same entries.  Free-form row ``labels`` are
deliberately excluded from the key: two campaigns that label the same
physical configuration differently still share one cache entry.

Entries are JSON files sharded by key prefix (``root/ab/abcdef...json``),
written atomically (temp file + ``os.replace``) so a killed campaign never
leaves a corrupt entry behind.

On disk each entry wraps the record with a version stamp::

    {"~meta": {"schema": 1, "semantics": 2, ...}, "record": {...}}

The stamp (:func:`entry_versions`) names the engine generation that
computed the record -- ``semantics`` for Monte-Carlo rows, ``analytic``
for model-layer rows, plus ``packed`` for explicitly packed rows -- so
operators can see what a long-lived cache holds
(:meth:`ResultCache.version_counts`, surfaced by ``repro campaign
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
from secrets import token_hex
from typing import Any, Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro._version import __version__
from repro.campaign.spec import ScenarioPoint
from repro.simulation.model import SEMANTICS_VERSION

#: Bump when the point->record computation changes incompatibly.
CACHE_SCHEMA = 1


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


#: Version label for entries written before the ``~meta`` stamp existed.
LEGACY_VERSION = "legacy"


def entry_versions(record: Mapping[str, Any]) -> Dict[str, int]:
    """The version stamp for a record, derived from its engine label.

    Mirrors the versioning split of :func:`cache_key`: analytic rows
    are versioned by the model layer alone, Monte-Carlo rows by the
    simulator semantics, and explicitly packed rows additionally by the
    packed layer.
    """
    engine = record.get("engine")
    if engine == "analytic":
        from repro.core.batch import ANALYTIC_VERSION

        return {"schema": CACHE_SCHEMA, "analytic": ANALYTIC_VERSION}
    meta = {"schema": CACHE_SCHEMA, "semantics": SEMANTICS_VERSION}
    if engine == "packed":
        from repro.simulation.packed_engine import PACKED_VERSION

        meta["packed"] = PACKED_VERSION
    return meta


def _entry_labels(data: Any) -> Tuple[str, ...]:
    """The version labels of one on-disk entry (``("semantics=2",)``...).

    An entry can carry several labels (packed rows are versioned by both
    the semantics and the packed layer); unwrapped pre-stamp entries
    yield ``("legacy",)``.
    """
    if isinstance(data, Mapping) and "~meta" in data and "record" in data:
        meta = data["~meta"]
        if isinstance(meta, Mapping):
            return tuple(
                f"{name}={meta[name]}"
                for name in ("semantics", "analytic", "packed")
                if name in meta
            ) or (LEGACY_VERSION,)
    return (LEGACY_VERSION,)


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
    """Content-addressed result store under one root directory."""

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self._hits = 0
        self._misses = 0

    # -- key/path plumbing --------------------------------------------------
    def key(self, point: ScenarioPoint) -> str:
        """The content hash for a point (see :func:`cache_key`)."""
        return cache_key(point)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    @staticmethod
    def _unwrap(data: Any) -> Dict[str, Any]:
        """The record inside an entry (stamped or legacy passthrough)."""
        if (
            isinstance(data, dict)
            and "~meta" in data
            and "record" in data
        ):
            return data["record"]
        return data

    # -- store operations ---------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a cached record, counting a hit or miss."""
        path = self._path(key)
        try:
            with open(path) as fh:
                record = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            self._misses += 1
            return None
        self._hits += 1
        return self._unwrap(record)

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store a record atomically under its key.

        The temp name carries the pid plus a random token, so concurrent
        writers of one key never collide -- including same-pid writers
        on different hosts sharing one cache volume -- and
        ``os.replace`` keeps the final rename atomic, without paying
        ``mkstemp``'s open/close round trip on every store.
        """
        path = self._path(key)
        entry = {"~meta": entry_versions(record), "record": record}
        tmp = f"{path}.{os.getpid()}.{token_hex(8)}.tmp"
        try:
            try:
                fh = open(tmp, "w")
            except FileNotFoundError:
                # First entry of its shard (or the shard was cleaned up
                # under us): create the directory and retry once.
                os.makedirs(os.path.dirname(path), exist_ok=True)
                fh = open(tmp, "w")
            with fh:
                fh.write(json.dumps(entry, separators=(",", ":"),
                                    default=str))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk fetch: present keys and their records, hits/misses counted.

        One :meth:`get` probe per key, so the cost follows the number of
        keys, not the size of the cache (a shard listing grows with it).
        Absent keys are simply missing from the result.
        """
        out: Dict[str, Dict[str, Any]] = {}
        for key in keys:
            record = self.get(key)
            if record is not None:
                out[key] = record
        return out

    def put_many(self, records: Mapping[str, Dict[str, Any]]) -> None:
        """Store many records; each write stays individually atomic.

        Each entry keeps the temp-file + ``os.replace`` crash safety of
        :meth:`put` -- a killed bulk write leaves complete entries and
        temp litter, never a corrupt record.
        """
        for key, record in records.items():
            self.put(key, record)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def _entries(self) -> Iterator[Tuple[str, int]]:
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    path = os.path.join(shard_dir, name)
                    yield name[: -len(".json")], os.path.getsize(path)

    def stats(self) -> CacheStats:
        """Scan the store and report entry count, size and hit counters."""
        entries = 0
        total = 0
        for _, size in self._entries():
            entries += 1
            total += size
        return CacheStats(
            entries=entries,
            total_bytes=total,
            hits=self._hits,
            misses=self._misses,
            root=self.root,
        )

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for key, _ in list(self._entries()):
            os.unlink(self._path(key))
            removed += 1
        return removed

    def version_counts(self) -> Dict[str, int]:
        """Entry counts per version label (``{"semantics=2": 41, ...}``).

        Labels come from each entry's ``~meta`` stamp; a packed row
        counts under both its ``semantics`` and ``packed`` labels, and
        pre-stamp entries count as ``legacy``.  Scans (and reads) the
        whole store, like :meth:`stats` -- an operator's inspection
        tool, not a hot-path call.
        """
        counts: Dict[str, int] = {}
        for key, _ in self._entries():
            try:
                with open(self._path(key)) as fh:
                    data = json.load(fh)
            except (FileNotFoundError, json.JSONDecodeError):
                continue
            for label in _entry_labels(data):
                counts[label] = counts.get(label, 0) + 1
        return dict(sorted(counts.items()))

    def prune_version(
        self, version: str, *, dry_run: bool = False
    ) -> "PruneReport":
        """Evict entries carrying one version label (``"semantics=1"``).

        The surgical companion to :meth:`prune_older_than`: after an
        engine-generation bump, exactly the superseded entries go
        (``legacy`` evicts the pre-stamp ones).  Content-addressed
        entries are always recomputable, so this is always safe.
        ``dry_run`` reports without touching anything.
        """
        version = version.strip()
        if not version:
            raise ValueError("version label must be non-empty")
        n_examined = 0
        n_pruned = 0
        bytes_pruned = 0
        for key, size in list(self._entries()):
            path = self._path(key)
            try:
                with open(path) as fh:
                    data = json.load(fh)
            except FileNotFoundError:
                continue
            except json.JSONDecodeError:
                data = None  # unreadable: label it legacy
            n_examined += 1
            if version not in _entry_labels(data):
                continue
            if not dry_run:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    continue
            n_pruned += 1
            bytes_pruned += size
        if not dry_run and n_pruned:
            self._cleanup_empty_shards()
        return PruneReport(
            n_examined=n_examined,
            n_pruned=n_pruned,
            bytes_pruned=bytes_pruned,
            dry_run=dry_run,
        )

    def _cleanup_empty_shards(self) -> None:
        """Drop shard directories a prune emptied (best-effort)."""
        for name in os.listdir(self.root):
            shard_dir = os.path.join(self.root, name)
            if not os.path.isdir(shard_dir):
                continue
            try:
                os.rmdir(shard_dir)
            except OSError:
                continue  # not empty: keep it

    def prune_older_than(
        self, days: float, *, dry_run: bool = False
    ) -> "PruneReport":
        """Evict entries whose file mtime is older than ``days`` days.

        Long-lived hosts (the ``repro serve`` daemon, shared campaign
        volumes) use this to bound disk usage: entries are content-
        addressed and recomputable, so age-based eviction is always
        safe.  ``dry_run`` reports what *would* be removed without
        touching anything.  Shard directories emptied by a real prune
        are removed too (best-effort).  Entries that vanish mid-scan
        (a concurrent prune or clear) are skipped, not fatal.
        """
        if days < 0:
            raise ValueError(f"days must be >= 0, got {days}")
        cutoff = time.time() - days * 86400.0
        n_examined = 0
        n_pruned = 0
        bytes_pruned = 0
        for key, size in list(self._entries()):
            path = self._path(key)
            try:
                mtime = os.path.getmtime(path)
            except FileNotFoundError:
                continue
            n_examined += 1
            if mtime >= cutoff:
                continue
            if not dry_run:
                try:
                    os.unlink(path)
                except FileNotFoundError:
                    continue
            n_pruned += 1
            bytes_pruned += size
        if not dry_run and n_pruned:
            self._cleanup_empty_shards()
        return PruneReport(
            n_examined=n_examined,
            n_pruned=n_pruned,
            bytes_pruned=bytes_pruned,
            dry_run=dry_run,
        )


@dataclass(frozen=True)
class PruneReport:
    """What :meth:`ResultCache.prune_older_than` examined and removed."""

    n_examined: int
    n_pruned: int
    bytes_pruned: int
    dry_run: bool
