"""In-memory LRU result tier above the on-disk :class:`ResultCache`.

The service answers most repeat traffic without touching disk: a
size-bounded LRU maps campaign cache keys to result records, and a
:class:`TieredCache` stacks it on the content-addressed on-disk store so
a disk hit is promoted into memory and a store writes through to both
tiers.  Records use the exact same keys as the campaign layer
(:func:`repro.campaign.cache.cache_key`), so a daemon sharing a
``--cache-dir`` with batch campaigns serves their warm results and vice
versa.

Hit/miss/eviction counters on both tiers feed the daemon's
``GET /v1/stats`` endpoint.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, Mapping, Optional

from repro.campaign.cache import ResultCache

#: Default bound on in-memory entries; at the typical ~1 KB per record
#: this keeps the hot tier in the low tens of MB.
DEFAULT_MEM_ENTRIES = 4096


class LRUCache:
    """A size-bounded in-memory key -> record store with LRU eviction.

    Both :meth:`get` and :meth:`put` refresh recency; once
    ``max_entries`` is exceeded the least-recently-used entry is
    dropped.  Stored records are shared by reference -- the service
    treats records as immutable once computed (they go straight to JSON
    serialisation), so no defensive copies are taken.
    """

    def __init__(self, max_entries: int = DEFAULT_MEM_ENTRIES):
        if max_entries < 1:
            raise ValueError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch a record, counting a hit or miss and refreshing recency."""
        record = self._data.get(key)
        if record is None:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return record

    def put(self, key: str, record: Dict[str, Any]) -> None:
        """Store a record, evicting the LRU entry when over budget."""
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = record
        if len(self._data) > self.max_entries:
            self._data.popitem(last=False)
            self.evictions += 1

    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def clear(self) -> None:
        """Drop every entry (counters are kept: they describe traffic)."""
        self._data.clear()

    def stats(self) -> Dict[str, Any]:
        """Counters and occupancy for the stats endpoint."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._data),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }


class TieredCache:
    """Memory tier over an optional on-disk :class:`ResultCache`.

    Reads go memory -> disk (disk hits are promoted into memory); writes
    go to both tiers.  With ``disk=None`` the memory tier works alone --
    a cache-dir-less daemon still coalesces and memoises.
    """

    def __init__(
        self, memory: LRUCache, disk: Optional[ResultCache] = None
    ):
        self.memory = memory
        self.disk = disk
        self.disk_hits = 0
        self.disk_misses = 0

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """Fetch through the tiers, promoting disk hits into memory."""
        record = self.memory.get(key)
        if record is not None:
            return record
        if self.disk is None:
            return None
        record = self.disk.get(key)
        if record is None:
            self.disk_misses += 1
            return None
        self.disk_hits += 1
        self.memory.put(key, record)
        return record

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Bulk fetch: memory first, then the disk tier for the rest."""
        out: Dict[str, Dict[str, Any]] = {}
        missing = []
        for key in keys:
            record = self.memory.get(key)
            if record is not None:
                out[key] = record
            else:
                missing.append(key)
        if self.disk is not None and missing:
            found = self.disk.get_many(missing)
            self.disk_hits += len(found)
            self.disk_misses += len(missing) - len(found)
            for key, record in found.items():
                self.memory.put(key, record)
            out.update(found)
        return out

    def put_many(self, records: Mapping[str, Dict[str, Any]]) -> None:
        """Write records through to both tiers."""
        for key, record in records.items():
            self.memory.put(key, record)
        if self.disk is not None:
            self.disk.put_many(records)

    def stats(self) -> Dict[str, Any]:
        """Both tiers' counters for the stats endpoint."""
        disk: Optional[Dict[str, Any]] = None
        if self.disk is not None:
            disk = {
                "root": self.disk.root,
                "hits": self.disk_hits,
                "misses": self.disk_misses,
                "versions": self.disk.version_counts(),
            }
        return {"memory": self.memory.stats(), "disk": disk}
