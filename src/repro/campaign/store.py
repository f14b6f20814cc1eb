"""Durable records: one append-only record log for the cache and journals.

Every record the campaign layer persists -- result-cache entries,
``campaign run`` journals and the daemon's job journals -- is one line
of one JSONL format::

    {"key":"<key>","record":{...},"~meta":{"schema":1,"semantics":2,"t":1760900000}}

``record`` is the engine's record, ``~meta`` its version stamp
(:func:`entry_versions`) plus ``t``, the unix second the line was
written (what age-based pruning reads).  A ``(key, record)`` journal
line from before the stamp existed is a valid line too.

**Encode once, write whole buckets.**  :func:`encode_lines` turns one
bucket of records into lines once; the same bytes go to the cache and,
unchanged, to a journal, each with a single ``os.write`` of whole lines.

**Layout under a cache root.**  Each writing process appends to its own
segment, ``root/seg-<pid>-<token>.jsonl``; nobody else writes to it, so
concurrent campaigns and daemons sharing a root never interleave lines.
Entries of the older one-file-per-key layout (``root/ab/abcdef....json``)
stay readable and countable, and ``clear``/``prune`` remove them, but no
new ones are written.

**Index.**  :class:`RecordLog` (one per root per process, from
:meth:`RecordLog.at`) maps key to ``(segment, offset, length)``.  A
lookup that misses refreshes it by reading only the bytes appended to
each segment since the last refresh -- at most once per
:meth:`RecordLog.get_many` -- so a :class:`~repro.campaign.cache.
ResultCache` built per campaign costs no rescan.  Within one segment
the later line of a key wins; across segments any copy will do (records
are content-addressed, so copies are equal).

**Torn tails.**  A writer killed mid-bucket leaves an unterminated last
line.  The scanner counts it (:attr:`RecordLog.n_torn`) and skips it, so
at most that bucket's keys go missing; a writer that finds its own
segment torn starts its next bucket on a fresh line, and
:class:`Journal` cuts a torn tail off before appending.  Undecodable
lines -- invalid JSON, bytes that are not UTF-8, JSON that is not a
``{"key", "record"}`` object -- read as misses (a journal counts them
in :attr:`Journal.n_corrupt`), never as errors.

**Rewrites.**  :meth:`RecordLog.remove` (the prunes) rewrites each
affected segment without the doomed lines into a temp file and renames
it over the segment; :meth:`RecordLog.clear` deletes every segment.
Readers in other processes notice the new inode and rebuild their
index.  Bytes another process appends to a segment while it is being
rewritten are lost; they are cache entries and recompute on the next
miss.
"""

from __future__ import annotations

import json
import os
import threading
import time
from secrets import token_hex
from typing import (
    Any,
    BinaryIO,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

#: Bump when the point->record computation changes incompatibly.  Part
#: of every cache key (:func:`repro.campaign.cache.cache_key`).
CACHE_SCHEMA = 1

#: Version label for entries written before the ``~meta`` stamp existed.
LEGACY_VERSION = "legacy"

SEGMENT_PREFIX = "seg-"
SEGMENT_SUFFIX = ".jsonl"

_encode = json.JSONEncoder(separators=(",", ":"), default=str).encode
_KEY_PREFIX = b'{"key":"'


def entry_versions(record: Mapping[str, Any]) -> Dict[str, int]:
    """The version stamp for a record, derived from its engine label.

    Mirrors the versioning split of :func:`~repro.campaign.cache.
    cache_key`: analytic rows are versioned by the model layer alone,
    Monte-Carlo rows by the simulator semantics, and explicitly packed
    rows additionally by the packed layer.
    """
    from repro.simulation.model import SEMANTICS_VERSION

    engine = record.get("engine")
    if engine == "analytic":
        from repro.core.batch import ANALYTIC_VERSION

        return {"schema": CACHE_SCHEMA, "analytic": ANALYTIC_VERSION}
    meta = {"schema": CACHE_SCHEMA, "semantics": SEMANTICS_VERSION}
    if engine == "packed":
        from repro.simulation.packed_engine import PACKED_VERSION

        meta["packed"] = PACKED_VERSION
    return meta


def entry_labels(meta: Any) -> Tuple[str, ...]:
    """The version labels of one stamp (``("semantics=2",)``...).

    An entry can carry several labels (packed rows are versioned by both
    the semantics and the packed layer); an entry without a stamp yields
    ``("legacy",)``.
    """
    if isinstance(meta, Mapping):
        return tuple(
            f"{name}={meta[name]}"
            for name in ("semantics", "analytic", "packed")
            if name in meta
        ) or (LEGACY_VERSION,)
    return (LEGACY_VERSION,)


def encode_lines(records: Mapping[str, Mapping[str, Any]]) -> bytes:
    """One bucket of ``key -> record`` as record-log lines, encoded once.

    Each record is JSON-encoded once; the stamp is encoded once per
    engine label in the bucket.
    """
    written = int(time.time())
    stamps: Dict[Any, str] = {}
    parts = []
    for key, record in records.items():
        engine = record.get("engine")
        stamp = stamps.get(engine)
        if stamp is None:
            stamp = stamps[engine] = _encode(
                {**entry_versions(record), "t": written}
            )
        parts.append(
            '{"key":%s,"record":%s,"~meta":%s}\n'
            % (_encode(key), _encode(record), stamp)
        )
    return "".join(parts).encode()


def decode_line(raw: bytes) -> Optional[Tuple[str, Dict[str, Any], Any]]:
    """``(key, record, stamp)`` of one line, or ``None`` if unusable.

    Unusable covers invalid JSON, bytes that are not UTF-8, and JSON
    that is not an object with a string ``key`` and an object
    ``record``.  ``stamp`` is ``None`` for a pre-stamp journal line.
    """
    try:
        obj = json.loads(raw)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    if not isinstance(obj, dict):
        return None
    key, record = obj.get("key"), obj.get("record")
    if not isinstance(key, str) or not isinstance(record, dict):
        return None
    return key, record, obj.get("~meta")


def _line_key(raw: bytes) -> Optional[str]:
    """The key of one line, read off its prefix when the line has one.

    Only a line that also ends like a whole record line takes the fast
    path; anything else (a torn fragment among them) is decoded in full.
    """
    if raw.startswith(_KEY_PREFIX) and raw.endswith(b"}}"):
        end = raw.find(b'"', len(_KEY_PREFIX))
        key = raw[len(_KEY_PREFIX):end]
        if end > 0 and b"\\" not in key:
            try:
                return key.decode("ascii")
            except UnicodeDecodeError:
                return None
    decoded = decode_line(raw)
    return decoded[0] if decoded is not None else None


def _legacy_record(data: bytes) -> Tuple[Optional[Dict[str, Any]], Any]:
    """``(record, stamp)`` of a one-file-per-key entry's bytes.

    The record is ``None`` when the file is not a usable entry: invalid
    JSON or UTF-8, or JSON that is not an object.  Entries written
    before the stamp hold the bare record (stamp ``None``).
    """
    try:
        obj = json.loads(data)
    except ValueError:
        return None, None
    stamp = None
    if isinstance(obj, dict) and "~meta" in obj and "record" in obj:
        obj, stamp = obj["record"], obj["~meta"]
    return (obj if isinstance(obj, dict) else None), stamp


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _split(data: bytes) -> Tuple[List[bytes], bytes]:
    """Complete lines (without their newlines) and the unterminated tail."""
    lines = data.split(b"\n")
    tail = lines.pop()
    return lines, tail


class Entry(NamedTuple):
    """One distinct key of a cache root, as the operator tools see it."""

    key: str
    #: Version labels; ``None`` when the entry cannot be decoded.
    labels: Optional[Tuple[str, ...]]
    #: Unix time it was written (a legacy file's mtime).
    written: float
    nbytes: int


class RecordLog:
    """The record lines under one cache root, indexed by key.

    Thread-safe; one instance per root per process (:meth:`at`), so
    every :class:`~repro.campaign.cache.ResultCache` on a root shares
    one index.
    """

    _registry: Dict[str, "RecordLog"] = {}
    _registry_lock = threading.Lock()

    @classmethod
    def at(cls, root: str) -> "RecordLog":
        """This process's log for ``root`` (an absolute path)."""
        with cls._registry_lock:
            log = cls._registry.get(root)
            if log is None:
                log = cls._registry[root] = cls(root)
            return log

    def __init__(self, root: str):
        self.root = root
        self._lock = threading.RLock()
        self._pid = 0
        self._segment = ""
        self._reset()

    def _reset(self) -> None:
        self._index: Dict[str, Tuple[str, int, int]] = {}
        #: segment -> (inode, bytes indexed so far)
        self._seen: Dict[str, Tuple[int, int]] = {}
        #: segment -> offset of its unterminated tail
        self._torn: Dict[str, int] = {}
        self._legacy_shards = False

    @property
    def n_torn(self) -> int:
        """Segments whose last line is unterminated (a torn bucket)."""
        return len(self._torn)

    # -- writing ------------------------------------------------------------
    def _own_segment(self) -> str:
        pid = os.getpid()
        if pid != self._pid:  # first write, or a forked child
            self._pid = pid
            self._segment = (
                f"{SEGMENT_PREFIX}{pid}-{token_hex(4)}{SEGMENT_SUFFIX}"
            )
        return self._segment

    def append(self, lines: bytes) -> None:
        """Append one bucket of :func:`encode_lines` output in one write.

        The lines are indexed in place when this process has read its
        segment up to where they land; otherwise the next refresh reads
        them like any other writer's.
        """
        if not lines:
            return
        with self._lock:
            name = self._own_segment()
            fd = os.open(
                os.path.join(self.root, name),
                os.O_RDWR | os.O_APPEND | os.O_CREAT,
                0o644,
            )
            try:
                st = os.fstat(fd)
                start = st.st_size
                if start and os.pread(fd, 1, start - 1) != b"\n":
                    # An earlier write of ours was torn: end that line
                    # so this bucket starts on a fresh one.
                    lines = b"\n" + lines
                _write_all(fd, lines)
            finally:
                os.close(fd)
            seen = self._seen.get(name)
            if seen == (st.st_ino, start) or (seen is None and start == 0):
                self._index_lines(name, st.st_ino, lines, start)

    # -- scanning -----------------------------------------------------------
    def _index_lines(
        self, name: str, inode: int, data: bytes, base: int
    ) -> None:
        """Index the complete lines of ``data``, read at offset ``base``."""
        lines, tail = _split(data)
        index = self._index
        pos = base
        for raw in lines:
            key = _line_key(raw)
            if key is not None:
                index[key] = (name, pos, len(raw))
            pos += len(raw) + 1
        self._seen[name] = (inode, pos)
        if tail:
            self._torn[name] = pos
        else:
            self._torn.pop(name, None)

    def refresh(self) -> None:
        """Index the bytes appended under the root since the last call.

        A segment that vanished, shrank or was replaced (a prune or
        clear, maybe by another process) drops the whole index, which is
        then rebuilt from every segment.
        """
        with self._lock:
            sizes: Dict[str, Tuple[int, int]] = {}
            legacy = False
            try:
                with os.scandir(self.root) as entries:
                    for entry in entries:
                        name = entry.name
                        if name.startswith(SEGMENT_PREFIX) and name.endswith(
                            SEGMENT_SUFFIX
                        ):
                            try:
                                st = entry.stat()
                            except FileNotFoundError:
                                continue
                            sizes[name] = (st.st_ino, st.st_size)
                        elif len(name) == 2 and entry.is_dir():
                            legacy = True
            except FileNotFoundError:
                pass
            if any(
                name not in sizes
                or sizes[name][0] != inode
                or sizes[name][1] < pos
                for name, (inode, pos) in self._seen.items()
            ):
                self._reset()
            self._legacy_shards = legacy
            for name, (inode, size) in sizes.items():
                pos = self._seen.get(name, (inode, 0))[1]
                if size > pos:
                    self._scan(name, pos)

    def _scan(self, name: str, start: int) -> None:
        try:
            with open(os.path.join(self.root, name), "rb") as fh:
                inode = os.fstat(fh.fileno()).st_ino
                fh.seek(start)
                data = fh.read()
        except FileNotFoundError:
            return
        self._index_lines(name, inode, data, start)

    # -- reading ------------------------------------------------------------
    def legacy_path(self, key: str) -> str:
        """Where the one-file-per-key layout keeps ``key``."""
        return os.path.join(self.root, key[:2], f"{key}.json")

    def get_many(self, keys: Iterable[str]) -> Dict[str, Dict[str, Any]]:
        """Records of the keys present; absent keys are left out.

        Refreshes the index at most once, and only if a key is missing
        from it; then probes the legacy layout for what is still
        missing, when the root has legacy shards at all.
        """
        with self._lock:
            index = self._index
            located: Dict[str, Tuple[str, int, int]] = {}
            missing: List[str] = []
            for key in keys:
                loc = index.get(key)
                if loc is not None:
                    located[key] = loc
                else:
                    missing.append(key)
            if missing:
                self.refresh()
                index = self._index
                still = []
                for key in missing:
                    loc = index.get(key)
                    if loc is not None:
                        located[key] = loc
                    else:
                        still.append(key)
                missing = still
            found = self._read(located)
            legacy = self._legacy_shards
        if legacy:
            for key in missing:
                record = self._read_legacy(key)[0]
                if record is not None:
                    found[key] = record
        return found

    def _read(
        self, located: Mapping[str, Tuple[str, int, int]]
    ) -> Dict[str, Dict[str, Any]]:
        by_segment: Dict[str, List[Tuple[str, int, int]]] = {}
        for key, (name, offset, length) in located.items():
            by_segment.setdefault(name, []).append((key, offset, length))
        found: Dict[str, Dict[str, Any]] = {}
        for name, wanted in by_segment.items():
            try:
                fd = os.open(os.path.join(self.root, name), os.O_RDONLY)
            except FileNotFoundError:
                continue
            try:
                for key, offset, length in wanted:
                    decoded = decode_line(os.pread(fd, length, offset))
                    if decoded is not None and decoded[0] == key:
                        found[key] = decoded[1]
            finally:
                os.close(fd)
        return found

    def _read_legacy(
        self, key: str
    ) -> Tuple[Optional[Dict[str, Any]], Any]:
        try:
            with open(self.legacy_path(key), "rb") as fh:
                return _legacy_record(fh.read())
        except OSError:
            return None, None

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key not in self._index:
                self.refresh()
            if key in self._index:
                return True
        return os.path.exists(self.legacy_path(key))

    # -- inspection and rewriting -------------------------------------------
    def _legacy_files(self) -> Iterator[Tuple[str, str]]:
        """``(key, path)`` of every one-file-per-key entry."""
        for shard in sorted(os.listdir(self.root)):
            shard_dir = os.path.join(self.root, shard)
            if len(shard) != 2 or not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    yield name[: -len(".json")], os.path.join(shard_dir, name)

    def sizes(self) -> Tuple[int, int]:
        """``(distinct keys, bytes on disk)`` over segments and legacy."""
        with self._lock:
            self.refresh()
            keys = set(self._index)
            total = sum(
                self._file_size(name) for name in list(self._seen)
            )
        for key, path in self._legacy_files():
            keys.add(key)
            total += self._file_size(path)
        return len(keys), total

    def _file_size(self, name: str) -> int:
        try:
            return os.path.getsize(os.path.join(self.root, name))
        except FileNotFoundError:
            return 0

    def entries(self) -> Iterator[Entry]:
        """Every distinct key once, with its labels, age and size.

        Reads and decodes the whole root: an operator's tool, not a
        hot-path call.
        """
        with self._lock:
            self.refresh()
            by_segment: Dict[str, List[Tuple[str, int, int]]] = {}
            for key, (name, offset, length) in self._index.items():
                by_segment.setdefault(name, []).append(
                    (key, offset, length)
                )
            indexed = set(self._index)
        for name, wanted in sorted(by_segment.items()):
            try:
                with open(os.path.join(self.root, name), "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                continue
            for key, offset, length in sorted(wanted):
                decoded = decode_line(data[offset:offset + length])
                if decoded is None or decoded[0] != key:
                    yield Entry(key, None, 0.0, length + 1)
                    continue
                stamp = decoded[2]
                written = stamp.get("t", 0) if isinstance(stamp, dict) else 0
                yield Entry(key, entry_labels(stamp), written, length + 1)
        for key, path in self._legacy_files():
            if key in indexed:
                continue
            try:
                with open(path, "rb") as fh:
                    data = fh.read()
                st = os.stat(path)
            except FileNotFoundError:
                continue
            record, stamp = _legacy_record(data)
            labels = entry_labels(stamp) if record is not None else None
            yield Entry(key, labels, st.st_mtime, st.st_size)

    def remove(self, keys: Set[str]) -> None:
        """Delete every copy of ``keys``: segment lines and legacy files.

        Each affected segment is rewritten without those lines (and
        without corrupt lines or a torn tail) through a temp file and
        a rename; a segment left empty is deleted.
        """
        if not keys:
            return
        with self._lock:
            self.refresh()
            for name in list(self._seen):
                self._rewrite(name, keys)
            self._reset()
        for key in keys:
            try:
                os.unlink(self.legacy_path(key))
            except FileNotFoundError:
                pass
        self._drop_empty_shards()

    def _rewrite(self, name: str, keys: Set[str]) -> None:
        path = os.path.join(self.root, name)
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            return
        lines, tail = _split(data)
        kept = [
            raw for raw in lines
            if (key := _line_key(raw)) is not None and key not in keys
        ]
        if len(kept) == len(lines) and not tail:
            return
        if not kept:
            os.unlink(path)
            return
        tmp = f"{path}.{token_hex(4)}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(b"\n".join(kept) + b"\n")
        os.replace(tmp, path)

    def clear(self) -> int:
        """Delete every segment and legacy entry; returns distinct keys."""
        with self._lock:
            n_keys, _ = self.sizes()
            for name in list(self._seen):
                try:
                    os.unlink(os.path.join(self.root, name))
                except FileNotFoundError:
                    pass
            self._reset()
        for _, path in list(self._legacy_files()):
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._drop_empty_shards()
        return n_keys

    def _drop_empty_shards(self) -> None:
        """Remove legacy shard directories left empty (best-effort)."""
        for name in os.listdir(self.root):
            shard_dir = os.path.join(self.root, name)
            if len(name) != 2 or not os.path.isdir(shard_dir):
                continue
            try:
                os.rmdir(shard_dir)
            except OSError:
                continue  # not empty: keep it


class Journal:
    """A campaign's or job's own record file, in the record-log format.

    It holds the lines of exactly that run's keys, so resume reads one
    small file whatever the shared cache holds.  A commit writes the
    same encoded bucket to the cache segment and here.  Lines from
    before the stamp (``{"key": ..., "record": ...}``) load too, and
    older readers load these lines, so journals stay interchangeable.

    Undecodable lines found while loading (a killed writer's torn
    tail, disk-full artifacts, bytes that are not UTF-8) are counted in
    ``n_corrupt`` and skipped: those points simply recompute.  A torn
    tail is cut off so the next append starts on a fresh line and a
    later resume does not report the same crash again; a whole record
    that only lacks its newline is kept and terminated instead.  Shared
    with the jobs service: a job journal and a ``campaign run`` journal
    of the same spec are interchangeable.
    """

    def __init__(self, path: Optional[str]):
        self.path = path
        self._fh: Optional[BinaryIO] = None
        self.existing: Dict[str, Dict[str, Any]] = {}
        self.n_corrupt = 0
        if path is None:
            return
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except FileNotFoundError:
            data = b""
        lines, tail = _split(data)
        for raw in lines:
            self._load(raw)
        cut = tail.strip() and not self._load(tail)
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        self._fh = open(path, "ab", buffering=0)
        if cut:
            os.truncate(path, len(data) - len(tail))
        elif tail:
            _write_all(self._fh.fileno(), b"\n")

    def _load(self, raw: bytes) -> bool:
        if not raw.strip():
            return True
        decoded = decode_line(raw)
        if decoded is None:
            self.n_corrupt += 1
            return False
        self.existing[decoded[0]] = decoded[1]
        return True

    def append(
        self,
        records: Mapping[str, Mapping[str, Any]],
        lines: Optional[bytes] = None,
    ) -> None:
        """Write one bucket with a single ``os.write``.

        ``lines`` are the bucket's :func:`encode_lines` bytes when the
        caller already has them (the commit that also wrote the cache);
        otherwise the records are encoded here.
        """
        if self._fh is None or not records:
            return
        _write_all(
            self._fh.fileno(),
            encode_lines(records) if lines is None else lines,
        )

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None
