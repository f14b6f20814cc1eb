"""The record log (``repro.campaign.store``): one format, one write per
bucket, torn tails, corrupt bytes, a shared index, and several
processes on one cache root."""

import asyncio
import glob
import json
import os
import subprocess
import sys

import pytest

import repro.campaign.executor as executor
import repro.campaign.store as store_mod
from repro.campaign.cache import ResultCache, cache_key
from repro.campaign.executor import run_campaign
from repro.campaign.spec import CampaignSpec, platform_to_dict
from repro.campaign.store import (
    Journal,
    RecordLog,
    decode_line,
    encode_lines,
)
from repro.io import scan_jsonl

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

GARBAGE = b"\xff\xfe\x80"


def _keys(n, prefix="ab"):
    return [f"{prefix}{i:062x}" for i in range(n)]


def _segment_lines(root):
    """Every complete line of every segment under ``root``."""
    lines = []
    for path in sorted(glob.glob(os.path.join(root, "seg-*.jsonl"))):
        with open(path, "rb") as fh:
            lines += fh.read().split(b"\n")[:-1]
    return lines


def _journaled(path):
    """The records a journal file holds, as a resume would load them."""
    journal = Journal(path)
    journal.close()
    return journal.existing


def _in_child(body):
    """Run ``body`` in a forked child; returns its exit status."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 0
        try:
            body()
        except BaseException:
            code = 1
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    return os.waitstatus_to_exitcode(status)


def _torn(data):
    """A bucket's bytes cut inside its last line."""
    return data[:-10]


def _die_mid_write(fd, data):
    """A writer killed while writing a bucket's last line."""
    os.write(fd, _torn(data))
    os._exit(0)


class TestLineFormat:
    def test_one_line_per_record_round_trips(self):
        records = {"k1": {"engine": "fast", "v": 0.1}, "k2": {"v": [1, 2]}}
        lines = encode_lines(records).split(b"\n")
        assert lines[-1] == b""
        decoded = [decode_line(raw) for raw in lines[:-1]]
        assert [(k, r) for k, r, _ in decoded] == list(records.items())
        stamp = decoded[0][2]
        assert stamp["schema"] == 1 and "semantics" in stamp
        assert isinstance(stamp["t"], int)

    def test_pre_stamp_journal_lines_decode(self):
        raw = json.dumps({"key": "k", "record": {"v": 1}}).encode()
        assert decode_line(raw) == ("k", {"v": 1}, None)

    @pytest.mark.parametrize(
        "raw", [GARBAGE, b"{not json", b"[]", b'{"key": 1, "record": {}}',
                b'{"key": "k", "record": []}', b'{"key": "k"}']
    )
    def test_unusable_lines_decode_to_none(self, raw):
        assert decode_line(raw) is None


class TestCorruptBytes:
    """Undecodable entries are misses or counted lines, never errors."""

    def _legacy(self, cache, key, data):
        path = cache._path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as fh:
            fh.write(data)

    def test_non_utf8_legacy_entry(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        (key,) = _keys(1)
        self._legacy(cache, key, GARBAGE)
        assert cache.get(key) is None
        assert cache.version_counts() == {}
        report = cache.prune_version("legacy")
        assert report.n_pruned == 1
        assert not os.path.exists(cache._path(key))

    def test_non_object_legacy_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        (key,) = _keys(1)
        self._legacy(cache, key, b"[]")
        assert cache.get(key) is None
        assert cache.get_many([key]) == {}

    def test_campaign_recomputes_over_a_non_object_entry(
        self, tmp_path, tiny_platform
    ):
        spec = CampaignSpec(
            name="t", scenario="family_comparison",
            params={"platform": platform_to_dict(tiny_platform),
                    "kinds": ["PD"]},
            n_patterns=4, n_runs=3, seed=3,
        )
        cache = ResultCache(str(tmp_path / "c"))
        (point,) = spec.points()
        self._legacy(cache, cache_key(point), b"[]")
        result = run_campaign(spec, cache=cache, n_workers=1)
        assert result.n_computed == 1
        assert result.records == run_campaign(spec, n_workers=1).records

    def test_non_utf8_segment_line_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        good, bad = _keys(2)
        cache.put_many({good: {"v": 1}, bad: {"v": 2}})
        name, offset, length = cache._log._index[bad]
        with open(os.path.join(cache.root, name), "r+b") as fh:
            fh.seek(offset)
            fh.write(GARBAGE.ljust(length))
        assert cache.get_many([good, bad]) == {good: {"v": 1}}
        assert cache.version_counts() == {"semantics=2": 1}

    def test_non_utf8_journal_line_is_counted(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        with open(path, "wb") as fh:
            fh.write(encode_lines({"k1": {"v": 1}}))
            fh.write(GARBAGE + b"\n")
            fh.write(b"[]\n")
            fh.write(encode_lines({"k2": {"v": 2}}))
        journal = Journal(path)
        journal.close()
        assert journal.existing == {"k1": {"v": 1}, "k2": {"v": 2}}
        assert journal.n_corrupt == 2

    def test_scan_jsonl_counts_non_utf8_and_non_objects(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_bytes(b'{"a": 1}\n' + GARBAGE + b'\n[]\n3\n{"b": 2}\n')
        assert scan_jsonl(str(path)) == ([{"a": 1}, {"b": 2}], 3)


class TestIndex:
    def test_a_cache_per_call_shares_one_index(self, tmp_path, monkeypatch):
        """A ResultCache built per campaign does not rescan the root."""
        root = str(tmp_path / "c")
        keys = _keys(50)
        ResultCache(root).put_many({k: {"v": 1} for k in keys})
        scans = []
        real_scan = RecordLog._scan
        monkeypatch.setattr(
            RecordLog, "_scan",
            lambda self, name, start: scans.append(start)
            or real_scan(self, name, start),
        )
        fresh = ResultCache(root)
        assert fresh._log is RecordLog.at(fresh.root)
        assert fresh.get_many(_keys(5, prefix="cd")) == {}
        assert len(fresh.get_many(keys)) == 50
        assert scans == []  # own appends were indexed in place

    def test_refresh_reads_only_appended_bytes(self, tmp_path, monkeypatch):
        root = str(tmp_path / "c")
        cache = ResultCache(root)
        first, second = _keys(3), _keys(3, prefix="cd")
        assert _in_child(lambda: ResultCache(root).put_many(
            {k: {"v": 1} for k in first}
        )) == 0
        assert len(cache.get_many(first)) == 3
        (segment,) = glob.glob(os.path.join(cache.root, "seg-*.jsonl"))
        size = os.path.getsize(segment)
        scans = []
        real_scan = RecordLog._scan
        monkeypatch.setattr(
            RecordLog, "_scan",
            lambda self, name, start: scans.append(start)
            or real_scan(self, name, start),
        )
        with open(segment, "ab") as fh:  # another writer's next bucket
            fh.write(encode_lines({k: {"v": 2} for k in second}))
        assert len(cache.get_many(second)) == 3
        assert scans == [size]

    def test_one_refresh_per_get_many(self, tmp_path, monkeypatch):
        cache = ResultCache(str(tmp_path / "c"))
        refreshes = []
        real = RecordLog.refresh
        monkeypatch.setattr(
            RecordLog, "refresh",
            lambda self: refreshes.append(1) or real(self),
        )
        cache.get_many(_keys(20))
        assert refreshes == [1]

    def test_legacy_and_segment_entries_together(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        new, both, old = _keys(3)
        cache.put_many({new: {"v": 1}, both: {"v": 2}})
        for key in (both, old):
            os.makedirs(os.path.dirname(cache._path(key)), exist_ok=True)
            with open(cache._path(key), "w") as fh:
                json.dump({"v": 2 if key == both else 3}, fh)
        assert cache.get_many([new, both, old]) == {
            new: {"v": 1}, both: {"v": 2}, old: {"v": 3}
        }
        assert old in cache and new in cache
        assert cache.stats().entries == 3
        assert cache.clear() == 3
        assert os.listdir(cache.root) == []
        assert cache.get_many([new, both, old]) == {}


class TestThreads:
    def test_concurrent_writers_and_readers_on_one_root(self, tmp_path):
        """Six threads on two cores, switching every 10 us: every bucket
        lands whole and every key reads back exactly once."""
        import threading

        root = str(tmp_path / "c")
        buckets = {
            (t, b): {f"{t:02x}{b:02x}{i:060x}": {"t": t, "b": b, "i": i}
                     for i in range(8)}
            for t in range(6) for b in range(10)
        }
        wanted = {
            k: r for bucket in buckets.values() for k, r in bucket.items()
        }
        errors = []

        def writer(t):
            try:
                cache = ResultCache(root)
                for b in range(10):
                    cache.put_many(buckets[t, b])
                    cache.get_many(list(wanted)[::7])
            except Exception as exc:  # reported below
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert ResultCache(root).get_many(list(wanted)) == wanted
        lines = _segment_lines(root)
        assert sorted(decode_line(raw)[0] for raw in lines) == sorted(wanted)


class TestTornTails:
    """A killed writer loses only the bucket it was writing."""

    def test_half_a_bucket_in_a_segment(self, tmp_path, monkeypatch):
        root = str(tmp_path / "c")
        early, torn = _keys(4), _keys(4, prefix="cd")

        def child():
            cache = ResultCache(root)
            cache.put_many({k: {"v": 1} for k in early})
            monkeypatch.setattr(store_mod, "_write_all", _die_mid_write)
            cache.put_many({k: {"v": 2} for k in torn})

        assert _in_child(child) == 0
        cache = ResultCache(root)
        found = cache.get_many(early + torn)
        # The torn bucket's whole lines read; only its torn line is lost.
        assert found == {
            **{k: {"v": 1} for k in early}, **{k: {"v": 2} for k in torn[:-1]}
        }
        assert cache._log.n_torn == 1
        assert cache.stats().entries == 7
        # The next append lands on a fresh line and reads back.
        later = _keys(2, prefix="ef")
        cache.put_many({k: {"v": 3} for k in later})
        assert ResultCache(root).get_many(later) == {
            k: {"v": 3} for k in later
        }

    def test_own_torn_write_then_fresh_line(self, tmp_path, monkeypatch):
        """A write that failed halfway in a live writer: the next bucket
        in the same segment starts on a fresh line."""
        cache = ResultCache(str(tmp_path / "c"))
        early, torn, later = _keys(2), _keys(2, "cd"), _keys(2, "ef")
        cache.put_many({k: {"v": 1} for k in early})

        def fail_halfway(fd, data):
            os.write(fd, _torn(data))
            raise OSError("disk full")

        monkeypatch.setattr(store_mod, "_write_all", fail_halfway)
        with pytest.raises(OSError):
            cache.put_many({k: {"v": 2} for k in torn})
        monkeypatch.undo()
        cache.put_many({k: {"v": 3} for k in later})
        (segment,) = glob.glob(os.path.join(cache.root, "seg-*.jsonl"))
        with open(segment, "rb") as fh:
            lines = fh.read().split(b"\n")
        assert [decode_line(raw) is not None for raw in lines[:-1]] == [
            True, True, True, False, True, True
        ]
        assert cache.get_many(early + torn + later) == {
            **{k: {"v": 1} for k in early}, torn[0]: {"v": 2},
            **{k: {"v": 3} for k in later},
        }

    def test_half_a_bucket_in_a_journal(self, tmp_path, monkeypatch):
        path = str(tmp_path / "j.jsonl")
        early, torn = _keys(3), _keys(3, prefix="cd")

        def child():
            journal = Journal(path)
            journal.append({k: {"v": 1} for k in early})
            monkeypatch.setattr(store_mod, "_write_all", _die_mid_write)
            journal.append({k: {"v": 2} for k in torn})

        assert _in_child(child) == 0
        journal = Journal(path)
        assert journal.existing == {
            **{k: {"v": 1} for k in early}, **{k: {"v": 2} for k in torn[:-1]}
        }
        assert journal.n_corrupt == 1
        journal.append({k: {"v": 3} for k in torn})
        journal.close()
        reread = Journal(path)
        reread.close()
        assert reread.n_corrupt == 0
        assert reread.existing == {
            **{k: {"v": 1} for k in early}, **{k: {"v": 3} for k in torn}
        }

    def test_whole_last_record_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_bytes(encode_lines({"k1": {"v": 1}}).rstrip(b"\n"))
        journal = Journal(str(path))
        journal.append({"k2": {"v": 2}})
        journal.close()
        assert journal.n_corrupt == 0
        assert _journaled(str(path)) == {"k1": {"v": 1}, "k2": {"v": 2}}


_CLI_SPEC = [
    "--scenario", "family_comparison", "--set", "platform=hera",
    "--patterns", "4", "--runs", "3", "--seed", "7", "--workers", "1",
]


class TestCrashBetweenSegmentAndJournal:
    def test_resume_output_is_byte_identical(self, tmp_path, monkeypatch):
        from repro.cli import main

        cache_dir = str(tmp_path / "cache")
        journal = str(tmp_path / "j.jsonl")
        calls = []

        def child():
            # Several buckets; die in the second commit, after its cache
            # segment write and before its journal write.
            monkeypatch.setattr(executor, "DEFAULT_PACK_ROWS", 24)
            real = Journal.append

            def append(self, records, lines=None):
                calls.append(1)
                if len(calls) == 2:
                    os._exit(17)
                real(self, records, lines)

            monkeypatch.setattr(Journal, "append", append)
            main(["campaign", "run", *_CLI_SPEC, "--cache-dir", cache_dir,
                  "--journal", journal])

        assert _in_child(child) == 17
        journaled = _journaled(journal)
        cached = ResultCache(cache_dir).get_many(
            [json.loads(raw)["key"] for raw in _segment_lines(cache_dir)]
        )
        assert 0 < len(journaled) < len(cached)

        resumed = str(tmp_path / "resumed.json")
        clean = str(tmp_path / "clean.json")
        assert main(["campaign", "run", *_CLI_SPEC, "--cache-dir", cache_dir,
                     "--journal", journal, "--json", resumed]) == 0
        assert main(["campaign", "run", *_CLI_SPEC, "--json", clean]) == 0
        with open(resumed, "rb") as a, open(clean, "rb") as b:
            assert a.read() == b.read()


_READER = """
import glob, json, os, sys
from repro.campaign.cache import ResultCache
from repro.campaign.store import decode_line
root = sys.argv[1]
copies = {}
for path in glob.glob(os.path.join(root, "seg-*.jsonl")):
    with open(path, "rb") as fh:
        for raw in fh.read().split(b"\\n")[:-1]:
            key, record, _ = decode_line(raw)
            copies.setdefault(key, []).append(record)
cache = ResultCache(root)
found = cache.get_many(sorted(copies))
print(json.dumps({
    "keys": sorted(copies),
    "found": len(found),
    "entries": cache.stats().entries,
    "one_record_per_key": all(
        all(r == rs[0] for r in rs) and found[k] == rs[0]
        for k, rs in copies.items()
    ),
    "torn": cache._log.n_torn,
}))
"""


class TestSharedRoot:
    def test_two_writers_then_a_reader(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        env = {**os.environ, "PYTHONPATH": SRC}
        grids = ("[0.5,1.0,1.5]", "[1.0,1.5,2.0]")  # overlapping
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "campaign", "run",
                 "--scenario", "error_rate_sweep", "--set", "vary=grid",
                 "--set", f"factors={grid}", "--patterns", "4", "--runs",
                 "3", "--workers", "1", "--cache-dir", cache_dir,
                 "--journal", str(tmp_path / f"j{i}.jsonl")],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
            )
            for i, grid in enumerate(grids)
        ]
        for proc in procs:
            assert proc.wait(timeout=120) == 0, proc.stderr.read()
            proc.stderr.close()
        assert len(glob.glob(os.path.join(cache_dir, "seg-*.jsonl"))) == 2
        reader = subprocess.run(
            [sys.executable, "-c", _READER, cache_dir], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert reader.returncode == 0, reader.stderr
        seen = json.loads(reader.stdout)
        journaled = set()
        for i in range(2):
            journaled |= set(_journaled(str(tmp_path / f"j{i}.jsonl")))
        assert set(seen["keys"]) == journaled
        assert seen["found"] == seen["entries"] == len(journaled)
        assert seen["one_record_per_key"] and seen["torn"] == 0


class TestJobJournals:
    def _spec(self, platform):
        return CampaignSpec(
            name="jobs-store", scenario="family_comparison",
            params={"platform": platform_to_dict(platform),
                    "kinds": ["PD", "PDV*", "PDV", "PDM", "PDMV*", "PDMV"]},
            n_patterns=4, n_runs=3, seed=11,
        )

    async def _run_job(self, store, submit=None, job_id=None):
        from repro.service.jobs.manager import JobManager
        from repro.service.memcache import LRUCache, TieredCache
        from repro.service.scheduler import MicroBatchScheduler

        scheduler = MicroBatchScheduler(
            cache=TieredCache(LRUCache()), batch_window_ms=0
        )
        await scheduler.start()
        manager = JobManager(scheduler, store, max_inflight=1, pack_rows=24)
        await manager.start()
        try:
            job = (
                await manager.submit(submit, "alice")
                if submit is not None else manager.get(job_id)
            )
            while not job.terminal:
                await asyncio.sleep(0.005)
            return job, manager.results_page(job)["records"]
        finally:
            await manager.close()
            await scheduler.close()

    def test_one_append_per_bucket(self, tmp_path, tiny_platform,
                                   monkeypatch):
        from repro.service.jobs.store import JobStore

        store = JobStore(str(tmp_path))
        real = Journal.append
        buckets = []

        def append(self, records, lines=None):
            real(self, records, lines)
            # After the bucket, the journal ends with exactly its lines.
            with open(self.path, "rb") as fh:
                tail = fh.read().split(b"\n")[-1 - len(records):-1]
            assert [decode_line(raw)[0] for raw in tail] == list(records)
            buckets.append(list(records))

        monkeypatch.setattr(Journal, "append", append)
        job, records = asyncio.run(
            self._run_job(store, submit=self._spec(tiny_platform))
        )
        assert job.state == "done"
        assert len(buckets) == 3  # six 12-row points, 24 rows a bucket
        assert all(len(b) == 2 for b in buckets)
        on_disk = _journaled(store.journal_path(job.job_id))
        assert list(on_disk) == [k for b in buckets for k in b]

    def test_torn_tail_resumes_to_clean_records(self, tmp_path,
                                                tiny_platform):
        from repro.campaign.executor import evaluate_point
        from repro.service.jobs.manager import new_job_id
        from repro.service.jobs.store import JobStore

        spec = self._spec(tiny_platform)
        points = spec.points()
        keys = [cache_key(p) for p in points]
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        store.save_spec(job_id, {"spec": spec.to_dict(), "client": "alice",
                                 "created": 1.0})
        whole = encode_lines(
            {k: evaluate_point(p) for k, p in zip(keys[:2], points[:2])}
        )
        torn = encode_lines({keys[2]: evaluate_point(points[2])})
        with open(store.journal_path(job_id), "wb") as fh:
            fh.write(whole + _torn(torn))
        job, records = asyncio.run(
            self._run_job(JobStore(str(tmp_path)), job_id=job_id)
        )
        assert job.state == "done" and job.n_from_journal == 2
        assert records == run_campaign(spec, n_workers=1).records
        healed = Journal(store.journal_path(job_id))
        healed.close()
        assert healed.n_corrupt == 0
        assert sorted(healed.existing) == sorted(set(keys))
