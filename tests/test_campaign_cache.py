"""Unit tests for the content-addressed result cache."""

import json
import os

import pytest

from repro.campaign.cache import (
    LEGACY_VERSION,
    ResultCache,
    cache_key,
    entry_versions,
)
from repro.campaign.spec import ScenarioPoint, platform_to_dict


@pytest.fixture
def point(tiny_platform):
    return ScenarioPoint(
        mode="simulate",
        kind="PDMV",
        platform=platform_to_dict(tiny_platform),
        n_patterns=4,
        n_runs=3,
        seed=11,
        labels={"pattern": "PDMV"},
    )


class TestCacheKey:
    def test_deterministic(self, point):
        assert cache_key(point) == cache_key(point)

    def test_labels_do_not_affect_key(self, point, tiny_platform):
        relabeled = ScenarioPoint(
            mode="simulate",
            kind="PDMV",
            platform=platform_to_dict(tiny_platform),
            n_patterns=4,
            n_runs=3,
            seed=11,
            labels={"campaign": "other", "factor": 2.0},
        )
        assert cache_key(relabeled) == cache_key(point)

    def test_platform_dict_order_irrelevant(self, point):
        shuffled = dict(reversed(list(point.platform.items())))
        shuffled["costs"] = dict(
            reversed(list(point.platform["costs"].items()))
        )
        other = ScenarioPoint(
            mode="simulate",
            kind="PDMV",
            platform=shuffled,
            n_patterns=4,
            n_runs=3,
            seed=11,
        )
        assert cache_key(other) == cache_key(point)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 12},
            {"n_runs": 4},
            {"n_patterns": 5},
            {"kind": "PD"},
            {"fail_stop_in_operations": False},
        ],
    )
    def test_mc_config_changes_key(self, point, change):
        data = point.to_dict()
        data.update(change)
        assert cache_key(ScenarioPoint.from_dict(data)) != cache_key(point)

    def test_platform_cost_changes_key(self, point, tiny_platform):
        other = ScenarioPoint(
            mode="simulate",
            kind="PDMV",
            platform=platform_to_dict(tiny_platform.with_costs(C_D=999.0)),
            n_patterns=4,
            n_runs=3,
            seed=11,
        )
        assert cache_key(other) != cache_key(point)

    def test_optimize_ignores_mc_config(self, tiny_platform):
        pdict = platform_to_dict(tiny_platform)
        a = ScenarioPoint(mode="optimize", kind="PD", platform=pdict)
        b = ScenarioPoint(
            mode="optimize", kind="PD", platform=pdict,
            n_patterns=50, n_runs=50, seed=3,
        )
        assert cache_key(a) == cache_key(b)

    def test_mode_changes_key(self, point):
        data = point.to_dict()
        data["mode"] = "optimize"
        assert cache_key(ScenarioPoint.from_dict(data)) != cache_key(point)

    def test_engine_changes_key(self, point):
        """Step-engine rows must never be served for fast-engine points."""
        data = point.to_dict()
        data["engine"] = "step"
        assert cache_key(ScenarioPoint.from_dict(data)) != cache_key(point)

    def test_optimize_ignores_engine(self, tiny_platform):
        pdict = platform_to_dict(tiny_platform)
        a = ScenarioPoint(mode="optimize", kind="PD", platform=pdict)
        b = ScenarioPoint(
            mode="optimize", kind="PD", platform=pdict, engine="step"
        )
        assert cache_key(a) == cache_key(b)

    def test_key_incorporates_semantics_version(self, point, monkeypatch):
        import repro.campaign.cache as cache_mod

        before = cache_key(point)
        monkeypatch.setattr(cache_mod, "SEMANTICS_VERSION", 9999)
        # Keys are computed once per point object, so the version bump
        # shows on a point built after it.
        fresh = ScenarioPoint.from_dict(point.to_dict())
        assert cache_key(fresh) != before
        assert cache_key(point) == before


class TestKeyMemo:
    def test_key_is_computed_once_per_point(self, point, monkeypatch):
        import repro.campaign.cache as cache_mod

        digests = []
        original = cache_mod._point_digest
        monkeypatch.setattr(
            cache_mod, "_point_digest",
            lambda p: digests.append(p) or original(p),
        )
        fresh = ScenarioPoint.from_dict(point.to_dict())
        key = cache_key(fresh)
        assert cache_key(fresh) == key
        assert len(digests) == 1

    def test_memo_is_invisible_to_fields(self, point):
        twin = ScenarioPoint.from_dict(point.to_dict())
        before = point.to_dict()
        key = cache_key(point)
        assert point == twin and point.to_dict() == before
        assert cache_key(twin) == key

    def test_key_travels_with_a_pickled_point(self, point):
        import pickle

        key = cache_key(point)
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert vars(clone)["_cache_key"] == key


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, point):
        cache = ResultCache(str(tmp_path / "c"))
        key = cache.key(point)
        assert cache.get(key) is None
        assert key not in cache
        cache.put(key, {"H*": 0.25})
        assert key in cache
        assert cache.get(key) == {"H*": 0.25}
        stats = cache.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.entries == 1 and stats.total_bytes > 0
        assert stats.hit_rate == pytest.approx(0.5)

    def test_corrupt_entry_is_a_miss(self, tmp_path, point):
        cache = ResultCache(str(tmp_path / "c"))
        key = cache.key(point)
        cache.put(key, {"x": 1})
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write("{not json")
        assert cache.get(key) is None

    def test_clear(self, tmp_path, point):
        cache = ResultCache(str(tmp_path / "c"))
        for seed in range(3):
            data = point.to_dict()
            data["seed"] = seed
            cache.put(cache_key(ScenarioPoint.from_dict(data)), {"s": seed})
        assert cache.stats().entries == 3
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_sharded_layout(self, tmp_path, point):
        cache = ResultCache(str(tmp_path / "c"))
        key = cache.key(point)
        cache.put(key, {})
        assert os.path.exists(
            os.path.join(cache.root, key[:2], f"{key}.json")
        )

    def test_put_is_atomic_no_tmp_left(self, tmp_path, point):
        cache = ResultCache(str(tmp_path / "c"))
        key = cache.key(point)
        cache.put(key, {"v": 1})
        shard = os.path.join(cache.root, key[:2])
        assert [n for n in os.listdir(shard) if n.endswith(".tmp")] == []

    def test_shared_across_instances(self, tmp_path, point):
        root = str(tmp_path / "c")
        ResultCache(root).put(cache_key(point), {"v": 2})
        assert ResultCache(root).get(cache_key(point)) == {"v": 2}


class TestBulkOps:
    """get_many/put_many: per-key hit/miss counting, per-entry atomicity."""

    @staticmethod
    def _keys(n, *, shard="ab"):
        # Synthetic hex-style keys; a shared prefix puts them in one
        # shard, distinct prefixes in several.
        return [f"{shard}{i:062x}" for i in range(n)]

    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        records = {k: {"v": i} for i, k in enumerate(self._keys(5))}
        cache.put_many(records)
        assert cache.get_many(list(records)) == records

    def test_absent_keys_are_missing_not_none(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        present, absent = self._keys(2)
        cache.put(present, {"v": 1})
        out = cache.get_many([present, absent])
        assert out == {present: {"v": 1}}

    def test_counters_match_per_key_gets(self, tmp_path):
        bulk = ResultCache(str(tmp_path / "bulk"))
        solo = ResultCache(str(tmp_path / "solo"))
        keys = self._keys(3) + self._keys(2, shard="cd")
        for target in (bulk, solo):
            target.put_many({k: {"v": 1} for k in keys[:3]})
        bulk.get_many(keys)
        for key in keys:
            solo.get(key)
        assert (bulk._hits, bulk._misses) == (solo._hits, solo._misses)

    def test_get_many_on_empty_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        assert cache.get_many(self._keys(4)) == {}
        assert cache._misses == 4

    def test_corrupt_entry_skipped(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        good, bad = self._keys(2)
        cache.put_many({good: {"v": 1}, bad: {"v": 2}})
        with open(cache._path(bad), "w") as fh:
            fh.write("{not json")
        assert cache.get_many([good, bad]) == {good: {"v": 1}}

    def test_bulk_equivalent_to_loop_for_real_points(
        self, tmp_path, point
    ):
        cache = ResultCache(str(tmp_path / "c"))
        points = []
        for seed in range(4):
            data = point.to_dict()
            data["seed"] = seed
            points.append(ScenarioPoint.from_dict(data))
        records = {cache_key(p): {"seed": p.seed} for p in points}
        cache.put_many(records)
        for key, record in records.items():
            assert cache.get(key) == record


class TestPrune:
    @staticmethod
    def _age(cache, key, days):
        import time as _time

        old = _time.time() - days * 86400.0
        os.utime(cache._path(key), (old, old))

    def test_dry_run_reports_without_removing(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        keys = [f"{i:064x}" for i in range(3)]
        cache.put_many({k: {"v": 1} for k in keys})
        for key in keys[:2]:
            self._age(cache, key, days=10)
        report = cache.prune_older_than(7, dry_run=True)
        assert report.dry_run
        assert report.n_examined == 3
        assert report.n_pruned == 2
        assert report.bytes_pruned > 0
        assert cache.stats().entries == 3

    def test_prune_removes_old_entries_and_empty_shards(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        old_key = "aa" + "0" * 62
        new_key = "bb" + "0" * 62
        cache.put_many({old_key: {"v": 1}, new_key: {"v": 2}})
        self._age(cache, old_key, days=30)
        report = cache.prune_older_than(7)
        assert not report.dry_run
        assert report.n_pruned == 1
        assert cache.get(new_key) == {"v": 2}
        assert cache.get(old_key) is None
        assert not os.path.exists(os.path.join(cache.root, "aa"))
        assert os.path.exists(os.path.join(cache.root, "bb"))

    def test_prune_zero_days_evicts_everything(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        cache.put_many({f"{i:064x}": {"v": i} for i in range(3)})
        report = cache.prune_older_than(0)
        assert report.n_pruned == 3
        assert cache.stats().entries == 0

    def test_put_after_prune_rebuilds_shard(self, tmp_path):
        """put recreates a shard directory that a prune removed."""
        cache = ResultCache(str(tmp_path / "c"))
        key = "aa" + "1" * 62
        cache.put(key, {"v": 1})
        cache.prune_older_than(0)
        cache.put(key, {"v": 2})
        assert cache.get(key) == {"v": 2}

    def test_negative_days_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        with pytest.raises(ValueError, match="days"):
            cache.prune_older_than(-1)

    def test_prune_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = ResultCache(str(tmp_path / "c"))
        cache.put("aa" + "0" * 62, {"v": 1})
        self._age(cache, "aa" + "0" * 62, days=5)
        assert main(
            ["campaign", "cache", "--cache-dir", cache.root,
             "--prune-older-than", "3", "--dry-run"]
        ) == 0
        assert "would evict 1" in capsys.readouterr().err
        assert cache.stats().entries == 1
        assert main(
            ["campaign", "cache", "--cache-dir", cache.root,
             "--prune-older-than", "3"]
        ) == 0
        assert "evicted 1" in capsys.readouterr().err
        assert cache.stats().entries == 0

    def test_prune_cli_flag_validation(self, tmp_path):
        from repro.cli import main

        root = str(tmp_path / "c")
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["campaign", "cache", "--cache-dir", root,
                  "--clear", "--prune-older-than", "1"])
        with pytest.raises(SystemExit, match="requires"):
            main(["campaign", "cache", "--cache-dir", root, "--dry-run"])
        with pytest.raises(SystemExit, match=">= 0"):
            main(["campaign", "cache", "--cache-dir", root,
                  "--prune-older-than", "-1"])


class TestVersions:
    """Entry version stamps, counts and surgical per-label eviction."""

    KEYS = [f"{shard}{i:062x}" for i, shard in enumerate(
        ("aa", "aa", "bb", "cc")
    )]

    def _mixed_cache(self, tmp_path):
        """fast + packed + analytic entries plus one pre-stamp file."""
        cache = ResultCache(str(tmp_path / "c"))
        fast, packed, analytic, legacy = self.KEYS
        cache.put(fast, {"engine": "fast", "v": 1})
        cache.put(packed, {"engine": "packed", "v": 2})
        cache.put(analytic, {"engine": "analytic", "v": 3})
        # A pre-stamp entry: the raw record, no ~meta wrapper.
        os.makedirs(os.path.dirname(cache._path(legacy)), exist_ok=True)
        with open(cache._path(legacy), "w") as fh:
            json.dump({"engine": "fast", "v": 4}, fh)
        return cache

    def test_entries_are_stamped_on_disk(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        record = {"engine": "fast", "H*": 0.25}
        cache.put(self.KEYS[0], record)
        with open(cache._path(self.KEYS[0])) as fh:
            on_disk = json.load(fh)
        assert on_disk == {
            "~meta": entry_versions(record),
            "record": record,
        }
        # Readers unwrap transparently -- stored bytes, same record.
        assert cache.get(self.KEYS[0]) == record

    def test_entry_versions_follow_the_engine(self):
        from repro.core.batch import ANALYTIC_VERSION
        from repro.simulation.model import SEMANTICS_VERSION
        from repro.simulation.packed_engine import PACKED_VERSION

        assert entry_versions({"engine": "analytic"}) == {
            "schema": 1, "analytic": ANALYTIC_VERSION
        }
        assert entry_versions({"engine": "fast"}) == {
            "schema": 1, "semantics": SEMANTICS_VERSION
        }
        assert entry_versions({"engine": "packed"}) == {
            "schema": 1,
            "semantics": SEMANTICS_VERSION,
            "packed": PACKED_VERSION,
        }
        # Records with no engine label (optimize rows) version like
        # Monte-Carlo rows: conservative over-invalidation.
        assert "semantics" in entry_versions({})

    def test_legacy_entries_still_read(self, tmp_path):
        cache = self._mixed_cache(tmp_path)
        assert cache.get(self.KEYS[3]) == {"engine": "fast", "v": 4}

    def test_version_counts_mixed_store(self, tmp_path):
        cache = self._mixed_cache(tmp_path)
        counts = cache.version_counts()
        # The packed entry counts under BOTH its semantics and packed
        # labels; the pre-stamp file counts as legacy.
        assert counts["analytic=1"] == 1
        assert counts[LEGACY_VERSION] == 1
        assert counts["packed=1"] == 1
        assert counts["semantics=2"] == 2
        assert cache.stats().entries == 4

    def test_prune_one_label_exactly(self, tmp_path):
        cache = self._mixed_cache(tmp_path)
        report = cache.prune_version("semantics=2")
        assert not report.dry_run
        assert report.n_examined == 4
        assert report.n_pruned == 2  # fast + packed, nothing else
        assert report.bytes_pruned > 0
        assert cache.get(self.KEYS[2]) == {"engine": "analytic", "v": 3}
        assert cache.get(self.KEYS[3]) == {"engine": "fast", "v": 4}
        assert cache.version_counts() == {
            "analytic=1": 1, LEGACY_VERSION: 1
        }
        # The aa shard emptied (both its entries were semantics=2).
        assert not os.path.exists(os.path.join(cache.root, "aa"))

    def test_prune_legacy_label(self, tmp_path):
        cache = self._mixed_cache(tmp_path)
        report = cache.prune_version(LEGACY_VERSION)
        assert report.n_pruned == 1
        assert cache.stats().entries == 3
        assert cache.get(self.KEYS[3]) is None

    def test_dry_run_reports_without_removing(self, tmp_path):
        cache = self._mixed_cache(tmp_path)
        report = cache.prune_version("packed=1", dry_run=True)
        assert report.dry_run
        assert report.n_pruned == 1
        assert cache.stats().entries == 4

    def test_unknown_label_prunes_nothing(self, tmp_path):
        cache = self._mixed_cache(tmp_path)
        report = cache.prune_version("semantics=9999")
        assert report.n_pruned == 0
        assert cache.stats().entries == 4

    def test_empty_label_rejected(self, tmp_path):
        cache = ResultCache(str(tmp_path / "c"))
        for label in ("", "   "):
            with pytest.raises(ValueError, match="non-empty"):
                cache.prune_version(label)

    def test_corrupt_entry_prunes_as_legacy(self, tmp_path):
        """Unreadable files: skipped by counts, evictable as legacy."""
        cache = self._mixed_cache(tmp_path)
        with open(cache._path(self.KEYS[0]), "w") as fh:
            fh.write("{not json")
        assert cache.version_counts()[LEGACY_VERSION] == 1
        report = cache.prune_version(LEGACY_VERSION)
        assert report.n_pruned == 2  # the pre-stamp AND the corrupt one

    def test_cache_cli_shows_version_columns(self, tmp_path, capsys):
        from repro.cli import main

        cache = self._mixed_cache(tmp_path)
        assert main(
            ["campaign", "cache", "--cache-dir", cache.root]
        ) == 0
        out = capsys.readouterr().out
        assert "semantics=2" in out
        assert "analytic=1" in out
        assert LEGACY_VERSION in out

    def test_prune_version_cli(self, tmp_path, capsys):
        from repro.cli import main

        cache = self._mixed_cache(tmp_path)
        assert main(
            ["campaign", "cache", "--cache-dir", cache.root,
             "--prune-version", "semantics=2", "--dry-run"]
        ) == 0
        assert "would evict 2" in capsys.readouterr().err
        assert cache.stats().entries == 4
        assert main(
            ["campaign", "cache", "--cache-dir", cache.root,
             "--prune-version", "semantics=2"]
        ) == 0
        assert "evicted 2" in capsys.readouterr().err
        assert cache.stats().entries == 2

    def test_prune_version_cli_validation(self, tmp_path):
        from repro.cli import main

        root = str(tmp_path / "c")
        with pytest.raises(SystemExit, match="mutually exclusive"):
            main(["campaign", "cache", "--cache-dir", root,
                  "--prune-version", "legacy",
                  "--prune-older-than", "1"])
        with pytest.raises(SystemExit, match="non-empty"):
            main(["campaign", "cache", "--cache-dir", root,
                  "--prune-version", ""])
