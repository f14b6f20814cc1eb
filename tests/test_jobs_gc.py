"""Job TTL garbage collection and idempotent resubmission.

Jobs historically accumulated forever -- every submission lived in the
manager (and ``--jobs-dir``) until the daemon died.  These tests pin
the fix: the manager's TTL sweep (``repro serve --job-ttl-days``), the
offline ``repro jobs --prune`` path, and the idempotency-key dedup
that makes ``POST /v1/campaign`` safe to retry.
"""

import asyncio
import os
import threading
import time

import pytest

from repro.campaign.executor import evaluate_points
from repro.campaign.spec import CampaignSpec, platform_to_dict
from repro.cli import main
from repro.service.client import ServiceClient
from repro.service.jobs.manager import JobManager, new_job_id
from repro.service.jobs.store import JobStore
from repro.service.memcache import LRUCache, TieredCache
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundService


def _spec(platform, **overrides):
    base = dict(
        name="gc-test",
        scenario="family_comparison",
        params={
            "platform": platform_to_dict(platform),
            "kinds": ["PDMV", "PD", "PDV"],
        },
        n_patterns=4,
        n_runs=3,
        seed=11,
    )
    base.update(overrides)
    return CampaignSpec(**base)


def _run(coro):
    return asyncio.run(coro)


async def _with_manager(fn, *, evaluate=None, store=None, **mgr_kwargs):
    scheduler = MicroBatchScheduler(
        cache=TieredCache(LRUCache()),
        batch_window_ms=0,
        evaluate=evaluate,
    )
    await scheduler.start()
    manager = JobManager(scheduler, store, **mgr_kwargs)
    await manager.start()
    try:
        return await fn(manager, scheduler)
    finally:
        await manager.close()
        await scheduler.close()


async def _wait_terminal(job, timeout=60.0):
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while not job.terminal:
        if loop.time() > deadline:
            raise AssertionError(f"job stuck in state {job.state!r}")
        await asyncio.sleep(0.005)
    return job


class TestManagerGc:
    def test_collects_old_terminal_jobs_and_their_idempotency(
        self, tiny_platform
    ):
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice", idempotency_key="k1")
            await _wait_terminal(job)
            assert manager.gc(now=job.finished + 1.0) == []  # too young
            collected = manager.gc(now=job.finished + 8 * 86400.0)
            assert collected == [job.job_id]
            assert manager.get(job.job_id) is None
            # The idempotency mapping died with the job: the same key
            # now starts a fresh job instead of pointing into a void.
            fresh = await manager.submit(
                spec, "alice", idempotency_key="k1"
            )
            assert fresh.job_id != job.job_id
            return manager.stats()

        stats = _run(_with_manager(scenario, job_ttl_days=7.0))
        assert stats["counters"]["gc_collected"] == 1
        assert stats["config"]["job_ttl_days"] == 7.0

    def test_never_collects_queued_or_running_jobs(self, tiny_platform):
        spec = _spec(tiny_platform)
        entered = threading.Event()
        release = threading.Event()

        def gated(points):
            entered.set()
            assert release.wait(30)
            return evaluate_points(points)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            while not entered.is_set():
                await asyncio.sleep(0.005)
            # Mid-flight and ancient by any clock: still untouchable.
            assert manager.gc(now=time.time() + 10**9) == []
            assert manager.get(job.job_id) is job
            release.set()
            await _wait_terminal(job)
            assert manager.gc(now=job.finished + 8 * 86400.0) == [
                job.job_id
            ]

        _run(_with_manager(scenario, evaluate=gated, job_ttl_days=7.0))

    def test_gc_is_a_noop_without_ttl(self, tiny_platform):
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            assert manager.gc(now=job.finished + 10**9) == []
            assert manager.get(job.job_id) is job

        _run(_with_manager(scenario))

    def test_gc_removes_persisted_job_dirs(self, tmp_path, tiny_platform):
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            job_dir = tmp_path / job.job_id
            assert job_dir.is_dir()
            manager.gc(now=job.finished + 8 * 86400.0)
            assert not job_dir.exists()

        _run(
            _with_manager(
                scenario, store=JobStore(str(tmp_path)), job_ttl_days=7.0
            )
        )

    def test_ttl_validation(self):
        with pytest.raises(ValueError, match="job_ttl_days"):
            JobManager(MicroBatchScheduler(), job_ttl_days=-1.0)


class TestIdempotentSubmission:
    def test_same_key_returns_same_job(self, tiny_platform):
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            first = await manager.submit(spec, "alice", idempotency_key="k")
            again = await manager.submit(spec, "alice", idempotency_key="k")
            assert again is first
            # Same key, different client: a different tenant's job.
            other = await manager.submit(spec, "bob", idempotency_key="k")
            assert other is not first
            # No key: always a fresh job.
            fresh = await manager.submit(spec, "alice")
            assert fresh is not first
            return manager.stats()

        stats = _run(_with_manager(scenario))
        assert stats["counters"]["submitted"] == 3
        assert stats["counters"]["deduplicated"] == 1

    def test_key_survives_daemon_restart(self, tmp_path, tiny_platform):
        spec = _spec(tiny_platform)

        async def phase1(manager, scheduler):
            job = await manager.submit(spec, "alice", idempotency_key="rk")
            await _wait_terminal(job)
            return job.job_id

        job_id = _run(
            _with_manager(phase1, store=JobStore(str(tmp_path)))
        )

        async def phase2(manager, scheduler):
            again = await manager.submit(
                spec, "alice", idempotency_key="rk"
            )
            return again.job_id

        assert _run(
            _with_manager(phase2, store=JobStore(str(tmp_path)))
        ) == job_id


class TestStorePrune:
    def _make_job_dir(self, store, spec_dict, *, state=None, finished=None):
        job_id = new_job_id()
        store.save_spec(job_id, {"spec": spec_dict, "created": 1.0})
        if state is not None:
            marker = {"state": state}
            if finished is not None:
                marker["finished"] = finished
            store.save_state(job_id, marker)
        return job_id

    def test_prunes_only_old_terminal_dirs(self, tmp_path, tiny_platform):
        store = JobStore(str(tmp_path))
        spec_dict = _spec(tiny_platform).to_dict()
        old_done = self._make_job_dir(
            store, spec_dict, state="done", finished=100.0
        )
        old_failed = self._make_job_dir(
            store, spec_dict, state="failed", finished=100.0
        )
        young = self._make_job_dir(
            store, spec_dict, state="done", finished=1e9 - 1000.0
        )
        running = self._make_job_dir(store, spec_dict)  # no marker
        now = 1e9
        pruned = store.prune(7.0, now=now)
        assert sorted(j for j, _ in pruned) == sorted(
            [old_done, old_failed]
        )
        assert dict(pruned)[old_done] == "done"
        left = set(os.listdir(store.root))
        assert young in left and running in left
        assert old_done not in left and old_failed not in left

    def test_dry_run_deletes_nothing(self, tmp_path, tiny_platform):
        store = JobStore(str(tmp_path))
        spec_dict = _spec(tiny_platform).to_dict()
        job_id = self._make_job_dir(
            store, spec_dict, state="done", finished=100.0
        )
        pruned = store.prune(7.0, now=1e9, dry_run=True)
        assert pruned == [(job_id, "done")]
        assert (tmp_path / job_id).is_dir()

    def test_marker_mtime_is_the_age_fallback(
        self, tmp_path, tiny_platform
    ):
        store = JobStore(str(tmp_path))
        spec_dict = _spec(tiny_platform).to_dict()
        job_id = self._make_job_dir(store, spec_dict, state="cancelled")
        state_path = tmp_path / job_id / "state.json"
        old = time.time() - 30 * 86400.0
        os.utime(state_path, (old, old))
        assert store.prune(7.0) == [(job_id, "cancelled")]

    def test_unreadable_marker_is_left_alone(self, tmp_path, tiny_platform):
        store = JobStore(str(tmp_path))
        spec_dict = _spec(tiny_platform).to_dict()
        job_id = self._make_job_dir(store, spec_dict)
        (tmp_path / job_id / "state.json").write_text('{"state": "do')
        assert store.prune(0.0, now=1e18) == []
        assert (tmp_path / job_id).is_dir()

    def test_validation_and_delete_guard(self, tmp_path):
        store = JobStore(str(tmp_path))
        with pytest.raises(ValueError, match="ttl_days"):
            store.prune(-1.0)
        # delete_job never escapes the jobs root.
        assert store.delete_job("../evil") is False
        assert store.delete_job("j" + "0" * 12) is False  # absent

    def test_cli_prune(self, tmp_path, tiny_platform, capsys):
        store = JobStore(str(tmp_path))
        spec_dict = _spec(tiny_platform).to_dict()
        job_id = self._make_job_dir(
            store, spec_dict, state="done", finished=100.0
        )
        assert main(
            ["jobs", "--prune", "7", "--jobs-dir", str(tmp_path),
             "--dry-run"]
        ) == 0
        out = capsys.readouterr()
        assert f"would delete {job_id} (done)" in out.out
        assert (tmp_path / job_id).is_dir()
        assert main(
            ["jobs", "--prune", "7", "--jobs-dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr()
        assert f"deleted {job_id} (done)" in out.out
        assert not (tmp_path / job_id).exists()

    def test_cli_prune_requires_jobs_dir(self):
        with pytest.raises(SystemExit, match="--jobs-dir"):
            main(["jobs", "--prune", "7"])
        with pytest.raises(SystemExit, match=">= 0"):
            main(["jobs", "--prune", "-1", "--jobs-dir", "/tmp/x"])


class TestHttpIdempotency:
    def test_resubmission_returns_the_same_job(
        self, tmp_path, tiny_platform
    ):
        spec = _spec(tiny_platform, name="http-dedup")
        with BackgroundService(
            cache_dir=str(tmp_path / "cache"),
            jobs_dir=str(tmp_path / "jobs"),
            job_ttl_days=3.0,
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                first = client.submit_campaign(
                    spec, "alice", idempotency_key="dup-1"
                )
                again = client.submit_campaign(
                    spec, "alice", idempotency_key="dup-1"
                )
                assert again["id"] == first["id"]
                # Auto-generated keys never collide.
                fresh = client.submit_campaign(spec, "alice")
                assert fresh["id"] != first["id"]
                stats = client.stats()
        assert stats["jobs"]["counters"]["deduplicated"] == 1
        assert stats["jobs"]["config"]["job_ttl_days"] == 3.0
