"""Campaign-as-a-service jobs: planning, persistence, pump, HTTP API.

The load-bearing assertions of the jobs layer live here:

* a background job's streamed records are **bit-identical** to
  ``repro campaign run`` on the same spec (the PR's invariant);
* a job resumes from its journal after a daemon restart, recomputing
  only the missing points;
* two clients' concurrent jobs make interleaved fair-share progress
  (asserted via progress counters, not timing).
"""

import asyncio
import json
import threading

import pytest

from repro.campaign.cache import cache_key
from repro.campaign.executor import (
    evaluate_point,
    evaluate_points,
    run_campaign,
)
from repro.campaign.planner import bucket_rows, order_buckets, plan_buckets
from repro.campaign.spec import CampaignSpec, platform_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs.fair_share import FairShare
from repro.service.jobs.manager import (
    TERMINAL_STATES,
    JobManager,
    new_job_id,
)
from repro.service.jobs.store import JobStore
from repro.service.memcache import LRUCache, TieredCache
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundService


def _spec(platform, **overrides):
    """A small family-comparison campaign on the given platform."""
    base = dict(
        name="jobs-test",
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


def _six_kind_spec(platform, **overrides):
    overrides.setdefault(
        "params",
        {
            "platform": platform_to_dict(platform),
            "kinds": ["PD", "PDV*", "PDV", "PDM", "PDMV*", "PDMV"],
        },
    )
    return _spec(platform, **overrides)


def _run(coro):
    return asyncio.run(coro)


async def _with_manager(fn, *, evaluate=None, store=None, max_inflight=2,
                        pack_rows=None, **sched_kwargs):
    sched_kwargs.setdefault("cache", TieredCache(LRUCache()))
    sched_kwargs.setdefault("batch_window_ms", 0)
    scheduler = MicroBatchScheduler(evaluate=evaluate, **sched_kwargs)
    await scheduler.start()
    manager = JobManager(
        scheduler, store, max_inflight=max_inflight, pack_rows=pack_rows
    )
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


class _Job:
    """A bare (client, seq) pair for FairShare policy tests."""

    def __init__(self, client, seq):
        self.client = client
        self.seq = seq


class TestFairShare:
    def test_pick_prefers_least_served_client(self):
        fair = FairShare()
        a, b = _Job("alice", 1), _Job("bob", 2)
        assert fair.pick([a, b]) is a  # tie -> submission order
        fair.charge("alice", 100)
        assert fair.pick([a, b]) is b
        fair.charge("bob", 200)
        assert fair.pick([a, b]) is a
        assert fair.pick([]) is None

    def test_charges_accumulate_across_jobs(self):
        """Splitting one campaign into many jobs buys no priority."""
        fair = FairShare()
        fair.charge("alice", 10)
        fair.charge("alice", 10)
        assert fair.served("alice") == 20
        late = _Job("alice", 9)
        fresh = _Job("bob", 10)
        assert fair.pick([late, fresh]) is fresh
        assert fair.stats() == {"alice": 20}

    def test_order_buckets_is_lpt_and_stable(self, tiny_platform):
        spec = _spec(tiny_platform)
        points = spec.points()
        keys = [cache_key(p) for p in points]
        small = [(keys[0], points[0])]
        big = [(k, p) for k, p in zip(keys[1:], points[1:])]
        ordered = order_buckets([small, big])
        assert ordered == [big, small]
        # Equal-weight buckets keep their input order.
        assert order_buckets([small, [(keys[1], points[1])]]) == [
            small, [(keys[1], points[1])]
        ]

    def test_plan_buckets_splits_at_row_budget(self, tiny_platform):
        spec = _six_kind_spec(tiny_platform)
        points = spec.points()
        items = [(cache_key(p), p) for p in points]
        # Each point carries 12 rows; a 12-row budget -> one bucket
        # per point, and every point appears exactly once.
        buckets = plan_buckets(items, 12)
        assert len(buckets) == len(points)
        assert sorted(k for b in buckets for k, _ in b) == sorted(
            k for k, _ in items
        )
        # A huge budget packs all six into one mega-batch bucket.
        assert len(plan_buckets(items, 10**6)) == 1

    def test_plan_buckets_groups_non_packable_points(self, tiny_platform):
        analytic = _spec(tiny_platform, engine="analytic")
        optimize = CampaignSpec(
            name="opt",
            scenario="recall_sweep",
            params={
                "platform": platform_to_dict(tiny_platform),
                "recalls": [0.5, 0.8, 0.95],
            },
        )
        items = [
            (cache_key(p), p)
            for p in analytic.points() + optimize.points()
        ]
        buckets = plan_buckets(items, 10**6)
        # Analytic points bucket per pattern family; the five optimize
        # points share (mode, engine) buckets of ceil(8 / 4) = 2 points
        # (eight non-packable points, about four chunks per worker).
        for bucket in buckets:
            modes = {p.mode for _, p in bucket}
            assert len(modes) == 1
        n_points = sum(len(b) for b in buckets)
        assert n_points == len(items)
        assert any(
            len(b) == 2 and b[0][1].mode == "optimize" for b in buckets
        )

    def test_plan_buckets_validates_pack_rows(self):
        with pytest.raises(ValueError, match="pack_rows"):
            plan_buckets([], 0)

    def test_bucket_rows_is_the_mc_row_count(self, tiny_platform):
        spec = _spec(tiny_platform)
        items = [(cache_key(p), p) for p in spec.points()]
        assert bucket_rows(items) == 3 * 4 * 3  # 3 points x 12 rows


class TestJobStore:
    def test_spec_roundtrip(self, tmp_path, tiny_platform):
        store = JobStore(str(tmp_path))
        spec = _spec(tiny_platform)
        job_id = new_job_id()
        store.save_spec(
            job_id,
            {"spec": spec.to_dict(), "client": "alice", "created": 5.0},
        )
        loaded = store.load(job_id)
        assert loaded["spec"] == spec
        assert loaded["envelope"]["client"] == "alice"
        assert loaded["state"] is None  # no marker -> resumable

    def test_terminal_marker_roundtrip(self, tmp_path, tiny_platform):
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        store.save_spec(
            job_id, {"spec": _spec(tiny_platform).to_dict(), "created": 1}
        )
        store.save_state(job_id, {"state": "done", "errors": {}})
        assert store.load(job_id)["state"]["state"] == "done"

    def test_torn_state_marker_means_resumable(
        self, tmp_path, tiny_platform
    ):
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        store.save_spec(
            job_id, {"spec": _spec(tiny_platform).to_dict(), "created": 1}
        )
        (tmp_path / job_id / "state.json").write_text('{"state": "do')
        assert store.load(job_id)["state"] is None

    def test_corrupt_or_missing_spec_is_skipped(self, tmp_path):
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        (tmp_path / job_id).mkdir()
        (tmp_path / job_id / "spec.json").write_text("{not json")
        assert store.load(job_id) is None
        assert store.load("j" + "f" * 12) is None
        assert store.load_all() == []

    def test_load_all_orders_by_submission_time(
        self, tmp_path, tiny_platform
    ):
        store = JobStore(str(tmp_path))
        spec = _spec(tiny_platform).to_dict()
        store.save_spec("j" + "b" * 12, {"spec": spec, "created": 2.0})
        store.save_spec("j" + "a" * 12, {"spec": spec, "created": 3.0})
        store.save_spec("j" + "c" * 12, {"spec": spec, "created": 1.0})
        # A non-job directory is ignored entirely.
        (tmp_path / "not-a-job").mkdir()
        ids = [j["job_id"] for j in store.load_all()]
        assert ids == ["j" + "c" * 12, "j" + "b" * 12, "j" + "a" * 12]

    def test_journal_is_campaign_format(self, tmp_path, tiny_platform):
        """A job journal is interchangeable with a campaign journal."""
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        journal = store.open_journal(job_id)
        journal.append({"k1": {"v": 1}})
        journal.close()
        line = json.loads(
            open(store.journal_path(job_id)).readline()
        )
        # The record-log line: the (key, record) pair plus its stamp.
        assert line["key"] == "k1" and line["record"] == {"v": 1}
        assert set(line) == {"key", "record", "~meta"}
        reopened = store.open_journal(job_id)
        assert reopened.existing == {"k1": {"v": 1}}
        reopened.close()


class _FailKind:
    """Real evaluation, except one pattern family always raises."""

    def __init__(self, bad_kind="PD"):
        self.bad_kind = bad_kind

    def __call__(self, points):
        for p in points:
            if p.kind == self.bad_kind:
                raise ValueError(f"injected failure for {p.kind}")
        return evaluate_points(points)


class TestJobManager:
    def test_job_runs_to_done_with_campaign_identical_records(
        self, tiny_platform
    ):
        """THE invariant: job records == ``repro campaign run``'s."""
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            assert job.state in ("queued", "running")
            await _wait_terminal(job)
            return job, manager.results_page(job)

        job, page = _run(_with_manager(scenario))
        assert job.state == "done"
        solo = run_campaign(spec)
        assert page["records"] == solo.records
        assert page["exhausted"] is True
        assert job.progress() == {
            "points": 3, "done": 3, "failed": 0, "pending": 0,
        }

    def test_job_hashes_each_point_once(self, tiny_platform, monkeypatch):
        """Submit and the scheduler share one cache-key digest per point."""
        import repro.campaign.cache as cache_mod

        digests = []
        original = cache_mod._point_digest

        def counting(point):
            digests.append(point)
            return original(point)

        monkeypatch.setattr(cache_mod, "_point_digest", counting)
        spec = _six_kind_spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            return job

        job = _run(_with_manager(scenario))
        assert job.state == "done"
        assert len(job.points) == 6
        assert len(digests) == len(job.points)

    def test_results_stream_in_point_order_with_paging(
        self, tiny_platform
    ):
        spec = _six_kind_spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            full = manager.results_page(job)["records"]
            paged, offset = [], 0
            while offset < len(job.points):
                page = manager.results_page(job, offset=offset, limit=2)
                assert len(page["records"]) <= 2
                paged.extend(page["records"])
                offset = page["next_offset"]
            return full, paged

        full, paged = _run(_with_manager(scenario))
        assert paged == full == run_campaign(spec).records

    def test_failed_point_fails_job_but_innocents_answer(
        self, tiny_platform
    ):
        spec = _spec(tiny_platform)  # kinds PDMV, PD, PDV; PD raises

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            return job, manager.results_page(job)

        job, page = _run(
            _with_manager(scenario, evaluate=_FailKind("PD"))
        )
        assert job.state == "failed"
        assert job.error == "1 point(s) failed evaluation"
        records = page["records"]
        assert len(records) == 3
        assert records[1] == {
            "platform": records[1]["platform"],
            "pattern": "PD",
            "error": "injected failure for PD",
        }
        for rec in (records[0], records[2]):
            assert "error" not in rec and "simulated" in rec
        assert job.progress()["failed"] == 1

    def test_cancel_drops_queued_buckets_keeps_landed_records(
        self, tiny_platform
    ):
        spec = _six_kind_spec(tiny_platform)
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
            cancelled = await manager.cancel(job.job_id)
            assert cancelled is job and job.state == "cancelled"
            assert not job.buckets
            release.set()
            while job.inflight:
                await asyncio.sleep(0.005)
            # Idempotent on terminal jobs; unknown ids -> None.
            assert (await manager.cancel(job.job_id)) is job
            assert (await manager.cancel("j" + "0" * 12)) is None
            return job, manager.results_page(job)

        job, page = _run(
            _with_manager(
                scenario, evaluate=gated, max_inflight=1, pack_rows=12
            )
        )
        # The one in-flight bucket landed; the queued tail never ran.
        assert job.progress()["done"] == 1
        assert job.progress()["pending"] == 5
        assert page["state"] == "cancelled"
        assert len(page["records"]) == 1
        assert page["exhausted"] is False
        assert job.finished is not None

    def test_two_clients_make_interleaved_progress(self, tiny_platform):
        """Fair share: neither client's job queues behind the other."""
        spec_a = _six_kind_spec(tiny_platform, name="job-a", seed=1)
        spec_b = _six_kind_spec(tiny_platform, name="job-b", seed=2)
        snapshots = []
        jobs = []

        def snapshotting(points):
            # max_inflight=1 serialises dispatch, so progress is stable
            # while this runs on the worker thread.
            snapshots.append([dict(j.progress()) for j in jobs])
            return evaluate_points(points)

        async def scenario(manager, scheduler):
            job_a = await manager.submit(spec_a, "alice")
            job_b = await manager.submit(spec_b, "bob")
            jobs.extend([job_a, job_b])
            await _wait_terminal(job_a)
            await _wait_terminal(job_b)
            return job_a, job_b, manager.stats()

        job_a, job_b, stats = _run(
            _with_manager(
                scenario,
                evaluate=snapshotting,
                max_inflight=1,
                pack_rows=12,  # one 12-row point per bucket
            )
        )
        assert job_a.state == job_b.state == "done"
        # Progress counters must show both jobs partially complete at
        # once -- i.e. the pump alternated instead of draining one job.
        interleaved = [
            s for s in snapshots
            if len(s) == 2
            and 0 < s[0]["done"] < 6
            and 0 < s[1]["done"] < 6
        ]
        assert interleaved, f"no interleaved snapshot in {snapshots}"
        fair = stats["fair_share"]
        assert fair["alice"] == fair["bob"] == 6 * 12
        assert stats["counters"]["buckets_dispatched"] == 12
        assert stats["jobs"] == {"done": 2}

    def test_duplicate_submission_is_answered_from_cache(
        self, tiny_platform
    ):
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            first = await manager.submit(spec, "alice")
            await _wait_terminal(first)
            before = scheduler.stats()["counters"]["engine_points"]
            second = await manager.submit(spec, "bob")
            await _wait_terminal(second)
            after = scheduler.stats()["counters"]["engine_points"]
            return (
                manager.results_page(first)["records"],
                manager.results_page(second)["records"],
                after - before,
            )

        first, second, extra_points = _run(_with_manager(scenario))
        assert first == second
        assert extra_points == 0  # the shared tiered cache answered

    def test_submit_rejects_empty_and_unknown_campaigns(
        self, tiny_platform
    ):
        async def scenario(manager, scheduler):
            empty = _spec(tiny_platform)
            empty = CampaignSpec(
                **{**empty.to_dict(), "params": {
                    "platform": platform_to_dict(tiny_platform),
                    "kinds": [],
                }}
            )
            with pytest.raises(ValueError, match="no scenario points"):
                await manager.submit(empty, "alice")
            with pytest.raises(KeyError, match="unknown scenario"):
                await manager.submit(
                    CampaignSpec(name="x", scenario="no-such"), "alice"
                )

        _run(_with_manager(scenario))

    def test_submit_before_start_raises(self, tiny_platform):
        async def scenario():
            scheduler = MicroBatchScheduler()
            manager = JobManager(scheduler)
            with pytest.raises(RuntimeError, match="not running"):
                await manager.submit(_spec(tiny_platform), "alice")

        _run(scenario())

    def test_max_inflight_validated(self):
        with pytest.raises(ValueError, match="max_inflight"):
            JobManager(MicroBatchScheduler(), max_inflight=0)

    def test_job_doc_shape(self, tiny_platform):
        spec = _spec(tiny_platform)

        async def scenario(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            return manager.job_doc(job)

        doc = _run(_with_manager(scenario))
        assert doc["id"] == doc["id"].lower() and len(doc["id"]) == 13
        assert doc["name"] == "jobs-test"
        assert doc["scenario"] == "family_comparison"
        assert doc["fingerprint"] == spec.fingerprint()
        assert doc["client"] == "alice"
        assert doc["state"] == "done"
        assert doc["progress"]["done"] == 3
        assert "error" not in doc


class TestRestartResume:
    def test_resume_recomputes_only_missing_points(
        self, tmp_path, tiny_platform
    ):
        """A journaled job survives the daemon: restart completes it.

        Phase 1 fakes a daemon killed mid-campaign by writing what it
        would have persisted -- ``spec.json`` plus a journal holding the
        first two records, no terminal marker.  Phase 2 starts a fresh
        manager on the same jobs dir and must finish the job from the
        journal, bit-identical to a solo ``campaign run``.
        """
        spec = _six_kind_spec(tiny_platform)
        points = spec.points()
        keys = [cache_key(p) for p in points]
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        store.save_spec(
            job_id,
            {
                "spec": spec.to_dict(),
                "client": "alice",
                "created": 100.0,
                "fingerprint": spec.fingerprint(),
            },
        )
        journal = store.open_journal(job_id)
        journal.append(
            {
                key: evaluate_point(point)
                for key, point in list(zip(keys, points))[:2]
            }
        )
        journal.close()

        computed = []

        def counting(points):
            computed.extend(points)
            return evaluate_points(points)

        async def scenario(manager, scheduler):
            job = manager.get(job_id)
            assert job is not None, "restart did not restore the job"
            await _wait_terminal(job)
            return job, manager.results_page(job), manager.stats()

        job, page, stats = _run(
            _with_manager(
                scenario, evaluate=counting, store=JobStore(str(tmp_path))
            )
        )
        assert job.state == "done"
        assert job.n_from_journal == 2
        assert stats["counters"]["resumed"] == 1
        # Only the four missing points were recomputed.
        assert sorted(cache_key(p) for p in computed) == sorted(keys[2:])
        assert page["records"] == run_campaign(spec).records

    def test_terminal_jobs_restore_without_reexecution(
        self, tmp_path, tiny_platform
    ):
        spec = _spec(tiny_platform)
        store = JobStore(str(tmp_path))

        async def phase1(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            return job.job_id, manager.results_page(job)["records"]

        job_id, records = _run(
            _with_manager(phase1, store=JobStore(str(tmp_path)))
        )

        def refuse(points):
            raise AssertionError("terminal job must not re-evaluate")

        async def phase2(manager, scheduler):
            job = manager.get(job_id)
            assert job.state == "done"
            return manager.results_page(job), manager.stats()

        page, stats = _run(
            _with_manager(
                phase2, evaluate=refuse, store=JobStore(str(tmp_path))
            )
        )
        assert page["records"] == records
        assert stats["counters"]["resumed"] == 0

    def test_failed_job_errors_survive_restart(
        self, tmp_path, tiny_platform
    ):
        spec = _spec(tiny_platform)

        async def phase1(manager, scheduler):
            job = await manager.submit(spec, "alice")
            await _wait_terminal(job)
            assert job.state == "failed"
            return job.job_id

        job_id = _run(
            _with_manager(
                phase1,
                evaluate=_FailKind("PD"),
                store=JobStore(str(tmp_path)),
            )
        )

        async def phase2(manager, scheduler):
            job = manager.get(job_id)
            return job.state, manager.results_page(job)["records"]

        state, records = _run(
            _with_manager(phase2, store=JobStore(str(tmp_path)))
        )
        assert state == "failed"
        assert records[1]["error"] == "injected failure for PD"

    def test_spec_that_no_longer_expands_fails_cleanly(
        self, tmp_path, tiny_platform
    ):
        store = JobStore(str(tmp_path))
        job_id = new_job_id()
        spec_dict = _spec(tiny_platform).to_dict()
        spec_dict["scenario"] = "family_comparison"
        store.save_spec(job_id, {"spec": spec_dict, "created": 1.0})
        # Sabotage the persisted params so the generator rejects them.
        envelope = json.loads(
            (tmp_path / job_id / "spec.json").read_text()
        )
        envelope["spec"]["params"]["platform"] = {"bogus": True}
        (tmp_path / job_id / "spec.json").write_text(
            json.dumps(envelope)
        )

        async def scenario(manager, scheduler):
            job = manager.get(job_id)
            return job.state, job.error

        state, error = _run(
            _with_manager(scenario, store=JobStore(str(tmp_path)))
        )
        assert state == "failed"
        assert "spec no longer expands" in error


@pytest.fixture(scope="class")
def jobs_service(tmp_path_factory):
    root = tmp_path_factory.mktemp("jobs-service")
    with BackgroundService(
        cache_dir=str(root / "cache"), jobs_dir=str(root / "jobs")
    ) as svc:
        yield svc


@pytest.fixture
def jobs_client(jobs_service):
    with ServiceClient(port=jobs_service.port) as c:
        yield c


class TestJobsHttp:
    """The jobs API over real sockets, via the blocking client."""

    def test_submit_poll_stream_matches_campaign_run(
        self, jobs_client, tiny_platform
    ):
        spec = _spec(tiny_platform, name="http-golden")
        doc = jobs_client.submit_campaign(spec, client="alice")
        assert doc["name"] == "http-golden"
        assert doc["client"] == "alice"
        final = jobs_client.wait_job(doc["id"], timeout=60)
        assert final["state"] == "done"
        streamed = list(jobs_client.iter_results(doc["id"]))
        assert streamed == run_campaign(spec).records

    def test_bare_spec_body_defaults_client(
        self, jobs_client, tiny_platform
    ):
        doc = jobs_client.submit_campaign(
            _spec(tiny_platform, name="bare")
        )
        assert doc["client"] == "anonymous"

    def test_listing_and_client_filter(self, jobs_client, tiny_platform):
        spec = _spec(tiny_platform, name="listed", seed=77)
        doc = jobs_client.submit_campaign(spec, client="lister")
        jobs_client.wait_job(doc["id"], timeout=60)
        all_ids = [j["id"] for j in jobs_client.jobs()]
        assert doc["id"] in all_ids
        mine = jobs_client.jobs(client="lister")
        assert [j["id"] for j in mine] == [doc["id"]]
        assert jobs_client.jobs(client="nobody") == []

    def test_results_paging_over_http(self, jobs_client, tiny_platform):
        spec = _six_kind_spec(tiny_platform, name="paged", seed=78)
        doc = jobs_client.submit_campaign(spec, client="pager")
        jobs_client.wait_job(doc["id"], timeout=60)
        full = list(jobs_client.iter_results(doc["id"]))
        page = jobs_client.job_results(doc["id"], offset=2, limit=2)
        assert page["records"] == full[2:4]
        assert page["next_offset"] == 4
        assert page["total"] == 6
        paged = list(jobs_client.iter_results(doc["id"], limit=1))
        assert paged == full

    def test_cancel_is_idempotent(self, jobs_client, tiny_platform):
        spec = _six_kind_spec(
            tiny_platform, name="doomed",
            n_patterns=20, n_runs=25, seed=79,
        )
        doc = jobs_client.submit_campaign(spec, client="canceller")
        first = jobs_client.cancel_job(doc["id"])
        assert first["state"] in TERMINAL_STATES
        again = jobs_client.cancel_job(doc["id"])
        assert again["state"] == first["state"]
        # A cancelled job's stream ends without its missing tail.
        records = list(jobs_client.iter_results(doc["id"]))
        assert len(records) <= 6

    def test_stats_exposes_jobs_section(self, jobs_client):
        stats = jobs_client.stats()
        jobs = stats["jobs"]
        assert jobs["config"]["jobs_dir"]
        assert jobs["config"]["max_inflight"] >= 1
        assert "submitted" in jobs["counters"]
        assert isinstance(jobs["fair_share"], dict)

    def test_error_statuses(self, jobs_client, tiny_platform):
        with pytest.raises(ServiceError) as exc:
            jobs_client.job("j" + "0" * 12)
        assert exc.value.status == 404
        with pytest.raises(ServiceError) as exc:
            jobs_client.submit_campaign(
                {"name": "x", "scenario": "no-such-scenario"}
            )
        assert exc.value.status == 400
        assert "unknown scenario" in str(exc.value)
        spec = _spec(tiny_platform, name="errors", seed=80)
        doc = jobs_client.submit_campaign(spec, client="errs")
        jobs_client.wait_job(doc["id"], timeout=60)
        with pytest.raises(ServiceError) as exc:
            jobs_client.job_results(doc["id"], offset=99)
        assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            jobs_client.job_results(doc["id"], limit=0)
        assert exc.value.status == 400

    def test_http_restart_resumes_jobs_dir(
        self, tmp_path, tiny_platform
    ):
        """Bounce the whole daemon stack; the job must still complete.

        The stop can land before, during or after the job -- every
        outcome must converge to ``done`` with campaign-identical
        records after the restart (the deterministic mid-job case is
        pinned down in ``TestRestartResume``).
        """
        cache_dir = str(tmp_path / "cache")
        jobs_dir = str(tmp_path / "jobs")
        spec = _six_kind_spec(
            tiny_platform, name="bounced", n_patterns=20, n_runs=25,
        )
        with BackgroundService(
            cache_dir=cache_dir, jobs_dir=jobs_dir, job_inflight=1
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                job_id = client.submit_campaign(spec, "alice")["id"]
        with BackgroundService(
            cache_dir=cache_dir, jobs_dir=jobs_dir
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                final = client.wait_job(job_id, timeout=120)
                assert final["state"] == "done"
                assert final["client"] == "alice"
                records = list(client.iter_results(job_id))
        assert records == run_campaign(spec).records
