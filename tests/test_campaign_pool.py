"""The resident campaign pool: one EvalFleet per process, reused by every
multi-worker ``run_campaign`` call until exit.

Every check compares records against in-process ``n_workers=1`` runs,
so reuse, growth, failure and concurrency stay invisible in results.
"""

import functools
import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro.campaign.pool as fleet_mod
from repro.campaign import executor
from repro.campaign.cache import cache_key
from repro.campaign.executor import run_campaign
from repro.campaign.pool import PoisonPointError
from repro.campaign.spec import ScenarioPoint, platform_to_dict
from repro.service.faults import FaultInjector, FaultPlan

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _points(tiny_platform, seeds=range(5), **kw):
    pdict = platform_to_dict(tiny_platform)
    kinds = ("PD", "PDV", "PDM", "PDMV")
    return [
        ScenarioPoint(
            mode="simulate",
            kind=kinds[i % len(kinds)],
            platform=pdict,
            n_patterns=3,
            n_runs=2,
            seed=seed,
            **kw,
        )
        for i, seed in enumerate(seeds)
    ]


@pytest.fixture
def forks(monkeypatch):
    """The sizes of the campaign fleets forked during the test."""
    sizes = []
    real_fleet = fleet_mod.EvalFleet

    def spy_fleet(procs, **kwargs):
        sizes.append(procs)
        return real_fleet(procs, **kwargs)

    monkeypatch.setattr("repro.campaign.pool.EvalFleet", spy_fleet)
    return sizes


def _serial(points):
    return run_campaign(points, n_workers=1).records


class TestReuse:
    def test_consecutive_campaigns_fork_once(self, tiny_platform, forks):
        for seeds in (range(0, 6), range(10, 16), range(20, 26)):
            points = _points(tiny_platform, seeds)
            assert run_campaign(points, n_workers=2).records == _serial(
                points
            )
        assert forks == [2]

    def test_grows_for_more_workers_reuses_for_fewer(
        self, tiny_platform, forks
    ):
        points = _points(tiny_platform, range(8))
        expected = _serial(points)
        for workers in (2, 3, 2):
            assert run_campaign(points, n_workers=workers).records == (
                expected
            )
        assert forks == [2, 3]

    def test_fewer_workers_than_the_pool_caps_concurrency(
        self, tiny_platform, tmp_path, monkeypatch
    ):
        """A 2-worker campaign on a resident 3-process pool runs at most
        two buckets at a time."""
        monkeypatch.setitem(globals(), "_SPANS_DIR", str(tmp_path))
        monkeypatch.setattr(
            "repro.campaign.pool._evaluate_bucket", _timed_bucket
        )
        points = _points(tiny_platform, range(200, 212))
        run_campaign(points[:3], n_workers=3)
        assert fleet_mod._pool.procs == 3
        for name in os.listdir(tmp_path):
            os.remove(tmp_path / name)
        records = run_campaign(points, n_workers=2, pack_rows=1).records
        assert records == _serial(points)
        spans = []
        for name in os.listdir(tmp_path):
            start, end = (tmp_path / name).read_text().split()
            spans.append((float(start), float(end)))
        assert len(spans) == len(points)
        running = max(
            sum(1 for s, e in spans if s <= t < e) for t, _ in spans
        )
        assert running <= 2

    def test_close_campaign_pool(self, tiny_platform):
        points = _points(tiny_platform)
        run_campaign(points, n_workers=2)
        resident = fleet_mod._pool
        fleet_mod._close_campaign_pool()
        assert fleet_mod._pool is None
        with pytest.raises(RuntimeError, match="closed"):
            resident.evaluate(points)


#: Directories the patched worker calls write to; set per test before
#: the pool forks, so every worker inherits them.
_CALLS_DIR = None
_SPANS_DIR = None


_evaluate_bucket = fleet_mod._evaluate_bucket


def _timed_bucket(point_dicts, *args):
    """Fleet worker entry that records when each bucket ran."""
    start = time.monotonic()
    time.sleep(0.05)
    records = _evaluate_bucket(point_dicts, *args)
    name = f"{os.getpid()}-{point_dicts[0].get('seed')}"
    with open(os.path.join(_SPANS_DIR, name), "w") as fh:
        fh.write(f"{start} {time.monotonic()}")
    return records


def _slow_or_raise(point_dicts, *args):
    """Fleet worker entry: the seed-0 bucket raises; every other bucket
    of a doomed campaign (seeds below 100) marks its call and sleeps,
    long enough to keep the queue full.

    Workers forked while this patch is live resolve the fleet's entry
    to it for the rest of the test, so later campaigns pass through.
    """
    seeds = [d.get("seed") for d in point_dicts]
    if 0 in seeds:
        raise RuntimeError("evaluation failed for seed 0")
    if max(seeds) < 100:
        open(os.path.join(_CALLS_DIR, str(seeds)), "w").close()
        time.sleep(0.2)
    return _evaluate_bucket(point_dicts, *args)


def _slow_clean_bucket(point_dicts, *args):
    """Fleet worker entry: buckets of seeds 300-399 take 50 ms, so a
    worker crash elsewhere finds one of them in flight."""
    if all(300 <= d.get("seed") < 400 for d in point_dicts):
        time.sleep(0.05)
    return _evaluate_bucket(point_dicts, *args)


class TestFailure:
    def test_failed_campaign_cancels_its_queued_buckets(
        self, tiny_platform, tmp_path, monkeypatch
    ):
        """One bucket per point: after the seed-0 bucket raises, the
        other buckets still queued are cancelled, not run ahead of the
        next campaign's."""
        monkeypatch.setitem(globals(), "_CALLS_DIR", str(tmp_path))
        monkeypatch.setattr(
            "repro.campaign.pool._evaluate_bucket", _slow_or_raise
        )
        doomed = _points(tiny_platform, range(24))
        with pytest.raises(RuntimeError, match="seed 0"):
            run_campaign(doomed, n_workers=2, pack_rows=1)

        points = _points(tiny_platform, range(100, 104))
        assert run_campaign(points, n_workers=2).records == _serial(points)
        # Only the buckets already running finish, at most one per
        # worker; the rest never start.
        ran = len(os.listdir(tmp_path))
        assert ran <= 2, f"{ran} of 23 stale buckets ran on 2 workers"

    def test_poison_point_then_clean_campaign(
        self, tiny_platform, forks, monkeypatch
    ):
        """A quarantining run leaves the pool usable; the poison point
        stays quarantined on it."""
        monkeypatch.setattr(
            "repro.campaign.pool.EvalFleet",
            functools.partial(
                fleet_mod.EvalFleet,  # the spy
                injector=FaultInjector(FaultPlan.parse("poison@666")),
            ),
        )
        poisoned = _points(tiny_platform, [666, 1, 2, 3])
        with pytest.raises(PoisonPointError):
            run_campaign(poisoned, n_workers=2)
        clean = _points(tiny_platform, range(30, 36))
        assert run_campaign(clean, n_workers=2).records == _serial(clean)
        # Refused up front, without crashing a worker again.
        with pytest.raises(PoisonPointError, match="is quarantined: it"):
            run_campaign(poisoned, n_workers=2)
        assert forks == [2]

    def test_keyboard_interrupt_leaves_pool_usable(
        self, tiny_platform, forks, monkeypatch
    ):
        points = _points(tiny_platform, range(8))
        real_append = executor.Journal.append

        def interrupt(self, key, record):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor.Journal, "append", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_campaign(points, n_workers=2, pack_rows=1)
        monkeypatch.setattr(executor.Journal, "append", real_append)
        assert run_campaign(points, n_workers=2).records == _serial(points)
        assert forks == [2]


def _run_threads(targets):
    """Start one thread per target at once and join them; a 10 us
    switch interval interleaves them finely."""
    threads = [threading.Thread(target=t) for t in targets]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


class TestConcurrency:
    def test_threads_get_exact_records(self, tiny_platform, forks):
        """Four threads at once on two cores -- half of them needing a
        bigger pool -- all get exact records; afterwards one pool, the
        biggest, stays resident and every other one is closed."""
        campaigns = [
            (workers, _points(tiny_platform, range(base, base + 12)))
            for workers, base in ((2, 40), (3, 60), (2, 80), (3, 100))
        ]
        expected = [_serial(points) for _, points in campaigns]
        got = [None] * len(campaigns)
        errors = []

        def run(i):
            workers, points = campaigns[i]
            try:
                for _ in range(2):
                    got[i] = run_campaign(points, n_workers=workers).records
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        _run_threads([functools.partial(run, i) for i in range(4)])
        assert not errors
        assert got == expected
        assert 3 in forks
        assert fleet_mod._pool.procs == 3
        assert len(multiprocessing.active_children()) == 3

    def test_crashes_are_blamed_on_their_own_campaign(
        self, tiny_platform, monkeypatch
    ):
        """A campaign whose point keeps killing workers runs beside a
        clean one: the clean one's records are exact and none of its
        points is quarantined."""
        fleets = []
        injector = FaultInjector(FaultPlan.parse("poison@666"))
        real_fleet = fleet_mod.EvalFleet

        def poisoned_fleet(procs, **kwargs):
            fleets.append(real_fleet(procs, injector=injector, **kwargs))
            return fleets[-1]

        monkeypatch.setattr("repro.campaign.pool.EvalFleet", poisoned_fleet)
        monkeypatch.setattr(
            "repro.campaign.pool._evaluate_bucket", _slow_clean_bucket
        )
        poisoned = _points(tiny_platform, [666, 1, 2, 3, 4, 5, 6, 7])
        clean = _points(tiny_platform, range(300, 302))
        expected = _serial(clean)
        outcome = {}
        done = threading.Event()

        def run_poisoned():
            try:
                run_campaign(poisoned, n_workers=2)
            except BaseException as exc:
                outcome["poisoned"] = exc
            finally:
                done.set()

        def run_clean():
            rounds = 0
            try:
                while not done.is_set() or rounds < 2:
                    got = run_campaign(clean, n_workers=2, pack_rows=1)
                    assert got.records == expected
                    rounds += 1
            except BaseException as exc:
                outcome["clean"] = exc

        _run_threads([run_poisoned, run_clean])
        assert isinstance(outcome.pop("poisoned", None), PoisonPointError)
        assert outcome == {}
        (poison_key,) = {
            cache_key(p) for p in poisoned if p.seed == 666
        }
        for fleet in fleets:
            assert fleet._quarantine <= {poison_key}


_TWO_CAMPAIGNS = """
import json, multiprocessing, sys
from repro.campaign.executor import run_campaign
from repro.campaign.pool import PoisonPointError
from repro.campaign.spec import CampaignSpec
for seed in (1, 2):
    spec = CampaignSpec(name="c", scenario="family_comparison",
                        params={"platform": "hera"}, n_patterns=3,
                        n_runs=2, seed=seed)
    run_campaign(spec, n_workers=2)
print(json.dumps([p.pid for p in multiprocessing.active_children()]))
"""


class TestProcessLifetime:
    def test_interpreter_exit_closes_the_pool(self):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _TWO_CAMPAIGNS],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert time.perf_counter() - t0 < 60
        workers = json.loads(proc.stdout.splitlines()[-1])
        assert len(workers) == 2
        for pid in workers:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_forked_child_builds_its_own_pool(self, tiny_platform, forks):
        points = _points(tiny_platform, range(80, 86))
        expected = _serial(points)
        assert run_campaign(points, n_workers=2).records == expected
        parent_pool = fleet_mod._pool
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: report, close its own pool, never return
            try:
                records = run_campaign(points, n_workers=2).records
                report = {
                    "forks": forks,
                    "exact": records == expected,
                    "own": fleet_mod._pool is not parent_pool,
                }
                fleet_mod._close_campaign_pool()
                os.write(write_fd, json.dumps(report).encode())
            finally:
                os._exit(0)
        os.close(write_fd)
        # A child stuck on its parent's pool (whose threads did not
        # survive the fork) would hang forever: bound the wait.
        ready, _, _ = select.select([read_fd], [], [], 120)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        with os.fdopen(read_fd) as fh:
            report = json.loads(fh.read() or "{}") if ready else {}
        os.waitpid(pid, 0)
        assert report == {"forks": [2, 2], "exact": True, "own": True}
        # The parent's pool survived the child's close.
        assert fleet_mod._pool is parent_pool
        assert run_campaign(points, n_workers=2).records == expected
        assert forks == [2]
