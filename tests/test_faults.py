"""Fault injection, crash recovery, graceful degradation and drain.

The robustness layer's load-bearing assertions:

* a chaos-injected worker kill mid-batch leaves the fleet's records
  **bit-identical** to solo runs (``tier_rng`` placement invariance
  covers pool rebuilds, not just worker counts) -- across 2 AND 4
  procs;
* a poisonous point is cornered by bisection and quarantined into a
  per-point error record while every innocent neighbour answers;
* the scheduler circuit-breaks to in-process evaluation when the fleet
  is truly gone, so no request fails on a fleet outage;
* SIGTERM drains: in-flight work answers, journals flush, the port
  file disappears;
* the client rides through restarts (connect backoff), dropped
  connections (idempotent replay) and stragglers (hedged requests).
"""

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time

import pytest

from repro.campaign.executor import evaluate_point, evaluate_points
from repro.cli import main
from repro.service.client import ServiceClient, ServiceError
from repro.campaign.pool import (
    EvalFleet,
    FleetUnavailableError,
    PoisonPointError,
)
from repro.service.faults import (
    FaultInjector,
    FaultPlan,
    InjectedFault,
    wrap_evaluate,
)
from repro.service.protocol import point_from_request
from repro.service.scheduler import MicroBatchScheduler
from repro.service.server import BackgroundService, _write_port_file


def _points(n=6, seed0=41000, **overrides):
    kinds = ["PD", "PDV", "PDM", "PDMV", "PDV*", "PDMV*"]
    points = []
    for i in range(n):
        base = dict(
            mode="simulate",
            kind=kinds[i % len(kinds)],
            platform="hera",
            n_patterns=2,
            n_runs=2,
            seed=seed0 + i,
        )
        base.update(overrides)
        points.append(point_from_request(base))
    return points


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _run(coro):
    return asyncio.run(coro)


# -- plan parsing -------------------------------------------------------------
class TestFaultPlan:
    def test_parse_compact_grammar(self):
        plan = FaultPlan.parse(
            "kill@2,raise@3,delay@4:0.25,drop@1,poison@666,crash-prewarm"
        )
        assert plan.kill_batches == {2}
        assert plan.raise_evals == {3}
        assert plan.delay_evals == {4: 0.25}
        assert plan.drop_requests == {1}
        assert plan.poison_seeds == {666}
        assert plan.crash_prewarm
        assert plan.enabled

    def test_parse_json_form(self):
        plan = FaultPlan.parse(
            '{"kill": [1, 2], "delay": {"3": 0.1}, "poison": [7]}'
        )
        assert plan.kill_batches == {1, 2}
        assert plan.delay_evals == {3: 0.1}
        assert plan.poison_seeds == {7}
        assert not plan.crash_prewarm

    def test_describe_round_trips(self):
        spec = "kill@2,raise@3,delay@4:0.25,drop@1,poison@666"
        assert FaultPlan.parse(FaultPlan.parse(spec).describe()) == (
            FaultPlan.parse(spec)
        )

    def test_empty_and_env(self, monkeypatch):
        assert not FaultPlan.parse("").enabled
        assert not FaultPlan.from_env({}).enabled
        monkeypatch.setenv("REPRO_FAULTS", "kill@1")
        assert FaultPlan.from_env().kill_batches == {1}

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus@1",          # unknown directive
            "kill",             # missing @ARG
            "kill@0",           # ordinals are 1-based
            "delay@2",          # missing :SECONDS
            "delay@2:-1",       # negative delay
            "kill@x",           # non-integer ordinal
            '{"frobnicate": [1]}',  # unknown JSON key
            "{not json",        # malformed JSON
        ],
    )
    def test_invalid_specs(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestFaultInjector:
    def test_ordinals_and_counters(self):
        injector = FaultInjector(
            FaultPlan.parse("kill@2,raise@1,delay@2:0.0,drop@3")
        )
        assert injector.eval_call().raise_now
        assert not injector.eval_call().raise_now  # ordinal 2, delay 0
        assert not injector.fleet_batch().kill
        assert injector.fleet_batch().kill
        assert [injector.drop_request() for _ in range(3)] == [
            False, False, True
        ]
        stats = injector.stats()
        assert stats["counters"]["raises_injected"] == 1
        assert stats["counters"]["kills_injected"] == 1
        assert stats["counters"]["drops_injected"] == 1
        assert stats["counters"]["delays_injected"] == 0  # 0s != a delay
        assert stats["ordinals"] == {
            "eval_calls": 2, "fleet_batches": 2, "requests": 3
        }

    def test_wrap_evaluate(self):
        injector = FaultInjector(FaultPlan.parse("raise@2,delay@1:0.01"))
        calls = []

        def evaluate(points):
            calls.append(points)
            return ["record"]

        wrapped = wrap_evaluate(evaluate, injector)
        assert not hasattr(wrapped, "__self__")  # stats discovery safe
        assert wrapped(["p"]) == ["record"]
        with pytest.raises(InjectedFault):
            wrapped(["p"])
        assert len(calls) == 1
        counters = injector.stats()["counters"]
        assert counters["delays_injected"] == 1
        assert counters["raises_injected"] == 1


class TestFaultScheduleParity:
    @pytest.mark.parametrize("eval_procs", [0, 2])
    def test_raise_and_delay_fire_at_the_same_ordinals(self, eval_procs):
        """One raise/delay path: in-process and pooled daemons fire the
        schedule at the same evaluation calls with the same outcome."""
        points = _points(3, seed0=46000)
        with BackgroundService(
            batch_window_ms=0,
            eval_procs=eval_procs,
            faults="raise@2,delay@1:0.01",
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                # One single-point request per batch: batch N is
                # evaluation call N.
                results = [client.evaluate([p]) for p in points]
                faults = client.stats()["faults"]
        assert [r.n_failed for r in results] == [0, 1, 0]
        assert [r.records[0] for r in results] == [
            evaluate_point(points[0]),
            {"error": "injected evaluation failure (eval call 2)"},
            evaluate_point(points[2]),
        ]
        assert faults["plan"] == "raise@2,delay@1:0.01"
        assert faults["counters"] == {
            "kills_injected": 0,
            "raises_injected": 1,
            "delays_injected": 1,
            "drops_injected": 0,
        }
        assert faults["ordinals"]["eval_calls"] == 3


# -- fleet crash recovery ----------------------------------------------------
class TestFleetCrashRecovery:
    @pytest.mark.parametrize("procs", [2, 4])
    def test_kill_mid_batch_bit_identity(self, procs):
        """Satellite: killed worker -> records identical to solo runs."""
        points = _points(6, seed0=42000)
        solo = [evaluate_point(p) for p in points]
        injector = FaultInjector(FaultPlan.parse("kill@1"))
        with EvalFleet(procs, pack_rows=4, injector=injector) as fleet:
            assert fleet.evaluate(points) == solo
            # Second batch: recovery must be durable, not one-shot.
            assert fleet.evaluate(points) == solo
            counters = fleet.stats()["counters"]
        assert injector.stats()["counters"]["kills_injected"] == 1
        # The SIGKILL lands either mid-batch (futures break) or between
        # batches (submit breaks); both end in >= 1 pool rebuild.
        assert counters["pool_rebuilds"] >= 1
        assert counters["bucket_retries"] >= 0

    def test_poison_point_convicted_and_quarantined(self):
        """A repeatedly-crashing single point is quarantined fast."""
        poison = _points(1, seed0=666)[0]
        innocents = _points(2, seed0=43000)
        injector = FaultInjector(FaultPlan.parse("poison@666"))
        with EvalFleet(
            2, pack_rows=4, bucket_retries=0, injector=injector
        ) as fleet:
            with pytest.raises(PoisonPointError, match="quarantined"):
                fleet.evaluate([poison])
            # Quarantine check now refuses it before touching the pool.
            with pytest.raises(PoisonPointError):
                fleet.evaluate([poison])
            # Innocents still answer, bit-identically.
            assert fleet.evaluate(innocents) == [
                evaluate_point(p) for p in innocents
            ]
            stats = fleet.stats()
        assert stats["counters"]["quarantined_points"] == 1
        assert stats["quarantine_size"] == 1
        assert stats["counters"]["pool_rebuilds"] >= 1
        assert not stats["broken"]

    def test_bisection_corners_poison_in_shared_bucket(self):
        """Innocents sharing a bucket with the poison still answer."""
        poison = _points(1, seed0=666)[0]
        innocents = _points(3, seed0=44000)
        batch = [innocents[0], poison, *innocents[1:]]
        injector = FaultInjector(FaultPlan.parse("poison@666"))
        # Big pack_rows -> multi-point buckets -> bisection must run.
        with EvalFleet(
            2, pack_rows=10**6, bucket_retries=0, injector=injector
        ) as fleet:
            with pytest.raises(PoisonPointError):
                fleet.evaluate(batch)
            counters = fleet.stats()["counters"]
            assert counters["bisections"] >= 1
            assert counters["quarantined_points"] == 1
            # The innocents are not collateral damage.
            assert fleet.evaluate(innocents) == [
                evaluate_point(p) for p in innocents
            ]

    def test_crash_prewarm_fails_fast_with_clear_message(self):
        """Satellite: a worker dying in warm-up names the problem."""
        injector = FaultInjector(FaultPlan.parse("crash-prewarm"))
        with pytest.raises(FleetUnavailableError, match="warm-up"):
            EvalFleet(2, injector=injector)

    def test_serve_cli_fails_fast_on_prewarm_crash(self):
        with pytest.raises(SystemExit, match="serve startup failed"):
            main(
                ["serve", "--port", "0", "--eval-procs", "1",
                 "--faults", "crash-prewarm"]
            )


# -- scheduler circuit breaker -----------------------------------------------
class FailingFleetEvaluate:
    """Stands in for a fleet whose pool can never be rebuilt."""

    def __init__(self):
        self.calls = 0

    def __call__(self, points):
        self.calls += 1
        raise FleetUnavailableError("fleet worker pool is gone")


class TestCircuitBreaker:
    def test_fallback_answers_and_breaker_opens(self):
        failing = FailingFleetEvaluate()

        async def scenario():
            scheduler = MicroBatchScheduler(
                None,
                batch_window_ms=0,
                evaluate=failing,
                fallback_evaluate=evaluate_points,
                fleet_failure_threshold=2,
            )
            await scheduler.start()
            try:
                records = []
                for point in _points(3, seed0=45000):
                    _, recs, n_failed = await scheduler.submit_settled(
                        [point]
                    )
                    assert n_failed == 0
                    records.extend(recs)
                return records, scheduler.stats()
            finally:
                await scheduler.close()

        records, stats = _run(scenario())
        assert records == [
            evaluate_point(p) for p in _points(3, seed0=45000)
        ]
        counters = stats["counters"]
        assert counters["fleet_failures"] == 2
        assert counters["circuit_breaker_trips"] == 1
        assert counters["fallback_batches"] == 3
        assert stats["degraded"] is True
        # Once open, the fleet is no longer consulted.
        assert failing.calls == 2

    def test_no_fallback_keeps_existing_isolation_path(self):
        failing = FailingFleetEvaluate()

        async def scenario():
            scheduler = MicroBatchScheduler(
                None, batch_window_ms=0, evaluate=failing
            )
            await scheduler.start()
            try:
                return await scheduler.submit_settled(
                    _points(1, seed0=45100)
                )
            finally:
                await scheduler.close()

        _, records, n_failed = _run(scenario())
        assert n_failed == 1
        assert "error" in records[0]


# -- graceful drain -----------------------------------------------------------
class TestDrain:
    def test_close_flush_answers_queued_points(self):
        """close(flush=True) evaluates the queue instead of failing it."""

        async def scenario():
            scheduler = MicroBatchScheduler(
                None, batch_window_ms=60_000
            )
            await scheduler.start()
            points = _points(2, seed0=46000)
            tasks = [
                asyncio.ensure_future(scheduler.submit_settled([p]))
                for p in points
            ]
            await asyncio.sleep(0.05)  # let both enqueue, window open
            await scheduler.close(flush=True)
            answers = [await t for t in tasks]
            with pytest.raises(RuntimeError):
                await scheduler.resolve(points)  # no longer accepting
            return points, answers

        points, answers = _run(scenario())
        for point, (_, records, n_failed) in zip(points, answers):
            assert n_failed == 0
            assert records == [evaluate_point(point)]

    def test_readiness_splits_from_liveness(self):
        with BackgroundService(batch_window_ms=0) as svc:
            with ServiceClient(port=svc.port) as client:
                health = client.health()
                assert health["ready"] is True
                svc.server.draining = True
                try:
                    # Liveness: still 200.
                    assert client.health()["ready"] is False
                    # Readiness: 503.
                    with pytest.raises(ServiceError) as err:
                        client._request(
                            "GET", "/v1/health?check=ready"
                        )
                    assert err.value.status == 503
                    # New work refused while draining.
                    with pytest.raises(ServiceError) as err:
                        client.evaluate(_points(1, seed0=47000))
                    assert err.value.status == 503
                finally:
                    svc.server.draining = False

    def test_sigterm_drains_and_removes_port_file(self, tmp_path):
        """``repro serve`` + SIGTERM: clean exit, no stale port file."""
        root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"),
                          env.get("PYTHONPATH", "")])
        )
        port_file = tmp_path / "port"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", str(port_file),
             "--drain-grace-s", "5"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if port_file.exists() and port_file.read_text().strip():
                    break
                time.sleep(0.1)
            else:
                pytest.fail("daemon never published its port")
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            assert not port_file.exists()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_stale_port_file_overwritten_with_warning(
        self, tmp_path, capsys
    ):
        path = tmp_path / "port"
        path.write_text("9999\n")  # abnormal-exit leftover
        _write_port_file(str(path), 1234)
        assert path.read_text().strip() == "1234"
        assert "stale port file" in capsys.readouterr().err


# -- client resilience --------------------------------------------------------
class TestClientResilience:
    def test_connect_backoff_exhausts_and_counts(self):
        client = ServiceClient(
            port=_free_port(),
            connect_retries=2,
            backoff_base_s=0.01,
            timeout=2.0,
        )
        t0 = time.monotonic()
        with pytest.raises(ServiceError, match="cannot reach"):
            client.health()
        assert time.monotonic() - t0 >= 0.02  # 0.01 + 0.02 backoff
        assert client.counters["connect_retries"] == 2

    def test_dropped_connection_absorbed_by_idempotent_replay(self):
        """drop@2: the daemon hangs up, the client re-sends, no error."""
        with BackgroundService(
            batch_window_ms=0, faults="drop@2"
        ) as svc:
            points = _points(2, seed0=48000)
            with ServiceClient(port=svc.port) as client:
                first = client.evaluate([points[0]])   # request 1: ok
                second = client.evaluate([points[1]])  # 2 dropped -> 3
            assert first.records == [evaluate_point(points[0])]
            assert second.records == [evaluate_point(points[1])]
            faults = svc.server.injector.stats()
            assert faults["counters"]["drops_injected"] == 1
            assert faults["ordinals"]["requests"] == 3

    def test_hedged_request_fires_and_answers_correctly(self):
        with BackgroundService(batch_window_ms=0) as svc:
            point = _points(1, seed0=49000)[0]
            with ServiceClient(port=svc.port) as client:
                result = client.evaluate([point], hedge_after_s=0.0)
            assert result.records == [evaluate_point(point)]
            assert client.counters["hedges_fired"] >= 1

    def test_hedge_not_fired_when_primary_errors_first(self):
        client = ServiceClient(
            port=_free_port(), connect_retries=0, timeout=2.0
        )
        with pytest.raises(ServiceError):
            client.evaluate(
                _points(1, seed0=49100), hedge_after_s=5.0
            )
        assert client.counters["hedges_fired"] == 0


# -- end to end: chaos through the whole daemon -------------------------------
class TestChaosEndToEnd:
    def test_worker_kill_invisible_to_http_clients(self):
        """kill@1 over HTTP: correct answers, >= 1 rebuild, no degrade."""
        with BackgroundService(
            batch_window_ms=0, eval_procs=2, faults="kill@1"
        ) as svc:
            points = _points(4, seed0=50000)
            with ServiceClient(port=svc.port) as client:
                result = client.evaluate(points)
                again = client.evaluate(_points(4, seed0=50100))
                stats = client.stats()
            assert result.n_failed == 0
            assert again.n_failed == 0
            assert result.records == [
                evaluate_point(p) for p in points
            ]
        assert stats["evaluator"]["counters"]["pool_rebuilds"] >= 1
        assert stats["degraded"] is False
        assert stats["faults"]["counters"]["kills_injected"] == 1

    def test_poison_point_becomes_per_point_error(self):
        """poison@666 over HTTP: one error record, innocents answer."""
        poison = dict(
            mode="simulate", kind="PD", platform="hera",
            n_patterns=2, n_runs=2, seed=666,
        )
        innocents = _points(3, seed0=51000)
        with BackgroundService(
            batch_window_ms=0, eval_procs=2, faults="poison@666"
        ) as svc:
            with ServiceClient(port=svc.port) as client:
                result = client.evaluate(
                    [innocents[0], poison, *innocents[1:]]
                )
            fleet_stats = svc.fleet.stats()
        assert result.n_failed == 1
        assert "quarantined" in result.records[1]["error"]
        assert [
            result.records[0], *result.records[2:]
        ] == [evaluate_point(p) for p in innocents]
        assert fleet_stats["counters"]["quarantined_points"] == 1
