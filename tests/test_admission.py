"""Admission control: token buckets, 429/503 semantics, determinism.

Unit layer: :class:`TokenBucket` and :class:`AdmissionController` are
deterministic in explicit ``now`` timestamps, so a saved bursty trace
admits and rejects the exact same requests on every replay.  HTTP
layer: a rate-limited daemon answers ``429`` with ``Retry-After`` (the
client honours it), sheds past the queue bound with ``503``, and
surfaces per-client counters under ``"admission"`` in ``/v1/stats``.
"""

import http.client
import json
import math
import threading
import time

import pytest

from repro.campaign.executor import evaluate_point
from repro.loadgen.replay import WorkloadReplayer
from repro.loadgen.traces import PointMix, TraceEvent, make_trace
from repro.service.admission import (
    ANONYMOUS_CLIENT,
    AdmissionConfig,
    AdmissionController,
    TokenBucket,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import point_from_request
from repro.campaign.planner import point_rows
from repro.service.server import BackgroundService


def _simulate_request(**overrides):
    base = dict(
        mode="simulate",
        kind="PDMV",
        platform="hera",
        n_patterns=2,
        n_runs=2,  # 4 Monte-Carlo rows
        seed=20160601,
    )
    base.update(overrides)
    return base


def _bursty_rows_trace(seed=5):
    """A saved-trace view of admission input: (t, rows) pairs."""
    events = make_trace(
        "bursty",
        rate=80.0,
        duration_s=1.0,
        seed=seed,
        mix=PointMix(analytic_fraction=0.25, duplicate_fraction=0.25),
    )
    return [
        (e.t, point_rows(point_from_request(e.point))) for e in events
    ]


class TestTokenBucket:
    def test_starts_full_then_refills_continuously(self):
        bucket = TokenBucket(10.0, 20)
        assert bucket.take(20, now=0.0) is None  # full burst up front
        assert bucket.take(1, now=0.0) == pytest.approx(0.1)
        assert bucket.take(5, now=1.0) is None  # 10 rows refilled
        assert bucket.tokens == pytest.approx(5.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(10.0, 8)
        assert bucket.take(8, now=0.0) is None
        assert bucket.take(8, now=1000.0) is None  # not 10008 tokens
        assert bucket.take(1, now=1000.0) == pytest.approx(0.1)

    def test_oversized_request_waits_forever(self):
        bucket = TokenBucket(10.0, 8)
        assert math.isinf(bucket.take(9, now=0.0))
        # ...and the failed probe charged nothing.
        assert bucket.take(8, now=0.0) is None

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(10.0, 10)
        assert bucket.take(10, now=100.0) is None
        assert bucket.take(1, now=50.0) == pytest.approx(0.1)
        # A stale now neither refills nor rewinds: one second after the
        # newest timestamp the bucket holds exactly rate * 1s.
        assert bucket.take(10, now=101.0) is None

    def test_deterministic_under_saved_bursty_trace(self):
        """Same (now, rows) trace -> the exact same decision sequence."""
        trace = _bursty_rows_trace()
        assert len(trace) > 20  # the burst shape produced real traffic

        def drive(bucket):
            return [bucket.take(rows, now=t) for t, rows in trace]

        first = drive(TokenBucket(12.0, 24))
        second = drive(TokenBucket(12.0, 24))
        assert first == second
        assert any(w is None for w in first)  # some admitted
        assert any(w is not None for w in first)  # some rejected


class TestAdmissionController:
    def _controller(self, rate=4.0, burst=8, queue=0):
        return AdmissionController(
            AdmissionConfig(
                rate_rows_per_s=rate, burst_rows=burst, queue_rows=queue
            )
        )

    def test_per_client_buckets_are_isolated(self):
        ctrl = self._controller()
        assert ctrl.admit("alice", 8, now=0.0).admitted
        rejected = ctrl.admit("alice", 8, now=0.0)
        assert rejected.status == 429
        assert rejected.retry_after_s == pytest.approx(2.0)
        # Bob's bucket is untouched by Alice's burn.
        assert ctrl.admit("bob", 8, now=0.0).admitted

    def test_empty_client_maps_to_anonymous(self):
        ctrl = self._controller()
        assert ctrl.admit("", 8, now=0.0).admitted
        assert ctrl.admit(ANONYMOUS_CLIENT, 8, now=0.0).status == 429

    def test_oversized_request_gets_split_advice(self):
        ctrl = self._controller(burst=8)
        decision = ctrl.admit("alice", 9, now=0.0)
        assert decision.status == 429
        assert decision.retry_after_s is None  # waiting can never help
        assert "split the batch" in decision.error

    def test_queue_bound_sheds_before_charging_tokens(self):
        ctrl = self._controller(rate=1000.0, burst=10**6, queue=6)
        held = ctrl.admit("alice", 4, now=0.0)
        assert held.admitted and ctrl.outstanding_rows == 4
        shed = ctrl.admit("alice", 4, now=0.0)
        assert shed.status == 503
        assert "queue full" in shed.error
        ctrl.release(held)
        assert ctrl.outstanding_rows == 0
        # The shed request burned no tokens: the full burst is intact.
        assert ctrl.admit("alice", 6, now=0.0).admitted

    def test_release_is_a_noop_for_rejections(self):
        ctrl = self._controller(queue=4)
        rejected = ctrl.admit("alice", 99, now=0.0)
        assert not rejected.admitted
        ctrl.release(rejected)
        assert ctrl.outstanding_rows == 0

    def test_waiting_out_retry_after_admits(self):
        ctrl = self._controller(rate=4.0, burst=8)
        assert ctrl.admit("alice", 8, now=0.0).admitted
        wait = ctrl.admit("alice", 4, now=0.0).retry_after_s
        assert wait == pytest.approx(1.0)
        assert ctrl.admit("alice", 4, now=wait).admitted

    def test_deterministic_under_saved_bursty_trace(self):
        trace = _bursty_rows_trace(seed=6)

        def drive():
            ctrl = self._controller(rate=12.0, burst=24, queue=48)
            decisions = []
            for t, rows in trace:
                d = ctrl.admit("replayed", rows, now=t)
                decisions.append((d.admitted, d.status, d.retry_after_s))
                ctrl.release(d)  # instant service: queue never binds
            return decisions, ctrl.stats()

        first, first_stats = drive()
        second, second_stats = drive()
        assert first == second
        assert first_stats == second_stats
        assert first_stats["counters"]["admitted"] > 0
        assert first_stats["counters"]["rejected_429"] > 0

    def test_stats_shape(self):
        ctrl = self._controller(queue=100)
        a = ctrl.admit("alice", 8, now=0.0)
        ctrl.admit("alice", 8, now=0.0)  # 429
        stats = ctrl.stats()
        assert stats["config"]["rate_rows_per_s"] == 4.0
        assert stats["outstanding_rows"] == 8
        assert stats["peak_outstanding_rows"] == 8
        assert stats["counters"] == {
            "admitted": 1, "rejected_429": 1, "shed_503": 0,
        }
        assert stats["clients"]["alice"] == {
            "admitted": 1,
            "rejected_429": 1,
            "shed_503": 0,
            "rows_admitted": 8,
        }
        ctrl.release(a)
        assert ctrl.stats()["outstanding_rows"] == 0
        assert ctrl.stats()["peak_outstanding_rows"] == 8

    def test_config_validation(self):
        with pytest.raises(ValueError, match="rate_rows_per_s"):
            AdmissionConfig(rate_rows_per_s=0.0, burst_rows=1)
        with pytest.raises(ValueError, match="burst_rows"):
            AdmissionConfig(rate_rows_per_s=1.0, burst_rows=0)
        with pytest.raises(ValueError, match="queue_rows"):
            AdmissionConfig(
                rate_rows_per_s=1.0, burst_rows=1, queue_rows=-1
            )


@pytest.fixture(scope="class")
def limited_service(tmp_path_factory):
    """A daemon whose front door admits 4 rows/s, 4-row bursts."""
    cache_dir = str(tmp_path_factory.mktemp("admission-cache"))
    with BackgroundService(
        cache_dir=cache_dir,
        batch_window_ms=0,
        rate_rows_per_s=4.0,
        burst_rows=4,
    ) as svc:
        yield svc


class TestAdmissionHttp:
    """429/503 and Retry-After over real sockets.

    Each test uses its own client name: buckets are per-client, so
    tests cannot starve each other.
    """

    def _raw_evaluate(self, service, client_name, **overrides):
        conn = http.client.HTTPConnection(
            "127.0.0.1", service.port, timeout=30
        )
        try:
            conn.request(
                "POST",
                "/v1/evaluate",
                body=json.dumps(_simulate_request(**overrides)).encode(),
                headers={"X-Repro-Client": client_name},
            )
            response = conn.getresponse()
            return (
                response.status,
                json.loads(response.read()),
                response.getheader("Retry-After"),
            )
        finally:
            conn.close()

    def test_429_carries_retry_after_header_and_body(
        self, limited_service
    ):
        status, doc, retry = self._raw_evaluate(limited_service, "ha")
        assert status == 200 and retry is None
        status, doc, retry = self._raw_evaluate(limited_service, "ha")
        assert status == 429
        assert "rate-limited" in doc["error"]
        # Exact float in the body, whole-second ceiling in the header.
        assert 0.0 < doc["retry_after_s"] <= 1.0
        assert retry is not None and int(retry) >= 1
        assert int(retry) >= doc["retry_after_s"]

    def test_client_honours_retry_after(self, limited_service):
        with ServiceClient(
            port=limited_service.port, client_name="hb", retry_429=2
        ) as client:
            request = _simulate_request(seed=41000)
            first = client.evaluate_one(request)
            t0 = time.monotonic()
            second = client.evaluate_one(dict(request, seed=41001))
            waited = time.monotonic() - t0
        assert "error" not in first and "error" not in second
        counters = limited_service.admission.stats()["clients"]["hb"]
        assert counters["admitted"] == 2
        assert counters["rejected_429"] >= 1
        assert waited > 0.05  # it really slept on Retry-After

    def test_exhausted_retry_budget_surfaces_429(self, limited_service):
        with ServiceClient(
            port=limited_service.port, client_name="hc", retry_429=0
        ) as client:
            assert client.evaluate_one(_simulate_request(seed=42000))
            with pytest.raises(ServiceError) as excinfo:
                client.evaluate_one(_simulate_request(seed=42001))
        assert excinfo.value.status == 429
        assert excinfo.value.retry_after is not None
        assert excinfo.value.retry_after > 0

    def test_burst_exceeding_request_told_to_split(self, limited_service):
        with ServiceClient(
            port=limited_service.port, client_name="hd"
        ) as client:
            with pytest.raises(ServiceError, match="split the batch"):
                # 3 x 2 = 6 rows > the 4-row burst capacity.
                client.evaluate_one(
                    _simulate_request(n_patterns=3, seed=43000)
                )

    def test_stats_expose_admission_over_http(self, limited_service):
        with ServiceClient(port=limited_service.port) as client:
            stats = client.stats()
        admission = stats["admission"]
        assert admission["config"] == {
            "rate_rows_per_s": 4.0,
            "burst_rows": 4,
            "queue_rows": 0,
        }
        assert admission["counters"]["admitted"] >= 1
        assert admission["counters"]["rejected_429"] >= 1
        assert "ha" in admission["clients"]

    def test_queue_full_sheds_503(self, tmp_path):
        """Past the queue bound requests shed with 503, never queue."""
        with BackgroundService(
            cache_dir=str(tmp_path / "cache"),
            batch_window_ms=400.0,  # holds admitted rows outstanding
            rate_rows_per_s=10000.0,
            burst_rows=100000,
            queue_rows=6,
        ) as svc:
            results = {}

            def hold():
                with ServiceClient(
                    port=svc.port, client_name="holder"
                ) as c:
                    results["first"] = c.evaluate_one(
                        _simulate_request(seed=44000)
                    )

            holder = threading.Thread(target=hold)
            holder.start()
            deadline = time.monotonic() + 10.0
            while (
                svc.admission.outstanding_rows == 0
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert svc.admission.outstanding_rows == 4
            with ServiceClient(
                port=svc.port, client_name="shed", retry_429=0
            ) as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.evaluate_one(_simulate_request(seed=44001))
            assert excinfo.value.status == 503
            assert "queue full" in str(excinfo.value)
            holder.join(timeout=30.0)
            assert "error" not in results["first"]
            # A single request bigger than the whole bound sheds too.
            with ServiceClient(
                port=svc.port, client_name="shed", retry_429=0
            ) as c:
                with pytest.raises(ServiceError) as excinfo:
                    c.evaluate(
                        [
                            _simulate_request(seed=44002),
                            _simulate_request(seed=44003),
                        ]
                    )
            assert excinfo.value.status == 503
            stats = svc.admission.stats()
            assert stats["counters"]["shed_503"] == 2
            assert stats["outstanding_rows"] == 0

    def test_replayer_round_trip_counts_rejections(self, tmp_path):
        """WorkloadReplayer surfaces 429s in its SLO report."""
        with BackgroundService(
            cache_dir=str(tmp_path / "cache"),
            batch_window_ms=0,
            rate_rows_per_s=0.5,  # refill is negligible mid-replay
            burst_rows=8,
        ) as svc:
            events = [
                TraceEvent(0.001 * i, _simulate_request(seed=45000 + i))
                for i in range(6)
            ]
            replayer = WorkloadReplayer(
                port=svc.port, client_name="replay", retry_429=0
            )
            result = replayer.run(events)
            report = result.report()
        # 8-row burst admits exactly two 4-row requests; the rest 429.
        assert report["n_rejected_429"] == 4
        assert report["n_shed_503"] == 0
        assert report["n_errors"] == 4
        admitted = [r for r in result.requests if r.ok]
        assert len(admitted) == 2
        for record in admitted:
            solo = evaluate_point(
                point_from_request(events[record.index].point)
            )
            assert record.records == [solo]
            assert record.status == 200
        rejected = [r for r in result.requests if not r.ok]
        assert all(r.status == 429 for r in rejected)
