"""The process-wide configuration memo (``ScenarioPoint.configuration``).

The Table-1 optimum depends on the pattern family and the platform
alone, so every entry path shares one bounded memo of it.  These tests
pin what that may and may not change: how often the optimiser runs
(once per configuration per process), which points share an entry
(only those naming the same family and platform values), and that the
records never depend on the memo's state -- cold, warm, overflowed or
raced by threads.
"""

import copy
import json
import os
import subprocess
import sys
import threading

import pytest

import repro.core.formulas as formulas
from repro.campaign.executor import evaluate_point, evaluate_points
from repro.campaign.spec import ScenarioPoint, _configuration, platform_to_dict
from repro.core.builders import PATTERN_ORDER
from repro.platforms.catalog import get_platform
from repro.service.protocol import ProtocolError, point_from_request

MEMO_SIZE = 4096
PLATFORMS = ("hera", "atlas", "coastal")
KINDS = [kind.value for kind in PATTERN_ORDER][:5]


def _simulate(kind, pdict, seed, **extra):
    return ScenarioPoint(
        mode="simulate", kind=kind, platform=pdict,
        n_patterns=3, n_runs=2, seed=seed, **extra,
    )


def _fifteen_pairs(seeds):
    """Every (family, catalog platform) pair, once per seed."""
    return [
        _simulate(kind, platform_to_dict(get_platform(name)), seed)
        for seed in seeds
        for name in PLATFORMS
        for kind in KINDS
    ]


@pytest.fixture
def cold_memo():
    _configuration.cache_clear()
    yield _configuration
    _configuration.cache_clear()


@pytest.fixture
def optimiser_calls(monkeypatch):
    """Counts :func:`optimal_pattern` calls made through the module."""
    calls = []
    original = formulas.optimal_pattern

    def counting(kind, platform):
        calls.append((kind, platform))
        return original(kind, platform)

    monkeypatch.setattr(formulas, "optimal_pattern", counting)
    return calls


def _variants():
    """Points that differ from a base point in exactly one input."""
    base = platform_to_dict(get_platform("hera"))
    changes = {
        "name": ("name", "Hera-twin"),
        "nodes": ("nodes", 512),
        "lambda_f": ("lambda_f", base["lambda_f"] * 2),
        "lambda_s": ("lambda_s", base["lambda_s"] * 2),
    }
    out = {"base": ("PDMV", base)}
    for label, (field, value) in changes.items():
        pdict = copy.deepcopy(base)
        pdict[field] = value
        out[label] = ("PDMV", pdict)
    for field in base["costs"]:
        pdict = copy.deepcopy(base)
        pdict["costs"][field] = 0.9 if field == "r" else (
            base["costs"][field] * 2
        )
        out[f"costs.{field}"] = ("PDMV", pdict)
    out["kind"] = ("PDM", base)
    return out


class TestOncePerProcess:
    def test_two_batches_optimise_each_configuration_once(
        self, cold_memo, optimiser_calls
    ):
        first = evaluate_points(_fifteen_pairs(seeds=(1, 2)))
        second = evaluate_points(_fifteen_pairs(seeds=(3, 4)))
        assert len(first) == len(second) == 30
        assert len(optimiser_calls) == 15
        assert cold_memo.cache_info().currsize == 15

    def test_optimize_points_share_the_memo(
        self, cold_memo, optimiser_calls
    ):
        pdict = platform_to_dict(get_platform("hera"))
        sim = _simulate("PDMV", pdict, seed=5)
        opt = ScenarioPoint(mode="optimize", kind="PDMV", platform=pdict)
        records = evaluate_points([sim, opt, opt])
        assert len(optimiser_calls) == 1
        assert records[1]["n*"] == records[0]["n*"]
        assert records[1]["W_star"] == records[0]["W_star"]


class TestDistinctEntries:
    def test_single_field_variants_get_their_own_entry(self, cold_memo):
        configs = {
            label: _simulate(kind, pdict, seed=3).configuration()
            for label, (kind, pdict) in _variants().items()
        }
        assert len({id(c) for c in configs.values()}) == len(configs)
        assert cold_memo.cache_info().currsize == len(configs)
        assert configs["name"].platform.name == "Hera-twin"
        assert configs["nodes"].platform.nodes == 512
        # An equal platform dict built separately shares the entry.
        base_kind, base = _variants()["base"]
        again = _simulate(base_kind, copy.deepcopy(base), seed=9)
        assert again.configuration() is configs["base"]

    def test_variant_records_match_a_fresh_process(self, cold_memo):
        points = []
        for kind, pdict in _variants().values():
            points.append(_simulate(kind, pdict, seed=3))
            points.append(
                ScenarioPoint(mode="optimize", kind=kind, platform=pdict)
            )
        # Warm the memo with every variant first, then batch them.
        for point in points:
            point.configuration().optimal
        batched = json.loads(json.dumps(evaluate_points(points)))
        script = (
            "import json, sys\n"
            "from repro.campaign.executor import evaluate_point\n"
            "from repro.campaign.spec import ScenarioPoint\n"
            "docs = json.load(sys.stdin)\n"
            "points = [ScenarioPoint.from_dict(d) for d in docs]\n"
            "print(json.dumps([evaluate_point(p) for p in points]))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps([p.to_dict() for p in points]),
            capture_output=True, text=True, env=env, check=True,
        )
        assert batched == json.loads(fresh.stdout)
        assert batched[2]["platform_name"] == "Hera-twin"


class TestBoundAndThreads:
    def test_overflowing_the_bound_keeps_records(self, cold_memo):
        sample = _fifteen_pairs(seeds=(7,))
        before = evaluate_points(sample)
        entry = sample[0].configuration()
        base = platform_to_dict(get_platform("hera"))
        for i in range(MEMO_SIZE + 8):
            ScenarioPoint(
                mode="optimize", kind="PD",
                platform={**base, "nodes": 10_000 + i},
            ).configuration()
        assert cold_memo.cache_info().currsize == MEMO_SIZE
        assert sample[0].configuration() is not entry  # evicted, rebuilt
        assert evaluate_points(sample) == before
        assert [evaluate_point(p) for p in sample] == before

    def test_threads_over_overlapping_configurations(self, cold_memo):
        """Four threads race the cold memo (more threads than cores)."""
        batches = [_fifteen_pairs(seeds=(s, s + 1)) for s in range(4)]
        results = [None] * len(batches)
        start = threading.Barrier(len(batches), timeout=30)

        def work(i):
            start.wait()
            results[i] = evaluate_points(batches[i])

        threads = [
            threading.Thread(target=work, args=(i,))
            for i in range(len(batches))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        cold_memo.cache_clear()
        assert results == [evaluate_points(batch) for batch in batches]
        assert cold_memo.cache_info().currsize == 15


class TestProtocolValidation:
    def test_bad_platform_is_a_protocol_error_and_not_memoised(
        self, cold_memo
    ):
        bad = platform_to_dict(get_platform("hera"))
        bad["lambda_f"] = -1.0
        body = {"kind": "PDMV", "platform": bad}
        for _ in range(2):
            with pytest.raises(ProtocolError, match="invalid scenario point"):
                point_from_request(body)
        assert cold_memo.cache_info().currsize == 0
        del bad["costs"]["V"]
        with pytest.raises(ProtocolError, match="invalid scenario point"):
            point_from_request(body)
        bad["costs"]["V"] = [0.1]  # unhashable
        with pytest.raises(ProtocolError, match="invalid scenario point"):
            point_from_request(body)
        assert cold_memo.cache_info().currsize == 0

    def test_validation_warms_the_memo_without_optimising(
        self, cold_memo, optimiser_calls
    ):
        point = point_from_request({"kind": "PDMV", "platform": "hera"})
        assert cold_memo.cache_info().currsize == 1
        assert optimiser_calls == []
        evaluate_points([point])
        assert len(optimiser_calls) == 1
        assert cold_memo.cache_info().hits >= 1

    def test_zero_rate_platform_still_validates(self, cold_memo):
        """The optimum is computed at evaluation, not at validation."""
        pdict = platform_to_dict(get_platform("hera"))
        pdict["lambda_f"] = pdict["lambda_s"] = 0.0
        point = point_from_request({"kind": "PD", "platform": pdict})
        with pytest.raises(ValueError, match="zero error rates"):
            evaluate_point(point)
