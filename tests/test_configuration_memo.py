"""The process-wide configuration memo (``ScenarioPoint.configuration``).

The Table-1 optimum depends on the pattern family and the platform
alone, so every entry path shares one bounded memo of it.  These tests
pin what that may and may not change: how often the optimiser runs
(once per configuration per process), which points share an entry
(only those naming the same family and platform values), and that the
records never depend on the memo's state -- cold, warm, overflowed or
raced by threads.  The same holds for the per-shape memos a new
configuration is built from (Table-1 terms, op schedule template, RNG
fingerprint text), whose bounds and sizes at the bound are pinned too.
"""

import copy
import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import pytest

import repro.core.formulas as formulas
from golden_util import cold_sweep_points, load_cold_sweep_golden
from repro.campaign.executor import evaluate_point, evaluate_points
from repro.campaign.spec import ScenarioPoint, _configuration, platform_to_dict
from repro.core.builders import PATTERN_ORDER, PatternKind, build_pattern
from repro.platforms.catalog import get_platform
from repro.service.protocol import ProtocolError, point_from_request
from repro.simulation import dispatch, packed_engine

MEMO_SIZE = 4096
PLATFORMS = ("hera", "atlas", "coastal")
KINDS = [kind.value for kind in PATTERN_ORDER][:5]

#: The per-shape memos a cold configuration is built from, with the
#: bound each holds and the tracemalloc size it may reach there when
#: filled with the perfbench campaign's largest shape (PDMV, 6 segments
#: of 17 chunks): 8.5, 9.1, 2.9, 1.5 and 4.1 MiB measured on CPython
#: 3.11 with NumPy 2.4.
SHAPE_MEMOS = {
    "unit_pattern": (formulas._unit_pattern, 4096, 12),
    "schedule_template": (packed_engine._schedule_template, 512, 12),
    "schedule_arrays": (packed_engine._schedule_arrays_cached, 512, 4),
    "config_entropy": (dispatch._config_entropy_cached, 4096, 2),
    "shape_repr": (dispatch._shape_repr, 1024, 6),
}


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


def _clear_memos():
    _configuration.cache_clear()
    for memo, _, _ in SHAPE_MEMOS.values():
        memo.cache_clear()


@pytest.fixture
def cold_memo():
    _clear_memos()
    yield _configuration
    _clear_memos()


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
        assert batched == _fresh_process_records(points)
        assert batched[2]["platform_name"] == "Hera-twin"


def _fresh_process_records(points):
    """``evaluate_point`` of each point in a new interpreter."""
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
    return json.loads(fresh.stdout)


def _overflow_shape_memos():
    """Push every shape memo past its bound with unrelated entries."""
    hera = get_platform("hera")
    pd = build_pattern(PatternKind.PD, 1.0)
    for i in range(SHAPE_MEMOS["unit_pattern"][1] + 8):
        formulas._unit_pattern(PatternKind.PD, 1, 1, 0.5 + 1e-7 * i)
    for i in range(SHAPE_MEMOS["schedule_template"][1] + 8):
        packed_engine.schedule_arrays(
            pd.rescaled(1.0 + i), hera.with_costs(C_D=1.0 + i)
        )
    for i in range(SHAPE_MEMOS["config_entropy"][1] + 8):
        dispatch._config_entropy(pd.rescaled(1.0 + i), hera, True)
    for i in range(SHAPE_MEMOS["shape_repr"][1] + 8):
        dispatch._shape_repr((float(i),), ((1.0,),))
    for name, (memo, bound, _) in SHAPE_MEMOS.items():
        assert memo.cache_info().currsize == bound, name


class TestShapeMemos:
    """A cold configuration's records do not depend on the shape memos."""

    def test_records_equal_cold_warm_overflowed_and_fresh(self, cold_memo):
        points = cold_sweep_points()
        golden = load_cold_sweep_golden()

        def records():
            return json.loads(json.dumps(evaluate_points(points)))

        cold = records()
        for name, (memo, _, _) in SHAPE_MEMOS.items():
            assert memo.cache_info().currsize > 0, name
        cold_memo.cache_clear()  # new configurations, warm shapes
        shapes_warm = records()
        all_warm = records()
        _overflow_shape_memos()
        cold_memo.cache_clear()
        overflowed = records()
        assert cold == golden
        assert shapes_warm == golden
        assert all_warm == golden
        assert overflowed == golden
        assert _fresh_process_records(points[::9]) == golden[::9]

    @pytest.mark.parametrize("name", sorted(SHAPE_MEMOS))
    def test_size_at_the_bound(self, cold_memo, name):
        memo, bound, budget_mib = SHAPE_MEMOS[name]
        hera = get_platform("hera")
        big = build_pattern(PatternKind.PDMV, 1.0, n=6, m=17, r=hera.r)

        def pdmv_shape(r):
            shape = build_pattern(PatternKind.PDMV, 1.0, n=6, m=17, r=r)
            return shape.alpha, shape.betas

        fill = {
            "unit_pattern": lambda i: formulas._unit_pattern(
                PatternKind.PDMV, 1 + i % 8, 1 + (i // 8) % 24,
                0.5 + 1e-6 * i,
            ),
            "schedule_template": lambda i: packed_engine._schedule_template(
                big.alpha, big.betas, hera.V, hera.V_star, hera.r,
                hera.C_M, hera.C_D + i,
            ),
            "schedule_arrays": lambda i: packed_engine.schedule_arrays(
                big.rescaled(1e3 + i), hera
            ),
            "config_entropy": lambda i: dispatch._config_entropy(
                big.rescaled(1e3 + i), hera, True
            ),
            "shape_repr": lambda i: dispatch._shape_repr(
                *pdmv_shape(0.5 + 1e-6 * i)
            ),
        }[name]

        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(bound):
                fill(i)
            gc.collect()
            size = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert memo.cache_info().currsize == bound
        assert size <= budget_mib * 2**20, f"{name}: {size / 2**20:.1f} MiB"


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
