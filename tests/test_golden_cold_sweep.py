"""Golden regression test for a cold error-rate sweep.

Every point of the sweep is a configuration no other point shares, so
each one builds its Table-1 optimum, op schedule and RNG fingerprint
without help from the per-configuration memo.  The records must match
the fixture byte for byte: a change to how cold configurations are
built may make them cheaper, never different.

Regenerate deliberately with ``python tests/golden/regenerate.py
cold`` after an intended semantics change.
"""

from __future__ import annotations

import json

from golden_util import (
    cold_sweep_points,
    compute_cold_sweep_golden,
    load_cold_sweep_golden,
)
from repro.core.builders import PatternKind

GOLDEN = load_cold_sweep_golden()


def test_records_match_fixture_byte_for_byte():
    computed = compute_cold_sweep_golden()
    assert len(computed) == len(GOLDEN)
    for i, (got, want) in enumerate(zip(computed, GOLDEN)):
        assert json.dumps(got, sort_keys=True) == json.dumps(
            want, sort_keys=True
        ), f"record {i}"


def test_fixture_covers_the_cold_path():
    points = cold_sweep_points()
    assert {p.kind for p in points} == {k.value for k in PatternKind}
    assert {p.engine for p in points} == {"auto", "fast", "packed"}
    assert {p.fail_stop_in_operations for p in points} == {True, False}
    configs = [(p.kind, json.dumps(p.platform, sort_keys=True))
               for p in points]
    assert len(set(configs)) == len(points)
    assert {rec["engine"] for rec in GOLDEN} == {
        "fast-pd", "fast", "packed"
    }
