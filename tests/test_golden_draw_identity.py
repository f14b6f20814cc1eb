"""Golden regression test of the fast tier's draw identity.

Each case of ``tests/golden/draw_identity_golden.json`` stores, for one
solo batch of the fast tier, ``n``, the sums and a SHA-256 of the bytes
of every per-instance array (the times and the ten counters).  The
packed engine's draw-identity tests compare against these digests, so
any packing of a case must reproduce the solo batch bit for bit.

Regenerate deliberately with ``python tests/golden/regenerate.py
draws`` after an intended semantics change.
"""

from __future__ import annotations

from golden_util import (
    compute_draw_identity_golden,
    draw_identity_cases,
    load_draw_identity_golden,
)

GOLDEN = load_draw_identity_golden()


def test_solo_batches_match_fixture():
    computed = compute_draw_identity_golden()
    assert sorted(computed) == sorted(GOLDEN)
    for name, want in GOLDEN.items():
        got = computed[name]
        assert got["n"] == want["n"], name
        assert got["times"]["sum"] == want["times"]["sum"], name
        for counter, digest in want["counters"].items():
            assert got["counters"][counter]["sum"] == digest["sum"], (
                name, counter
            )
        assert got == want, name


def test_fixture_covers_every_group_and_setting():
    cases = draw_identity_cases()
    assert sorted(cases) == sorted(GOLDEN)
    assert {name.split("/")[0] for name in cases} == {
        "solo", "mixed", "stressed"
    }
    assert {fs for *_, fs in cases.values()} == {True, False}
    for name, entry in GOLDEN.items():
        assert len(entry["counters"]) == 10, name
        assert entry["n"] == cases[name][2], name
    # The stressed group strikes disk recoveries, so their retry rounds
    # are pinned too.
    stressed = [e for n, e in GOLDEN.items() if n.startswith("stressed/")]
    fail_stops = sum(e["counters"]["fail_stop_errors"]["sum"]
                     for e in stressed)
    disk = sum(e["counters"]["disk_recoveries"]["sum"] for e in stressed)
    assert fail_stops > disk
