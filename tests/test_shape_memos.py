"""The per-shape memos against the direct computation on the real pattern.

A cold configuration (a fresh error rate) builds its Table-1 optimum,
op schedule and RNG fingerprint from memos keyed on the pattern shape
and the cost vector, computing per point only what depends on the rates
or the period ``W``.  Each property here recomputes the same quantity
the direct way and demands equality, float for float and byte for byte.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import formulas
from repro.core.builders import PatternKind, build_pattern
from repro.core.firstorder import decompose_overhead
from repro.platforms.platform import Platform, ResilienceCosts
from repro.simulation.dispatch import _config_entropy
from repro.simulation.packed_engine import schedule_arrays
from repro.simulation.model import OpSchedule
from test_prop_patterns import arbitrary_patterns

kinds = st.sampled_from(list(PatternKind))
positive = st.floats(min_value=1e-3, max_value=1e3)
rates = st.floats(min_value=1e-9, max_value=1e-3)


@st.composite
def platforms(draw):
    """Platforms with every rate and cost drawn independently."""
    C_D, C_M = draw(positive), draw(positive)
    return Platform(
        name="hyp",
        nodes=draw(st.integers(min_value=1, max_value=1 << 16)),
        lambda_f=draw(rates),
        lambda_s=draw(rates),
        costs=ResilienceCosts(
            C_D=C_D,
            C_M=C_M,
            R_D=draw(positive),
            R_M=draw(positive),
            V_star=draw(positive),
            V=draw(positive),
            r=draw(st.floats(min_value=0.05, max_value=1.0)),
        ),
    )


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _direct_schedule(pattern, platform):
    """:meth:`OpSchedule.from_pattern` and its prefix sums, unmemoised."""
    sched = OpSchedule.from_pattern(pattern, platform)
    is_ver = sched.kinds == 1

    def prefix(values):
        return np.concatenate(([0.0], np.cumsum(values, dtype=np.float64)))

    return sched, {
        "P": prefix(sched.durations),
        "Pc": prefix(np.where(sched.kinds == 0, sched.durations, 0.0)),
        "n_partial_pre": prefix(is_ver & ~sched.guaranteed),
        "n_guar_pre": prefix(is_ver & sched.guaranteed),
        "n_mem_pre": prefix(sched.kinds == 2),
    }


def _check_schedule(pattern, platform):
    arrays = schedule_arrays(pattern, platform)
    sched, prefixes = _direct_schedule(pattern, platform)
    for name in vars(sched):
        _assert_same_arrays(getattr(arrays.sched, name), getattr(sched, name))
    for name, want in prefixes.items():
        _assert_same_arrays(getattr(arrays, name), want)
    assert not arrays.sched.durations.flags.writeable
    assert not arrays.P.flags.writeable


class TestScheduleTemplate:
    @given(pattern=arbitrary_patterns(), platform=platforms())
    def test_arbitrary_pattern_matches_from_pattern(self, pattern, platform):
        _check_schedule(pattern, platform)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=kinds,
        n=st.integers(min_value=1, max_value=8),
        m=st.integers(min_value=1, max_value=20),
        platform=platforms(),
        W=st.lists(
            st.floats(min_value=1.0, max_value=1e7), min_size=2, max_size=4
        ),
    )
    def test_one_shape_at_many_periods(self, kind, n, m, platform, W):
        """Periods sharing one template each get their own durations."""
        for period in W:
            pattern = build_pattern(kind, period, n=n, m=m, r=platform.r)
            _check_schedule(pattern, platform)


class TestFingerprint:
    @given(
        pattern=arbitrary_patterns(),
        platform=platforms(),
        fsio=st.booleans(),
    )
    def test_bytes_equal_the_full_repr(self, pattern, platform, fsio):
        blob = repr(
            (
                pattern.W,
                pattern.alpha,
                pattern.betas,
                platform.lambda_f,
                platform.lambda_s,
                platform.C_D,
                platform.C_M,
                platform.R_D,
                platform.R_M,
                platform.V_star,
                platform.V,
                platform.r,
                fsio,
            )
        ).encode()
        want = int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
        assert _config_entropy(pattern, platform, fsio) == want


class TestTable1Terms:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=kinds,
        n=st.integers(min_value=1, max_value=12),
        m=st.integers(min_value=1, max_value=24),
        platform=platforms(),
    )
    def test_decomposition_equals_the_loop(self, kind, n, m, platform):
        decomp, unit = formulas._evaluate_shape(kind, platform, n, m)
        pattern = build_pattern(kind, 1.0, n=n, m=m, r=platform.r)
        assert unit == pattern
        direct = decompose_overhead(
            pattern, formulas.simulation_costs(kind, platform)
        )
        assert (decomp.o_ef, decomp.o_rw) == (direct.o_ef, direct.o_rw)

    @settings(max_examples=80, deadline=None)
    @given(kind=kinds, platform=platforms())
    def test_optimum_pattern_equals_build_pattern(self, kind, platform):
        opt = formulas.optimal_pattern(kind, platform)
        built = build_pattern(
            kind, opt.W_star, n=opt.n, m=opt.m, r=platform.r
        )
        assert opt.pattern == built
        assert type(opt.pattern.W) is type(built.W)
        direct = decompose_overhead(
            built, formulas.simulation_costs(kind, platform)
        )
        assert opt.decomposition == direct
