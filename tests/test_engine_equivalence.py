"""Property-based statistical equivalence of the engine tiers.

For hypothesis-generated random patterns and platforms, the vectorised
engines must be statistically indistinguishable from the step engine:

* the packed engine's mean pattern time (a batch of one job: the fast
  tier) falls inside a z-interval around the step engine's Monte-Carlo
  estimate (both fail-stop settings);
* per-pattern error counts (fail-stop and silent strikes) agree the same
  way;
* where the exact recursion of :mod:`repro.core.exact` applies
  (``fail_stop_in_operations=False``), every tier's mean agrees with the
  closed-form expectation.

The tests are seeded/derandomised, so they are deterministic in CI; the
acceptance band is ``Z_TOL`` standard errors, wide enough that a correct
engine never trips it, narrow enough that the systematic biases the
harness is designed to catch (mis-counted recoveries, wrong detection
probability, missing rollback work) fail immediately.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.builders import pattern_pd
from repro.core.exact import exact_expected_time
from repro.core.pattern import Pattern
from repro.platforms.platform import Platform, default_costs
from repro.simulation.engine import PatternSimulator
from repro.simulation.fast_pd import simulate_pd_batch
from repro.simulation.packed_engine import PackedJob, simulate_packed_batch

#: Acceptance band in combined standard errors (see module docstring).
Z_TOL = 5.0

N_FAST = 4_000
N_STEP = 400


def _packed_batch(pattern, platform, seed, fail_stop_in_operations):
    """``N_FAST`` instances on the packed engine, one job per batch."""
    job = PackedJob(
        pattern, platform, N_FAST, np.random.default_rng(seed),
        fail_stop_in_operations=fail_stop_in_operations,
    )
    (batch,) = simulate_packed_batch([job])
    return batch


@st.composite
def fractions(draw, k):
    """k positive fractions summing to (numerically) 1."""
    weights = draw(
        st.lists(
            st.floats(0.25, 1.0, allow_nan=False),
            min_size=k,
            max_size=k,
        )
    )
    total = sum(weights)
    fracs = [w / total for w in weights]
    # Pin the last fraction so the sum is exactly 1 within Pattern's
    # tolerance regardless of rounding.
    fracs[-1] = 1.0 - sum(fracs[:-1])
    return tuple(fracs)


@st.composite
def patterns(draw):
    """Random pattern shapes: up to 3 segments of up to 4 chunks."""
    W = draw(st.floats(300.0, 2000.0))
    n = draw(st.integers(1, 3))
    alpha = draw(fractions(n))
    betas = tuple(
        draw(fractions(draw(st.integers(1, 4)))) for _ in range(n)
    )
    return Pattern(W=W, alpha=alpha, betas=betas)


@st.composite
def platforms(draw):
    """Random platforms with error rates that keep rework moderate."""
    return Platform(
        name="hyp",
        nodes=1,
        lambda_f=draw(st.floats(0.0, 4e-4)),
        lambda_s=draw(st.floats(0.0, 4e-4)),
        costs=default_costs(
            C_D=draw(st.floats(2.0, 30.0)),
            C_M=draw(st.floats(0.2, 5.0)),
            r=draw(st.floats(0.3, 0.95)),
        ),
    )


def _step_batch_times(pattern, platform, fsio, seed, n=N_STEP):
    """Per-pattern times and counters from the step engine."""
    sim = PatternSimulator(
        pattern, platform, fail_stop_in_operations=fsio
    )
    rng = np.random.default_rng(seed)
    times = np.empty(n)
    fs = np.empty(n)
    silent = np.empty(n)
    from repro.simulation.stats import SimulationStats

    for i in range(n):
        stats = SimulationStats()
        sim.run_pattern(rng, stats)
        times[i] = stats.total_time
        fs[i] = stats.fail_stop_errors
        silent[i] = stats.silent_errors
    return times, fs, silent


def _assert_z_close(a: np.ndarray, b: np.ndarray, what: str) -> None:
    """Two-sample z-test: means within Z_TOL combined standard errors."""
    sem = np.sqrt(
        a.var(ddof=1) / a.size + b.var(ddof=1) / b.size
    )
    gap = abs(float(a.mean()) - float(b.mean()))
    # The epsilon absorbs degenerate zero-variance cases (error-free
    # configurations are deterministic up to float summation order).
    eps = 1e-9 * max(1.0, abs(float(a.mean())))
    assert gap <= Z_TOL * sem + eps, (
        f"{what}: |{a.mean():.6g} - {b.mean():.6g}| = {gap:.4g} "
        f"> {Z_TOL} sem ({sem:.4g})"
    )


@pytest.mark.parametrize("fsio", [True, False])
@settings(max_examples=12, deadline=None, derandomize=True)
@given(pattern=patterns(), platform=platforms())
def test_fast_engine_matches_step_engine(pattern, platform, fsio):
    """Mean time and error counts agree across the two general engines."""
    batch = _packed_batch(pattern, platform, 101, fsio)
    times, fs, silent = _step_batch_times(pattern, platform, fsio, 202)
    _assert_z_close(batch.times, times, "mean pattern time")
    _assert_z_close(
        batch.counters["fail_stop_errors"].astype(float),
        fs,
        "fail-stop errors per pattern",
    )
    _assert_z_close(
        batch.counters["silent_errors"].astype(float),
        silent,
        "silent errors per pattern",
    )


@settings(max_examples=12, deadline=None, derandomize=True)
@given(pattern=patterns(), platform=platforms())
def test_fast_engine_matches_exact_recursion(pattern, platform):
    """Where the exact recursion applies (error-free resilience ops),
    the vectorised mean agrees with the closed-form expectation."""
    batch = _packed_batch(pattern, platform, 303, False)
    E = exact_expected_time(pattern, platform)
    sem = batch.times.std(ddof=1) / np.sqrt(batch.n)
    assert abs(batch.mean_time() - E) <= Z_TOL * sem + 1e-9 * max(1.0, E)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(
    W=st.floats(300.0, 3000.0),
    platform=platforms(),
)
def test_fast_pd_matches_fast_engine_and_exact(W, platform):
    """The PD tier agrees with the general tier and the exact recursion
    on its home turf (PD shape, error-free resilience operations)."""
    pat = pattern_pd(W)
    pd_batch = simulate_pd_batch(
        W, platform, N_FAST, np.random.default_rng(404)
    )
    gen_batch = _packed_batch(pat, platform, 505, False)
    _assert_z_close(pd_batch.times, gen_batch.times, "PD mean time")
    _assert_z_close(
        pd_batch.crashes.astype(float),
        gen_batch.counters["fail_stop_errors"].astype(float),
        "PD crashes per pattern",
    )
    _assert_z_close(
        pd_batch.detections.astype(float),
        gen_batch.counters["silent_errors"].astype(float),
        "PD detected corruptions per pattern",
    )
    E = exact_expected_time(pat, platform)
    sem = pd_batch.times.std(ddof=1) / np.sqrt(pd_batch.n)
    assert abs(pd_batch.mean_time() - E) <= Z_TOL * sem + 1e-9 * max(1.0, E)


@pytest.mark.parametrize("fsio", [True, False])
@settings(max_examples=8, deadline=None, derandomize=True)
@given(pattern=patterns(), platform=platforms())
def test_full_counter_distributions_agree(pattern, platform, fsio):
    """Every SimulationStats counter mean agrees between the tiers."""
    from repro.simulation.stats import COUNTER_FIELDS, SimulationStats

    batch = _packed_batch(pattern, platform, 606, fsio)
    sim = PatternSimulator(
        pattern, platform, fail_stop_in_operations=fsio
    )
    rng = np.random.default_rng(707)
    per_counter = {name: np.empty(N_STEP) for name in COUNTER_FIELDS}
    for i in range(N_STEP):
        stats = SimulationStats()
        sim.run_pattern(rng, stats)
        for name in COUNTER_FIELDS:
            per_counter[name][i] = getattr(stats, name)
    for name in COUNTER_FIELDS:
        _assert_z_close(
            batch.counters[name].astype(float),
            per_counter[name],
            name,
        )
