"""Engine dispatch: route each simulation request to the fastest tier.

Three Monte-Carlo engine tiers implement the paper's simulator
semantics, ordered fastest first:

1. **fast-pd** (:mod:`repro.simulation.fast_pd`): one NumPy pass per
   retry round, but only for the single-segment, single-chunk ``PD``
   shape with error-free resilience operations
   (``fail_stop_in_operations=False``);
2. **fast** (:mod:`repro.simulation.packed_engine`): a packed batch of
   one job, advancing all instances together in NumPy passes, for
   arbitrary pattern shapes and both fail-stop settings;
3. **step** (:mod:`repro.simulation.engine`): one Python step per
   operation per instance -- covers everything, including per-operation
   execution traces.

A fourth tier, **analytic** (:mod:`repro.core.batch`), answers the same
questions *without sampling*: it evaluates the model's exact recursion
and closed forms (vectorised over whole parameter grids) instead of
running Monte-Carlo instances.  It is never auto-selected -- expectation
values and sampled runs are different deliverables -- but it is a
first-class ``engine=`` request everywhere the campaign and experiment
layers accept one.

A fifth choice, **packed**, is an execution *strategy* rather than new
semantics: the same engine as ``fast``, built to run many heterogeneous
points in one struct-of-arrays mega-batch, with per-point results
bit-identical to a batch of one.  At this single-point level both run
the same batch of one and differ only in the tier label records carry;
``packed`` is explicit-only (``engine="packed"``), and the campaign
executor auto-packs the points that request ``auto``.

:func:`select_engine` picks the fastest tier whose semantics cover a
request; :func:`run_stats` executes the request on that tier and returns
per-run :class:`~repro.simulation.stats.SimulationStats` -- the shape
every downstream consumer (runners, campaigns, experiments) aggregates.
The Monte-Carlo tiers are statistically equivalent (asserted by
``tests/test_engine_equivalence.py``) but not bit-identical, so results
carry the tier that produced them and the campaign cache key includes
:data:`~repro.simulation.model.SEMANTICS_VERSION` (and, for analytic
rows, :data:`~repro.core.batch.ANALYTIC_VERSION`).
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from repro.core.pattern import Pattern
from repro.errors.rng import RandomStreams, SeedLike
from repro.platforms.platform import Platform
from repro.simulation.stats import SimulationStats
from repro.simulation.trace import TraceRecorder

#: Accepted values for the ``engine`` request parameter.
ENGINE_CHOICES = ("auto", "fast-pd", "fast", "step", "analytic", "packed")


class EngineTier(enum.Enum):
    """The engine tiers: Monte-Carlo fastest first, then the model tier."""

    FAST_PD = "fast-pd"
    FAST_GENERAL = "fast"
    STEP = "step"
    ANALYTIC = "analytic"
    #: Packed execution strategy: fast-tier semantics, draw-identical
    #: results, built to batch many heterogeneous points in one call
    #: (:mod:`repro.simulation.packed_engine`).  Explicit-only at this
    #: level; the campaign planner auto-packs multi-point campaigns.
    PACKED = "packed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


def _is_pd_shape(pattern: Pattern) -> bool:
    """True for the single-segment, single-chunk base pattern shape."""
    return pattern.n == 1 and pattern.total_chunks == 1


def covers(
    tier: EngineTier,
    pattern: Pattern,
    *,
    fail_stop_in_operations: bool = True,
    trace: Optional[TraceRecorder] = None,
) -> bool:
    """Whether a tier's semantics cover a simulation request."""
    if tier is EngineTier.STEP:
        return True
    if trace is not None:
        return False  # only the step engine emits per-operation traces
    if tier is EngineTier.FAST_PD:
        return _is_pd_shape(pattern) and not fail_stop_in_operations
    # FAST_GENERAL and PACKED cover any shape and both fail-stop
    # settings; ANALYTIC answers any traceless request with model
    # expectations.
    return True


def select_engine(
    pattern: Pattern,
    *,
    fail_stop_in_operations: bool = True,
    trace: Optional[TraceRecorder] = None,
    engine: str = "auto",
) -> EngineTier:
    """Pick the fastest tier covering the request.

    ``engine`` forces a specific tier (``"fast-pd"``, ``"fast"``,
    ``"step"`` or ``"analytic"``); forcing a tier that cannot cover the
    request raises.  ``"auto"`` walks the *Monte-Carlo* tiers
    fastest-first -- the analytic tier is explicit-only, because model
    expectations and sampled runs are different deliverables.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(
            f"engine must be one of {ENGINE_CHOICES}, got {engine!r}"
        )
    if engine != "auto":
        tier = EngineTier(engine)
        if not covers(
            tier,
            pattern,
            fail_stop_in_operations=fail_stop_in_operations,
            trace=trace,
        ):
            raise ValueError(
                f"engine {engine!r} does not cover this request "
                f"(pattern n={pattern.n}, chunks={pattern.total_chunks}, "
                f"fail_stop_in_operations={fail_stop_in_operations}, "
                f"trace={'yes' if trace is not None else 'no'})"
            )
        return tier
    for tier in (EngineTier.FAST_PD, EngineTier.FAST_GENERAL):
        if covers(
            tier,
            pattern,
            fail_stop_in_operations=fail_stop_in_operations,
            trace=trace,
        ):
            return tier
    return EngineTier.STEP


@dataclass(frozen=True)
class DispatchedRuns:
    """Per-run statistics plus the tier that produced them."""

    runs: List[SimulationStats]
    tier: EngineTier


def _config_entropy(
    pattern: Pattern, platform: Platform, fail_stop_in_operations: bool
) -> int:
    """Stable 64-bit fingerprint of a simulation configuration.

    Mixed into the vectorised tiers' seed derivation so that different
    configurations sharing one campaign seed get *independent* random
    streams.  Without this, instance ``i`` of every configuration would
    consume the same batch draw ``i``, making the cells of a sweep
    almost perfectly rank-correlated (one unlucky realisation then shows
    e.g. zero errors across an entire figure).  The step engine
    decorrelates naturally through its per-operation draw consumption.
    """
    return _config_entropy_cached(
        pattern,
        platform.lambda_f,
        platform.lambda_s,
        platform.C_D,
        platform.C_M,
        platform.R_D,
        platform.R_M,
        platform.V_star,
        platform.V,
        platform.r,
        bool(fail_stop_in_operations),
    )


@lru_cache(maxsize=4096)
def _config_entropy_cached(pattern: Pattern, *values: object) -> int:
    """SHA-256 of ``repr((W, alpha, betas, *values))``, first 8 bytes.

    The ``alpha, betas`` text, most of the bytes, comes from the
    per-shape :func:`_shape_repr`, so a configuration new to this memo
    (a fresh error rate) formats only its scalars.
    """
    blob = ", ".join(
        (
            repr(pattern.W),
            _shape_repr(pattern.alpha, pattern.betas),
            *map(repr, values),
        )
    )
    digest = hashlib.sha256(f"({blob})".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@lru_cache(maxsize=1024)
def _shape_repr(
    alpha: Tuple[float, ...], betas: Tuple[Tuple[float, ...], ...]
) -> str:
    """``repr(alpha) + ", " + repr(betas)``: the shape's fingerprint text."""
    return f"{alpha!r}, {betas!r}"


def _tier_rng(
    seed: SeedLike,
    pattern: Pattern,
    platform: Platform,
    fail_stop_in_operations: bool,
) -> np.random.Generator:
    """Derive the batch generator for a vectorised tier.

    Deterministic per (seed, configuration); an explicit ``Generator`` is
    consumed as-is (the caller controls the stream).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        return np.random.default_rng()
    entropy = _config_entropy(pattern, platform, fail_stop_in_operations)
    if isinstance(seed, np.random.SeedSequence):
        mixed = np.random.SeedSequence(
            entropy=seed.entropy, spawn_key=(*seed.spawn_key, entropy)
        )
        return np.random.Generator(np.random.PCG64(mixed))
    if isinstance(seed, (list, tuple)):
        return np.random.default_rng([*map(int, seed), entropy])
    return np.random.default_rng([int(seed), entropy])


def tier_rng(
    seed: SeedLike,
    pattern: Pattern,
    platform: Platform,
    fail_stop_in_operations: bool,
) -> np.random.Generator:
    """Public alias of the vectorised tiers' per-point seed derivation.

    This is the grouping-invariant RNG contract of the packed engine: a
    point's generator is one ``SeedSequence`` child keyed by the campaign
    seed *and* the point's configuration fingerprint, so its draws are
    the same whether it runs solo on the fast tier or inside any packed
    batch.  The campaign planner uses this to build
    :class:`~repro.simulation.packed_engine.PackedJob` streams that are
    bit-identical to what :func:`run_stats` would consume.

    The fingerprint hashes ``repr((W, alpha, betas, lambda_f, lambda_s,
    C_D, C_M, R_D, R_M, V_star, V, r, fail_stop_in_operations))``.  It
    is memoised per configuration, and the ``alpha, betas`` text per
    shape, so a point with a new error rate formats only its scalars;
    the bytes are the full ``repr``'s either way.
    """
    return _tier_rng(seed, pattern, platform, fail_stop_in_operations)


def run_stats(
    pattern: Pattern,
    platform: Platform,
    *,
    n_patterns: int,
    n_runs: int,
    seed: SeedLike = None,
    fail_stop_in_operations: bool = True,
    engine: str = "auto",
    trace: Optional[TraceRecorder] = None,
) -> DispatchedRuns:
    """Simulate ``n_runs`` x ``n_patterns`` on the dispatched tier.

    Seeding is reproducible per tier: the step tier spawns one stream per
    run exactly like the historical sequential runner; the vectorised
    tiers consume one generator for the whole batch, derived from the
    seed *and* a configuration fingerprint (see :func:`_tier_rng`) so
    sweep cells sharing a campaign seed stay statistically independent.
    Results across tiers agree statistically, not bit-for-bit.
    """
    if n_patterns <= 0:
        raise ValueError(f"n_patterns must be positive, got {n_patterns}")
    if n_runs <= 0:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    tier = select_engine(
        pattern,
        fail_stop_in_operations=fail_stop_in_operations,
        trace=trace,
        engine=engine,
    )

    if tier is EngineTier.ANALYTIC:
        raise ValueError(
            "the analytic tier computes model expectations, not sampled "
            "runs: use repro.core.batch (batch_optimal_patterns / "
            "evaluate_analytic), an experiment's engine='analytic' path, "
            "or campaign points with engine='analytic'"
        )

    if tier in (EngineTier.FAST_GENERAL, EngineTier.PACKED):
        from repro.simulation.packed_engine import (
            PackedJob,
            simulate_packed_batch,
        )

        rng = _tier_rng(seed, pattern, platform, fail_stop_in_operations)
        (batch,) = simulate_packed_batch(
            [
                PackedJob(
                    pattern,
                    platform,
                    n_runs * n_patterns,
                    rng,
                    fail_stop_in_operations=fail_stop_in_operations,
                )
            ]
        )
        return DispatchedRuns(runs=batch.to_stats(n_runs), tier=tier)

    if tier is EngineTier.FAST_PD:
        from repro.simulation.fast_pd import simulate_pd_batch

        rng = _tier_rng(seed, pattern, platform, fail_stop_in_operations)
        batch = simulate_pd_batch(
            pattern.W, platform, n_runs * n_patterns, rng
        )
        return DispatchedRuns(
            runs=batch.to_stats(n_runs, W=pattern.W), tier=tier
        )

    from repro.simulation.engine import PatternSimulator

    simulator = PatternSimulator(
        pattern,
        platform,
        fail_stop_in_operations=fail_stop_in_operations,
        trace=trace,
    )
    streams = RandomStreams(seed)
    runs = [simulator.run(n_patterns, streams.next()) for _ in range(n_runs)]
    return DispatchedRuns(runs=runs, tier=tier)
