"""Closed-form optimal parameters for the six families (Table 1).

For each family, the continuous optima ``n_bar*`` and ``m_bar*`` follow the
paper's Theorems 1-4; the integer optima are picked by evaluating the
convex product ``F = o_ef * o_rw`` at the integer neighbours (the paper's
prescription: ``max(1, floor)`` or ``ceil``, whichever gives smaller F).
The optimal period is then ``W* = sqrt(o_ef/o_rw)`` and the predicted
overhead ``H* = 2 sqrt(o_ef o_rw)``.

Rather than transcribing each family's final H* expression (which are
algebraic consequences), we recompute ``(o_ef, o_rw)`` from the built
pattern with the pieces of :func:`repro.core.firstorder.decompose_overhead`
(its shape terms are memoised per shape; only the rates and costs are
applied per platform), guaranteeing internal consistency between the
closed forms, the generic decomposition and the simulator.  The
continuous-H* expressions of Table 1 are also provided
(:func:`continuous_overhead`) and tested against the integer solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache as _lru_cache
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.builders import (
    PATTERN_ORDER,
    PatternKind,
    build_pattern,
)
from repro.core.firstorder import (
    OverheadDecomposition,
    overhead_terms,
    silent_factor,
)
from repro.core.pattern import Pattern
from repro.platforms.platform import Platform


@dataclass(frozen=True)
class OptimalPattern:
    """The optimised configuration of one pattern family on one platform.

    Attributes
    ----------
    kind:
        The pattern family.
    pattern:
        The fully built :class:`Pattern` at the optimal period ``W*`` with
        the optimal integer ``n*``, ``m*`` and the optimal ``alpha``/``beta``.
    n, m:
        Optimal integer number of segments / chunks per segment.
    n_cont, m_cont:
        The continuous (relaxed) optima before integer rounding.
    decomposition:
        The ``(o_ef, o_rw)`` pair at the optimal integer shape.
    """

    kind: PatternKind
    pattern: Pattern
    n: int
    m: int
    n_cont: float
    m_cont: float
    decomposition: OverheadDecomposition

    @property
    def W_star(self) -> float:
        """Optimal pattern period (seconds of work)."""
        return self.pattern.W

    @property
    def H_star(self) -> float:
        """Predicted first-order overhead ``2 sqrt(o_ef o_rw)``."""
        return self.decomposition.optimal_overhead

    @property
    def expected_pattern_time(self) -> float:
        """First-order expected wall-clock time of one pattern."""
        return self.W_star * (1.0 + self.H_star)


#: The costs each family's continuous optimum divides by (Theorems 2-4);
#: at zero the family has no finite optimal pattern.
_DIVISOR_COSTS: Dict[PatternKind, Tuple[str, ...]] = {
    PatternKind.PDV_STAR: ("V_star",),
    PatternKind.PDV: ("V",),
    PatternKind.PDMV_STAR: ("C_M", "V_star"),
    PatternKind.PDMV: ("V",),
}


def check_costs(kind: PatternKind, platform: Any) -> None:
    """Raise ``ValueError`` if ``kind`` cannot be optimised on ``platform``.

    That is the case when a cost the family's optimum divides by is zero
    (on a :class:`~repro.core.batch.PlatformGrid`: in any cell); the
    message names the family and the cost.
    """
    for name in _DIVISOR_COSTS.get(kind, ()):
        zero = getattr(platform, name) == 0.0
        # A Platform's cost is a float: skip np.any's array dispatch.
        if zero if isinstance(zero, bool) else zero.any():
            raise ValueError(
                f"{kind.value} has no optimal pattern with {name} = 0: "
                f"its Table-1 optimum divides by {name}"
            )


# ---------------------------------------------------------------------------
# Continuous optima per family (Table 1 middle columns)
# ---------------------------------------------------------------------------

def continuous_n_star(kind: PatternKind, platform: Platform) -> float:
    """Continuous optimal number of segments ``n_bar*`` for a family.

    Families without memory checkpoints structurally have ``n = 1``.
    """
    lf, ls = platform.lambda_f, platform.lambda_s
    V, Vs, CM, CD, r = (
        platform.V,
        platform.V_star,
        platform.C_M,
        platform.C_D,
        platform.r,
    )
    if not kind.uses_memory_checkpoints:
        return 1.0
    if lf == 0.0:
        return math.inf
    if ls == 0.0:
        return 1.0
    if kind is PatternKind.PDM:
        return math.sqrt(2.0 * ls / lf * CD / (Vs + CM))
    if kind is PatternKind.PDMV_STAR:
        return math.sqrt(ls / lf * CD / CM)
    if kind is PatternKind.PDMV:
        g = (2.0 - r) / r
        denom = Vs - g * V + CM
        if denom <= 0:
            # Degenerate: partial verification so cheap/accurate it covers
            # everything; fall back to PDM-like sizing.
            denom = CM
        return math.sqrt(ls / lf * CD / denom)
    raise ValueError(f"unexpected kind {kind}")  # pragma: no cover


def continuous_m_star(kind: PatternKind, platform: Platform) -> float:
    """Continuous optimal number of chunks per segment ``m_bar*``.

    Families without intermediate verifications structurally have ``m = 1``.
    """
    lf, ls = platform.lambda_f, platform.lambda_s
    V, Vs, CM, CD, r = (
        platform.V,
        platform.V_star,
        platform.C_M,
        platform.C_D,
        platform.r,
    )
    if not kind.uses_intermediate_verifications:
        return 1.0
    if ls == 0.0:
        return 1.0
    if kind is PatternKind.PDV_STAR:
        return math.sqrt(ls / (ls + lf) * (CM + CD) / Vs)
    if kind is PatternKind.PDV:
        g = (2.0 - r) / r
        inner = ls / (ls + lf) * g * ((Vs + CM + CD) / V - g)
        return 2.0 - 2.0 / r + math.sqrt(max(inner, 0.0))
    if kind is PatternKind.PDMV_STAR:
        return math.sqrt(CM / Vs)
    if kind is PatternKind.PDMV:
        g = (2.0 - r) / r
        inner = g * ((Vs + CM) / V - g)
        return 2.0 - 2.0 / r + math.sqrt(max(inner, 0.0))
    raise ValueError(f"unexpected kind {kind}")  # pragma: no cover


def continuous_overhead(kind: PatternKind, platform: Platform) -> float:
    """Table-1 closed-form ``H*`` at the *continuous* (relaxed) optimum.

    These are the right-most column expressions of Table 1; they ignore
    integer rounding of ``n`` and ``m`` and drop ``O(lambda)`` terms, so
    they lower-bound the integer-rounded :attr:`OptimalPattern.H_star` by
    a hair.
    """
    lf, ls = platform.lambda_f, platform.lambda_s
    V, Vs, CM, CD, r = (
        platform.V,
        platform.V_star,
        platform.C_M,
        platform.C_D,
        platform.r,
    )
    g = (2.0 - r) / r
    if kind is PatternKind.PD:
        return 2.0 * math.sqrt((ls + lf / 2.0) * (Vs + CM + CD))
    if kind is PatternKind.PDV_STAR:
        return math.sqrt(2.0 * (ls + lf) * (CM + CD)) + math.sqrt(2.0 * ls * Vs)
    if kind is PatternKind.PDV:
        core = Vs - g * V + CM + CD
        return math.sqrt(2.0 * (ls + lf) * max(core, 0.0)) + math.sqrt(
            2.0 * ls * g * V
        )
    if kind is PatternKind.PDM:
        return 2.0 * math.sqrt(ls * (Vs + CM)) + math.sqrt(2.0 * lf * CD)
    if kind is PatternKind.PDMV_STAR:
        return (
            math.sqrt(2.0 * lf * CD)
            + math.sqrt(2.0 * ls * CM)
            + math.sqrt(2.0 * ls * Vs)
        )
    if kind is PatternKind.PDMV:
        core = Vs - g * V + CM
        return (
            math.sqrt(2.0 * lf * CD)
            + math.sqrt(2.0 * ls * max(core, 0.0))
            + math.sqrt(2.0 * ls * g * V)
        )
    raise ValueError(f"unexpected kind {kind}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Integer optimisation
# ---------------------------------------------------------------------------

def _integer_candidates(x: float, window: int = 1) -> List[int]:
    """Integer neighbours of a continuous optimum, clipped at 1.

    ``F`` is convex in each variable, so floor/ceil suffice; we include a
    one-wide window for numerical robustness.
    """
    if math.isinf(x):
        raise ValueError("continuous optimum is infinite; cannot round")
    lo = max(1, math.floor(x) - (window - 1))
    hi = max(1, math.ceil(x) + (window - 1))
    return list(range(lo, hi + 1))


def _conditional_n_star(
    kind: PatternKind, platform: Platform, m: int
) -> float:
    """Exact continuous minimiser of ``F(n)`` for a *fixed* integer ``m``.

    For two-level families, ``F(n) = (n a + C_D)(f ls / n + lf / 2)`` with
    ``a`` the per-segment error-free cost and ``f`` the segment
    re-execution factor; the minimiser is ``sqrt(2 C_D f ls / (a lf))``.
    This matters because Theorem 4's ``n_bar*`` (Eq. 27) assumes the
    *continuous* ``m_bar*``: after ``m`` is rounded to an integer, the
    conditional optimum can shift by more than one, and rounding Eq. 27
    alone could return a shape worse than plain ``PD``.
    """
    if not kind.uses_memory_checkpoints:
        return 1.0
    from repro.core.matrices import optimal_quadratic_value

    if kind is PatternKind.PDMV_STAR:
        V_eff, r_eff = platform.V_star, 1.0
    else:
        V_eff, r_eff = platform.V, platform.r
    f = optimal_quadratic_value(m, r_eff)
    a = (m - 1) * V_eff + platform.V_star + platform.C_M
    lf, ls = platform.lambda_f, platform.lambda_s
    if ls == 0.0 or platform.C_D == 0.0:
        return 1.0
    if lf == 0.0:
        return math.inf
    return math.sqrt(2.0 * platform.C_D * f * ls / (a * lf))


#: Families whose intermediate verifications are guaranteed (cost ``V*``,
#: recall 1): they are optimised and simulated on that cost view.
_STARRED = (PatternKind.PDV_STAR, PatternKind.PDMV_STAR)


@_lru_cache(maxsize=4096)
def _unit_pattern(
    kind: PatternKind, n: int, m: int, r: float
) -> Tuple[Pattern, int, float]:
    """Memoised shape of the integer search and its rate-free terms.

    Returns the validated pattern at a placeholder period (1.0), its
    partial-verification count and its
    :func:`~repro.core.firstorder.silent_factor` (at recall 1 for the
    starred families).  None of them depends on the error rates or on
    ``W``, and the optimiser probes the same ``(kind, n, m, r)`` shapes
    for every point of a sweep.  ``Pattern`` is frozen, so the shared
    instance is safe.
    """
    pat = build_pattern(kind, 1.0, n=n, m=m, r=r)
    r_eff = 1.0 if kind in _STARRED else r
    return pat, pat.num_partial_verifications, silent_factor(pat, r_eff)


def _evaluate_shape(
    kind: PatternKind, platform: Platform, n: int, m: int
) -> Tuple[OverheadDecomposition, Pattern]:
    """Decompose the family pattern with shape ``(n, m)`` on ``platform``.

    The returned pattern has a placeholder period (1.0); only the shape
    matters for ``(o_ef, o_rw)``.  Starred families pay ``V*`` for their
    intermediate verifications, exactly as :func:`decompose_overhead`
    does on the :func:`simulation_costs` view.
    """
    pat, n_partial, silent = _unit_pattern(kind, n, m, platform.r)
    V = platform.V_star if kind in _STARRED else platform.V
    return overhead_terms(n_partial, pat.n, silent, platform, V), pat


def optimal_pattern(
    kind: PatternKind, platform: Platform
) -> OptimalPattern:
    """Fully optimise one family on one platform (Table-1 realisation).

    Steps: continuous ``n_bar*, m_bar*`` -> integer neighbour search on the
    convex product ``F = o_ef * o_rw`` -> optimal period ``W* =
    sqrt(o_ef/o_rw)`` -> final :class:`Pattern` built at ``W*``.
    """
    if platform.lambda_total == 0.0:
        raise ValueError(
            "platform has zero error rates; no finite optimal pattern exists"
        )
    check_costs(kind, platform)
    n_cont = continuous_n_star(kind, platform)
    m_cont = continuous_m_star(kind, platform)
    if math.isinf(n_cont):
        # lambda_f == 0: disk checkpoints are never needed; the paper's
        # model still requires one per pattern, so the optimum degenerates.
        # Cap the search at a large-but-finite value.
        n_cont = 1024.0

    # Candidate chunk counts: around the joint continuous optimum, plus
    # m = 1 (which makes the family degenerate to its verification-free
    # parent and guarantees we never do worse than it).
    m_candidates = set(_integer_candidates(m_cont, window=2))
    m_candidates.add(1)

    best: Optional[
        Tuple[float, int, int, OverheadDecomposition, Pattern]
    ] = None
    for m in sorted(m_candidates):
        n_bar = _conditional_n_star(kind, platform, m)
        if math.isinf(n_bar):
            n_bar = 1024.0
        for n in _integer_candidates(n_bar):
            decomp, unit = _evaluate_shape(kind, platform, n, m)
            F = decomp.o_ef * decomp.o_rw
            if best is None or F < best[0] - 1e-18:
                best = (F, n, m, decomp, unit)
    assert best is not None
    _, n_star, m_star, decomp, unit = best

    W_star = decomp.optimal_period
    if math.isinf(W_star):
        raise ValueError(
            "optimal period is infinite (o_rw == 0); check error rates"
        )
    # The unit pattern's chunk vectors are build_pattern's at any period.
    pattern = unit.rescaled(W_star)
    return OptimalPattern(
        kind=kind,
        pattern=pattern,
        n=n_star,
        m=m_star,
        n_cont=n_cont,
        m_cont=m_cont,
        decomposition=decomp,
    )


def optimize_all_patterns(
    platform: Platform, kinds: Optional[Iterable[PatternKind]] = None
) -> Dict[PatternKind, OptimalPattern]:
    """Optimise every family (or a subset) on a platform, in Table-1 order."""
    selected = tuple(kinds) if kinds is not None else PATTERN_ORDER
    return {kind: optimal_pattern(kind, platform) for kind in selected}


def simulation_costs(kind: PatternKind, platform: Platform) -> Platform:
    """Platform view with the verification costs the family actually pays.

    Starred families run *guaranteed* verifications between chunks: the
    simulator must charge ``V*`` (recall 1) for them.  Plain families keep
    the platform's partial verification.  ``PD``/``PDM`` never execute
    intermediate verifications, so the view is irrelevant but harmless.
    """
    if kind in _STARRED:
        return platform.with_costs(V=platform.V_star, r=1.0)
    return platform
