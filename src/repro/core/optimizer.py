"""Numerical optimisation cross-validating the closed forms.

Two entry points:

* :func:`numeric_optimal_pattern` -- for a fixed family and integer shape
  ``(n, m)``, minimise the *exact* overhead over the period ``W`` with
  scipy, then (optionally) search the integer shape in a neighbourhood.
  The result should agree with the first-order closed forms up to
  ``O(lambda)`` whenever the platform MTBF is large; tests assert this.

* :func:`refine_integer_parameters` -- brute-force the integer shape over
  a window around the continuous optimum using the convex first-order
  product ``F = o_ef * o_rw`` (cheap) or the exact overhead (expensive).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.builders import PatternKind, build_pattern
from repro.core.exact import exact_overhead
from repro.core.firstorder import decompose_overhead
from repro.core.formulas import (
    continuous_m_star,
    continuous_n_star,
    optimal_pattern,
)
from repro.platforms.platform import Platform


@dataclass(frozen=True)
class NumericOptimum:
    """Result of numerical pattern optimisation.

    Attributes
    ----------
    kind:
        Pattern family optimised.
    W:
        Numerically optimal period.
    n, m:
        Integer shape used.
    overhead:
        Exact expected overhead at the optimum.
    """

    kind: PatternKind
    W: float
    n: int
    m: int
    overhead: float


def _exact_overhead_at(
    kind: PatternKind, platform: Platform, W: float, n: int, m: int
) -> float:
    """Exact overhead of the family pattern with shape (n, m) at period W."""
    pat = build_pattern(kind, W, n=n, m=m, r=platform.r)
    guaranteed = kind in (PatternKind.PDV_STAR, PatternKind.PDMV_STAR)
    return exact_overhead(pat, platform, guaranteed_intermediate=guaranteed)


def optimize_period(
    kind: PatternKind,
    platform: Platform,
    n: int,
    m: int,
    *,
    bracket_scale: float = 50.0,
) -> Tuple[float, float]:
    """Minimise the exact overhead over ``W`` for a fixed integer shape.

    Returns ``(W_opt, overhead_opt)``.  The search is bounded around the
    first-order optimum, which is always within a small constant factor of
    the true optimum when the MTBF is large.
    """
    pat = build_pattern(kind, 1.0, n=n, m=m, r=platform.r)
    plat_view = platform
    if kind in (PatternKind.PDV_STAR, PatternKind.PDMV_STAR):
        plat_view = platform.with_costs(V=platform.V_star, r=1.0)
    W_guess = decompose_overhead(pat, plat_view).optimal_period
    if not math.isfinite(W_guess):
        raise ValueError("first-order period is not finite; cannot bracket")

    lo = W_guess / bracket_scale
    hi = W_guess * bracket_scale
    # Keep the exponentials in the exact recursion in a sane range.
    max_W = 50.0 / max(platform.lambda_total, 1e-300)
    hi = min(hi, max_W)
    if hi <= lo:
        raise ValueError(
            f"period bracket [{lo:.6g}, {hi:.6g}] is empty for {kind} "
            f"(n={n}, m={m}): the first-order optimum W*={W_guess:.6g}s "
            f"exceeds the exact recursion's stability cap "
            f"{max_W:.6g}s (= 50 / lambda_total), so the bracket cannot "
            "contain a minimum; check the platform rates and costs"
        )

    # scipy loads lazily: importing it costs more than the rest of
    # ``import repro``, and only this cross-check needs it.
    from scipy import optimize as _opt

    res = _opt.minimize_scalar(
        lambda W: _exact_overhead_at(kind, platform, W, n, m),
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": max(W_guess * 1e-7, 1e-9)},
    )
    return float(res.x), float(res.fun)


def refine_integer_parameters(
    kind: PatternKind,
    platform: Platform,
    *,
    window: int = 2,
    use_exact: bool = False,
) -> Tuple[int, int]:
    """Search the integer shape ``(n, m)`` around the continuous optimum.

    Parameters
    ----------
    window:
        Half-width of the integer search window around the continuous
        optimum (clipped at 1).
    use_exact:
        When True, rank candidates by exact overhead at their numerically
        optimal period (slow); otherwise by the first-order product
        ``o_ef * o_rw`` (fast, and provably sufficient since F is convex).
    """
    n_cont = continuous_n_star(kind, platform)
    m_cont = continuous_m_star(kind, platform)
    if math.isinf(n_cont):
        n_cont = 1024.0

    def candidates(x: float) -> range:
        lo = max(1, math.floor(x) - window)
        hi = max(1, math.ceil(x) + window)
        return range(lo, hi + 1)

    # Always consider m = 1 (the verification-free parent family): like
    # :func:`repro.core.formulas.optimal_pattern`, the refinement must
    # never return a chunked shape worse than its own degenerate parent,
    # even when the continuous optimum sits far from 1.
    m_candidates = sorted({1, *candidates(m_cont)})

    best: Optional[Tuple[float, int, int]] = None
    for n in candidates(n_cont):
        if kind in (PatternKind.PD, PatternKind.PDV_STAR, PatternKind.PDV) and n != 1:
            continue
        for m in m_candidates:
            if kind in (PatternKind.PD, PatternKind.PDM) and m != 1:
                continue
            if use_exact:
                _, score = optimize_period(kind, platform, n, m)
            else:
                pat = build_pattern(kind, 1.0, n=n, m=m, r=platform.r)
                plat_view = platform
                if kind in (PatternKind.PDV_STAR, PatternKind.PDMV_STAR):
                    plat_view = platform.with_costs(V=platform.V_star, r=1.0)
                d = decompose_overhead(pat, plat_view)
                score = d.o_ef * d.o_rw
            if best is None or score < best[0] - 1e-18:
                best = (score, n, m)
    assert best is not None
    return best[1], best[2]


def numeric_optimal_pattern(
    kind: PatternKind,
    platform: Platform,
    *,
    search_shape: bool = False,
) -> NumericOptimum:
    """Numerically optimal configuration of a family on a platform.

    By default uses the closed-form integer shape (Theorems 1-4) and only
    optimises the period numerically against the exact model; with
    ``search_shape=True`` the integer shape is also re-searched against
    the exact objective.
    """
    if search_shape:
        n, m = refine_integer_parameters(kind, platform, use_exact=True)
    else:
        opt = optimal_pattern(kind, platform)
        n, m = opt.n, opt.m
    W, H = optimize_period(kind, platform, n, m)
    return NumericOptimum(kind=kind, W=W, n=n, m=m, overhead=H)
