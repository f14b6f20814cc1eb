"""First-order overhead decomposition ``H = o_ef/W + o_rw * W + O(lambda)``.

Section 3.2 of the paper: for any pattern, the expected overhead splits
into an **error-free overhead** ``o_ef`` (time spent on verifications and
checkpoints per pattern, independent of W) and a **re-executed-work
overhead** ``o_rw`` (fraction of work re-executed because of errors,
proportional to W).  Balancing the two terms gives

    W* = sqrt(o_ef / o_rw)       and       H* = 2 sqrt(o_ef * o_rw).

This module computes ``(o_ef, o_rw)`` for *arbitrary* pattern shapes
(any ``n``, ``m_i``, ``alpha``, ``beta_i``) using Proposition 4's general
expression, and therefore covers every family in Table 1 as a special
case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.matrices import quadratic_form
from repro.core.pattern import Pattern
from repro.platforms.platform import Platform


@dataclass(frozen=True)
class OverheadDecomposition:
    """The pair ``(o_ef, o_rw)`` plus derived optimal period and overhead.

    Attributes
    ----------
    o_ef:
        Error-free overhead: resilience time per pattern (seconds).
    o_rw:
        Re-executed-work overhead: expected re-executed fraction per unit
        of work squared (1/seconds).
    """

    o_ef: float
    o_rw: float

    def __post_init__(self) -> None:
        if self.o_ef < 0:
            raise ValueError(f"o_ef must be >= 0, got {self.o_ef}")
        if self.o_rw < 0:
            raise ValueError(f"o_rw must be >= 0, got {self.o_rw}")

    @property
    def optimal_period(self) -> float:
        """``W* = sqrt(o_ef / o_rw)`` (Equation 8)."""
        if self.o_rw == 0.0:
            return math.inf
        return math.sqrt(self.o_ef / self.o_rw)

    @property
    def optimal_overhead(self) -> float:
        """``H* = 2 sqrt(o_ef * o_rw)`` (Equation 9)."""
        return 2.0 * math.sqrt(self.o_ef * self.o_rw)

    def overhead_at(self, W: float) -> float:
        """First-order overhead ``o_ef / W + o_rw * W`` at period ``W``."""
        if W <= 0:
            raise ValueError(f"period must be positive, got {W}")
        return self.o_ef / W + self.o_rw * W

    def expected_time_at(self, W: float) -> float:
        """First-order expected pattern time ``W (1 + H(W))`` at period ``W``."""
        return W * (1.0 + self.overhead_at(W))


def silent_factor(pattern: Pattern, r: float) -> float:
    """The shape's silent re-execution factor ``sum_i f_i alpha_i^2``.

    ``f_i = beta_i^T A(m_i) beta_i`` at recall ``r`` (1 for a one-chunk
    segment).  It depends on the pattern's shape and ``r`` alone, not on
    ``W`` or the error rates.
    """
    factor = 0.0
    for alpha_i, beta_i in zip(pattern.alpha, pattern.betas):
        if len(beta_i) == 1:
            f_i = 1.0
        else:
            f_i = quadratic_form(beta_i, r)
        factor += f_i * alpha_i * alpha_i
    return factor


def overhead_terms(
    n_partial: int, n: int, silent: float, platform: Platform, V: float
) -> OverheadDecomposition:
    """``(o_ef, o_rw)`` from a shape's counts and silent factor.

    ``n_partial`` partial verifications of cost ``V``, ``n`` segments
    and the :func:`silent_factor` ``silent``; everything else comes from
    ``platform``.
    """
    o_ef = n_partial * V + n * (platform.V_star + platform.C_M) + platform.C_D
    o_rw = platform.lambda_s * silent + platform.lambda_f / 2.0
    return OverheadDecomposition(o_ef=o_ef, o_rw=o_rw)


def decompose_overhead(
    pattern: Pattern,
    platform: Platform,
) -> OverheadDecomposition:
    """Compute ``(o_ef, o_rw)`` for an arbitrary pattern shape.

    From Proposition 4 (Equation 22)::

        o_ef = sum_i (m_i - 1) V  +  n (V* + C_M)  +  C_D
        o_rw = lambda_s * sum_i beta_i^T A(m_i) beta_i * alpha_i^2
               + lambda_f / 2

    The special cases of Table 1 (single segment, single chunk, guaranteed
    verifications only) all follow by plugging the corresponding shapes.
    """
    return overhead_terms(
        pattern.num_partial_verifications,
        pattern.n,
        silent_factor(pattern, platform.r),
        platform,
        platform.V,
    )


def optimal_period_from_decomposition(
    o_ef: float, o_rw: float
) -> float:
    """``W* = sqrt(o_ef / o_rw)`` as a free function (convenience)."""
    return OverheadDecomposition(o_ef=o_ef, o_rw=o_rw).optimal_period


def first_order_expected_time(
    pattern: Pattern, platform: Platform
) -> float:
    """First-order ``E(P)`` of a *given* pattern (Proposition 4, Eq. 22).

    ``E(P) = W + o_ef + o_rw * W^2`` with the decomposition above; the
    dropped terms are ``O(sqrt(lambda))`` for patterns of the optimal
    ``Theta(lambda^{-1/2})`` length.
    """
    d = decompose_overhead(pattern, platform)
    return pattern.W + d.o_ef + d.o_rw * pattern.W * pattern.W


def first_order_overhead(pattern: Pattern, platform: Platform) -> float:
    """First-order overhead ``H(P) = E(P)/W - 1`` of a given pattern."""
    d = decompose_overhead(pattern, platform)
    return d.overhead_at(pattern.W)
