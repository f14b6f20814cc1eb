"""The ``A(m)`` quadratic form for silent-error re-execution.

Proposition 3: with ``m`` chunks of relative sizes ``beta`` separated by
partial verifications of recall ``r``, the expected fraction of the
segment's work squared that is re-executed because of silent errors is
``beta^T A beta``, where ``A`` is the symmetric ``m x m`` matrix

    A[i, j] = (1 + (1 - r)^|i - j|) / 2 .

Theorem 3 gives the minimiser subject to ``sum beta = 1``:

    beta_1 = beta_m = 1 / ((m - 2) r + 2),
    beta_j = r / ((m - 2) r + 2)   for 1 < j < m,

with minimum value ``f* = (1 + (2 - r) / ((m - 2) r + 2)) / 2``.  The
interior chunks are smaller by a factor ``r`` because an interior chunk is
covered by partial verifications on *both* sides.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np


@lru_cache(maxsize=1024)
def _recall_matrix_cached(m: int, r: float) -> np.ndarray:
    """Shared read-only ``A(m)`` instance per ``(m, r)``.

    The integer-shape search of the Table-1 optimiser evaluates the same
    handful of matrices dozens of times per optimisation; building each
    once per process removes that from the per-point hot path.  The
    cached array is frozen so accidental mutation cannot poison later
    evaluations.
    """
    idx = np.arange(m)
    dist = np.abs(idx[:, None] - idx[None, :])
    A = 0.5 * (1.0 + (1.0 - r) ** dist)
    A.setflags(write=False)
    return A


def recall_matrix(m: int, r: float) -> np.ndarray:
    """Build the symmetric ``A(m)`` matrix: ``(1 + (1-r)^|i-j|) / 2``.

    Parameters
    ----------
    m:
        Number of chunks (matrix dimension), ``m >= 1``.
    r:
        Partial-verification recall in ``(0, 1]``.
    """
    if m < 1:
        raise ValueError(f"need at least one chunk, got m={m}")
    if not (0.0 < r <= 1.0):
        raise ValueError(f"recall must be in (0, 1], got {r}")
    return _recall_matrix_cached(int(m), float(r)).copy()


@lru_cache(maxsize=4096)
def _quadratic_form_cached(beta: tuple, r: float) -> float:
    b = np.asarray(beta, dtype=np.float64)
    A = _recall_matrix_cached(b.size, r)
    return float(b @ A @ b)


def quadratic_form(beta: Sequence[float], r: float) -> float:
    """Evaluate ``beta^T A(m) beta`` for chunk fractions ``beta``.

    Memoised per ``(beta, r)``: patterns repeat the same chunk vector
    across segments and the optimiser re-evaluates the same shapes, so
    the quadratic form for a given vector is computed once per process.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"recall must be in (0, 1], got {r}")
    if type(beta) is tuple and beta and type(beta[0]) is float:
        # Pattern chunk vectors are already plain-float tuples: use them
        # as the cache key directly (the hot path of the shape search).
        # Anything else (nested tuples, ints, arrays) takes the
        # validating slow path below.
        return _quadratic_form_cached(beta, float(r))
    b = np.asarray(beta, dtype=np.float64)
    if b.ndim != 1 or b.size < 1:
        raise ValueError("beta must be a non-empty 1-D vector")
    return _quadratic_form_cached(tuple(float(x) for x in b), float(r))


def optimal_beta(m: int, r: float) -> np.ndarray:
    """The paper's optimal chunk fractions ``beta*`` (Theorem 3, Eq. 18).

    First and last chunks get weight ``1``, interior chunks weight ``r``,
    normalised by ``(m - 2) r + 2``.  For ``m = 1`` this is ``[1.0]``.
    """
    if m < 1:
        raise ValueError(f"need at least one chunk, got m={m}")
    if not (0.0 < r <= 1.0):
        raise ValueError(f"recall must be in (0, 1], got {r}")
    if m == 1:
        return np.array([1.0])
    denom = (m - 2) * r + 2.0
    beta = np.full(m, r / denom)
    beta[0] = beta[-1] = 1.0 / denom
    return beta


def optimal_quadratic_value(m: int, r: float) -> float:
    """Minimum of ``beta^T A beta`` s.t. ``sum beta = 1`` (Theorem 3).

    ``f*(m, r) = (1 + (2 - r) / ((m - 2) r + 2)) / 2``.  For ``m = 1`` this
    equals 1 (the whole segment is re-executed on a silent error).
    """
    if m < 1:
        raise ValueError(f"need at least one chunk, got m={m}")
    if not (0.0 < r <= 1.0):
        raise ValueError(f"recall must be in (0, 1], got {r}")
    return 0.5 * (1.0 + (2.0 - r) / ((m - 2) * r + 2.0))


def minimize_quadratic_form(m: int, r: float) -> np.ndarray:
    """Numerically minimise ``beta^T A beta`` subject to the simplex constraint.

    This is a cross-check of :func:`optimal_beta`: it solves the
    equality-constrained quadratic program with scipy (SLSQP) starting
    from the uniform vector.  Returned vector sums to 1.
    """
    if m == 1:
        return np.array([1.0])
    # scipy loads lazily: only this cross-check needs it.
    from scipy import optimize as _opt

    A = recall_matrix(m, r)

    def objective(b: np.ndarray) -> float:
        return float(b @ A @ b)

    def gradient(b: np.ndarray) -> np.ndarray:
        return 2.0 * (A @ b)

    x0 = np.full(m, 1.0 / m)
    res = _opt.minimize(
        objective,
        x0,
        jac=gradient,
        method="SLSQP",
        bounds=[(0.0, 1.0)] * m,
        constraints=[{"type": "eq", "fun": lambda b: float(np.sum(b) - 1.0)}],
        options={"maxiter": 500, "ftol": 1e-14},
    )
    if not res.success:  # pragma: no cover - scipy rarely fails here
        raise RuntimeError(f"QP solver failed: {res.message}")
    return res.x
