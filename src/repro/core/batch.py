"""Vectorised analytic model layer: whole parameter grids per call.

Scalar entry points (:func:`~repro.core.firstorder.decompose_overhead`,
:func:`~repro.core.exact.exact_overhead`,
:func:`~repro.core.optimizer.numeric_optimal_pattern`) evaluate one
pattern on one platform per call.  This module evaluates the same closed
forms over a whole **struct-of-arrays grid** of platforms -- every cell of
a ``platform x lambda_f x lambda_s x family x (n, m)`` sweep in a handful
of NumPy passes -- mirroring what :mod:`repro.simulation.fast_engine` did
for the Monte-Carlo side.

The vectorised exact recursion exploits a structural fact about the
canonical families: all ``n`` segments of a built pattern are identical,
and the per-segment expectation of Equations (17)/(23) is *affine* in the
already-completed work ``prior`` (``E = A + B * prior``), so the pattern
total collapses to the geometric sum ``A * ((1 + B)^n - 1) / B``.  Cells
are grouped by their chunk count ``m`` (small integers), and everything
else is elementwise.

Differential tests (``tests/test_batch_vs_scalar.py``) assert the batch
results track the scalar closed forms to ``rtol = 1e-12``.

Example -- a full catalog grid in a few lines::

    >>> from repro.core.batch import PlatformGrid, batch_optimal_patterns
    >>> from repro.core.builders import PatternKind
    >>> from repro.platforms.catalog import PLATFORMS
    >>> grid = PlatformGrid.from_product(
    ...     [factory() for factory in PLATFORMS.values()],
    ...     factor_f=[0.5, 1.0, 2.0],
    ...     factor_s=[0.5, 1.0, 2.0],
    ... )
    >>> opt = batch_optimal_patterns(PatternKind.PDMV, grid)
    >>> opt.overhead.shape            # one exact optimum per grid cell
    (36,)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.builders import PatternKind, _equal
from repro.core.formulas import check_costs
from repro.platforms.platform import Platform, default_costs
from repro.platforms.catalog import get_platform

#: Version of the analytic-tier record computation.  Participates in the
#: campaign cache key for ``engine="analytic"`` points, so analytic rows
#: computed under different generations are never silently mixed.
ANALYTIC_VERSION = 1

#: Golden-section constants of the vectorised period search.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GOLDEN2 = (3.0 - math.sqrt(5.0)) / 2.0

_ArrayLike = Union[float, int, Sequence[float], np.ndarray]


# ---------------------------------------------------------------------------
# the struct-of-arrays platform grid
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlatformGrid:
    """Struct-of-arrays view of many platforms (one cell per platform).

    Every field is a 1-D ``float64`` array of equal length; cell ``i``
    describes one :class:`~repro.platforms.platform.Platform` parameter
    vector.  ``names`` carries the platform name per cell (presentation
    only; it never enters the numerics).
    """

    lambda_f: np.ndarray
    lambda_s: np.ndarray
    C_D: np.ndarray
    C_M: np.ndarray
    R_D: np.ndarray
    R_M: np.ndarray
    V_star: np.ndarray
    V: np.ndarray
    r: np.ndarray
    names: Tuple[str, ...]

    _FIELDS = ("lambda_f", "lambda_s", "C_D", "C_M", "R_D", "R_M",
               "V_star", "V", "r")

    def __post_init__(self) -> None:
        size = None
        for field in self._FIELDS:
            arr = np.ascontiguousarray(getattr(self, field), dtype=np.float64)
            if arr.ndim != 1:
                raise ValueError(f"{field} must be 1-D, got shape {arr.shape}")
            if size is None:
                size = arr.size
            elif arr.size != size:
                raise ValueError(
                    f"{field} has {arr.size} cells but expected {size}"
                )
            object.__setattr__(self, field, arr)
        if size == 0:
            raise ValueError("a platform grid needs at least one cell")
        if len(self.names) != size:
            raise ValueError(
                f"names has {len(self.names)} entries but grid has {size}"
            )
        if np.any(self.lambda_f < 0) or np.any(self.lambda_s < 0):
            raise ValueError("error rates must be non-negative")
        if np.any((self.r <= 0.0) | (self.r > 1.0)):
            raise ValueError("recall r must be in (0, 1] for every cell")

    @property
    def size(self) -> int:
        """Number of grid cells."""
        return self.lambda_f.size

    @property
    def lambda_total(self) -> np.ndarray:
        """Per-cell combined error rate ``lambda_f + lambda_s``."""
        return self.lambda_f + self.lambda_s

    # -- constructors -------------------------------------------------------
    @classmethod
    def from_platforms(
        cls, platforms: Sequence[Union[Platform, str]]
    ) -> "PlatformGrid":
        """One cell per platform (catalog names are resolved)."""
        plats = [
            get_platform(p) if isinstance(p, str) else p for p in platforms
        ]
        if not plats:
            raise ValueError("need at least one platform")
        return cls(
            lambda_f=np.array([p.lambda_f for p in plats]),
            lambda_s=np.array([p.lambda_s for p in plats]),
            C_D=np.array([p.C_D for p in plats]),
            C_M=np.array([p.C_M for p in plats]),
            R_D=np.array([p.R_D for p in plats]),
            R_M=np.array([p.R_M for p in plats]),
            V_star=np.array([p.V_star for p in plats]),
            V=np.array([p.V for p in plats]),
            r=np.array([p.r for p in plats]),
            names=tuple(p.name for p in plats),
        )

    @classmethod
    def from_product(
        cls,
        platforms: Sequence[Union[Platform, str]],
        *,
        factor_f: Sequence[float] = (1.0,),
        factor_s: Sequence[float] = (1.0,),
    ) -> "PlatformGrid":
        """The ``platform x lambda_f x lambda_s`` cross-product grid.

        Cell order is platform-major, then ``factor_f``, then ``factor_s``
        (matching three nested loops), so cell
        ``i = (p * len(factor_f) + a) * len(factor_s) + b``.
        """
        base = cls.from_platforms(platforms)
        ff = np.ascontiguousarray(factor_f, dtype=np.float64)
        fs = np.ascontiguousarray(factor_s, dtype=np.float64)
        if ff.size == 0 or fs.size == 0:
            raise ValueError("factor grids must be non-empty")
        if np.any(ff < 0) or np.any(fs < 0):
            raise ValueError("rate factors must be non-negative")
        reps = ff.size * fs.size
        expand = lambda arr: np.repeat(arr, reps)  # noqa: E731
        lf = base.lambda_f[:, None, None] * ff[None, :, None]
        ls = base.lambda_s[:, None, None] * fs[None, None, :]
        return cls(
            lambda_f=np.broadcast_to(lf, (base.size, ff.size, fs.size)).ravel(),
            lambda_s=np.broadcast_to(ls, (base.size, ff.size, fs.size)).ravel(),
            C_D=expand(base.C_D),
            C_M=expand(base.C_M),
            R_D=expand(base.R_D),
            R_M=expand(base.R_M),
            V_star=expand(base.V_star),
            V=expand(base.V),
            r=expand(base.r),
            names=tuple(np.repeat(np.array(base.names, dtype=object), reps)),
        )

    # -- round-trips --------------------------------------------------------
    def platform_at(self, i: int) -> Platform:
        """Materialise cell ``i`` as a scalar :class:`Platform`."""
        return Platform(
            name=self.names[i],
            nodes=1,
            lambda_f=float(self.lambda_f[i]),
            lambda_s=float(self.lambda_s[i]),
            costs=default_costs(
                C_D=float(self.C_D[i]),
                C_M=float(self.C_M[i]),
                R_D=float(self.R_D[i]),
                R_M=float(self.R_M[i]),
                V_star=float(self.V_star[i]),
                V=float(self.V[i]),
                r=float(self.r[i]),
            ),
        )


def _effective_verification(
    kind: PatternKind, grid: PlatformGrid
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-cell intermediate-verification cost and recall for a family.

    Starred families run *guaranteed* verifications between chunks
    (cost ``V*``, recall 1) -- the same substitution
    :func:`repro.core.formulas.simulation_costs` applies for the scalar
    path.
    """
    if kind in (PatternKind.PDV_STAR, PatternKind.PDMV_STAR):
        return grid.V_star, np.ones_like(grid.r)
    return grid.V, grid.r


def _normalise_shape(
    kind: PatternKind, grid: PlatformGrid, n: _ArrayLike, m: _ArrayLike
) -> Tuple[np.ndarray, np.ndarray]:
    """Broadcast ``(n, m)`` to the grid and apply the family's structure.

    Matches :func:`repro.core.builders.build_pattern`: parameters that a
    family fixes structurally (``n`` for single-level families, ``m`` for
    verification-free ones) are forced to 1 regardless of the input.
    """
    n_arr = np.broadcast_to(
        np.asarray(n, dtype=np.int64), (grid.size,)
    ).copy()
    m_arr = np.broadcast_to(
        np.asarray(m, dtype=np.int64), (grid.size,)
    ).copy()
    if np.any(n_arr < 1) or np.any(m_arr < 1):
        raise ValueError("need n >= 1 and m >= 1 in every cell")
    if not kind.uses_memory_checkpoints:
        n_arr[:] = 1
    if not kind.uses_intermediate_verifications:
        m_arr[:] = 1
    return n_arr, m_arr


# ---------------------------------------------------------------------------
# first-order decomposition and closed forms, vectorised
# ---------------------------------------------------------------------------


def batch_quadratic_value(m: _ArrayLike, r: _ArrayLike) -> np.ndarray:
    """Vectorised ``f*(m, r)`` of Theorem 3 (minimum of the quadratic form).

    ``f*(m, r) = (1 + (2 - r) / ((m - 2) r + 2)) / 2``; equals 1 at
    ``m = 1`` (whole segment re-executed on a silent error).
    """
    m_arr = np.asarray(m, dtype=np.float64)
    r_arr = np.asarray(r, dtype=np.float64)
    return 0.5 * (1.0 + (2.0 - r_arr) / ((m_arr - 2.0) * r_arr + 2.0))


def batch_decompose(
    kind: PatternKind,
    grid: PlatformGrid,
    n: _ArrayLike = 1,
    m: _ArrayLike = 1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorised ``(o_ef, o_rw)`` of Proposition 4 for a family grid.

    Equivalent to building the canonical family pattern with shape
    ``(n, m)`` in every cell and calling
    :func:`repro.core.firstorder.decompose_overhead` (against the starred
    families' guaranteed-verification platform view where applicable).
    """
    n_arr, m_arr = _normalise_shape(kind, grid, n, m)
    V_eff, r_eff = _effective_verification(kind, grid)
    n_f = n_arr.astype(np.float64)
    m_f = m_arr.astype(np.float64)
    o_ef = (
        n_f * (m_f - 1.0) * V_eff
        + n_f * (grid.V_star + grid.C_M)
        + grid.C_D
    )
    # sum_i f_i alpha_i^2 = n * f*(m, r) * (1/n)^2 = f*(m, r) / n
    silent_factor = batch_quadratic_value(m_f, r_eff) / n_f
    o_rw = grid.lambda_s * silent_factor + grid.lambda_f / 2.0
    return o_ef, o_rw


def batch_optimal_period(o_ef: np.ndarray, o_rw: np.ndarray) -> np.ndarray:
    """``W* = sqrt(o_ef / o_rw)`` per cell (``inf`` where ``o_rw == 0``)."""
    with np.errstate(divide="ignore"):
        return np.where(
            o_rw == 0.0, np.inf, np.sqrt(np.divide(
                o_ef, np.where(o_rw == 0.0, 1.0, o_rw)
            ))
        )


def batch_optimal_overhead(o_ef: np.ndarray, o_rw: np.ndarray) -> np.ndarray:
    """``H* = 2 sqrt(o_ef o_rw)`` per cell."""
    return 2.0 * np.sqrt(o_ef * o_rw)


def batch_overhead_at(
    o_ef: np.ndarray, o_rw: np.ndarray, W: _ArrayLike
) -> np.ndarray:
    """First-order overhead ``o_ef / W + o_rw W`` per cell."""
    W_arr = np.asarray(W, dtype=np.float64)
    if np.any(W_arr <= 0):
        raise ValueError("period must be positive in every cell")
    return o_ef / W_arr + o_rw * W_arr


def batch_continuous_n_star(
    kind: PatternKind, grid: PlatformGrid
) -> np.ndarray:
    """Vectorised Table-1 continuous ``n_bar*`` (Theorems 1-4)."""
    if not kind.uses_memory_checkpoints:
        return np.ones(grid.size)
    lf, ls = grid.lambda_f, grid.lambda_s
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is PatternKind.PDM:
            core = 2.0 * ls / lf * grid.C_D / (grid.V_star + grid.C_M)
        elif kind is PatternKind.PDMV_STAR:
            core = ls / lf * grid.C_D / grid.C_M
        elif kind is PatternKind.PDMV:
            g = (2.0 - grid.r) / grid.r
            denom = grid.V_star - g * grid.V + grid.C_M
            denom = np.where(denom <= 0.0, grid.C_M, denom)
            core = ls / lf * grid.C_D / denom
        else:  # pragma: no cover - exhaustive over memory families
            raise ValueError(f"unexpected kind {kind}")
        out = np.sqrt(core)
    out = np.where(lf == 0.0, np.inf, out)
    return np.where((lf != 0.0) & (ls == 0.0), 1.0, out)


def batch_continuous_m_star(
    kind: PatternKind, grid: PlatformGrid
) -> np.ndarray:
    """Vectorised Table-1 continuous ``m_bar*`` (Theorems 1-4)."""
    if not kind.uses_intermediate_verifications:
        return np.ones(grid.size)
    lf, ls = grid.lambda_f, grid.lambda_s
    Vs, CM, CD, V, r = grid.V_star, grid.C_M, grid.C_D, grid.V, grid.r
    g = (2.0 - r) / r
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is PatternKind.PDV_STAR:
            out = np.sqrt(ls / (ls + lf) * (CM + CD) / Vs)
        elif kind is PatternKind.PDV:
            inner = ls / (ls + lf) * g * ((Vs + CM + CD) / V - g)
            out = 2.0 - 2.0 / r + np.sqrt(np.maximum(inner, 0.0))
        elif kind is PatternKind.PDMV_STAR:
            out = np.sqrt(CM / Vs)
        elif kind is PatternKind.PDMV:
            inner = g * ((Vs + CM) / V - g)
            out = 2.0 - 2.0 / r + np.sqrt(np.maximum(inner, 0.0))
        else:  # pragma: no cover - exhaustive over chunked families
            raise ValueError(f"unexpected kind {kind}")
    return np.where(ls == 0.0, 1.0, out)


def _batch_conditional_n_star(
    kind: PatternKind, grid: PlatformGrid, m: np.ndarray
) -> np.ndarray:
    """Vectorised conditional minimiser of ``F(n)`` for fixed integer ``m``.

    Mirrors :func:`repro.core.optimizer`-adjacent
    ``repro.core.formulas._conditional_n_star`` cell-wise, including its
    special-case ordering (``ls == 0`` or ``C_D == 0`` before
    ``lf == 0``).
    """
    if not kind.uses_memory_checkpoints:
        return np.ones(grid.size)
    V_eff, r_eff = _effective_verification(kind, grid)
    m_f = m.astype(np.float64)
    f = batch_quadratic_value(m_f, r_eff)
    a = (m_f - 1.0) * V_eff + grid.V_star + grid.C_M
    lf, ls = grid.lambda_f, grid.lambda_s
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sqrt(2.0 * grid.C_D * f * ls / (a * lf))
    out = np.where(lf == 0.0, np.inf, out)
    return np.where((ls == 0.0) | (grid.C_D == 0.0), 1.0, out)


# ---------------------------------------------------------------------------
# exact overhead recursion, vectorised
# ---------------------------------------------------------------------------


def _expected_time_lost(lam_f: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Vectorised Equation (3): conditional fail-stop arrival time.

    Branch thresholds replicate the scalar
    :func:`repro.errors.process.expected_time_lost` exactly (series below
    ``x = 1e-4``, saturation above ``x = 700``).
    """
    x = lam_f * w
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        series = w * (0.5 - x / 12.0 + x**3 / 720.0)
        inv = np.divide(1.0, np.where(lam_f == 0.0, 1.0, lam_f))
        main = inv - w / np.expm1(np.where(x < 1e-4, 1.0, x))
    return np.where(x < 1e-4, series, np.where(x > 700.0, inv, main))


def _chunk_fractions(
    kind: PatternKind, r: np.ndarray, m: int
) -> np.ndarray:
    """Per-cell chunk fractions ``beta`` of the family at chunk count ``m``.

    ``PDV``/``PDMV`` use Theorem 3's ``1/r``-weighted chunks (per-cell
    recall); every other family uses equal chunks.  Matches the builders'
    float-level normalisation.
    """
    cells = r.size
    if kind.uses_partial_verifications and m > 1:
        denom = (m - 2.0) * r + 2.0
        beta = np.broadcast_to((r / denom)[:, None], (cells, m)).copy()
        beta[:, 0] = 1.0 / denom
        beta[:, -1] = 1.0 / denom
        return beta / beta.sum(axis=1, keepdims=True)
    return np.broadcast_to(
        np.array(_equal(m), dtype=np.float64)[None, :], (cells, m)
    )


def _geometric_sum(B: np.ndarray, n: np.ndarray) -> np.ndarray:
    """``sum_{i=0}^{n-1} (1 + B)^i`` = ``expm1(n log1p(B)) / B``, B >= 0.

    Well-conditioned for small ``B`` (returns ``n`` in the limit).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        out = np.expm1(n * np.log1p(B)) / np.where(B == 0.0, 1.0, B)
    return np.where(B == 0.0, n.astype(np.float64), out)


def batch_exact_overhead(
    kind: PatternKind,
    grid: PlatformGrid,
    W: _ArrayLike,
    n: _ArrayLike = 1,
    m: _ArrayLike = 1,
    *,
    out_of_range: str = "raise",
) -> np.ndarray:
    """Vectorised exact expected overhead ``E(P)/W - 1`` per grid cell.

    Equivalent to building the canonical family pattern with shape
    ``(n, m)`` at period ``W`` in every cell and calling
    :func:`repro.core.exact.exact_overhead` (with
    ``guaranteed_intermediate`` set for the starred families).

    Parameters
    ----------
    out_of_range:
        ``"raise"`` (default) raises :class:`ValueError` when a cell's
        success probability underflows to zero (the scalar behaviour);
        ``"inf"`` marks such cells with ``inf`` instead (used internally
        by the period search).
    """
    if out_of_range not in ("raise", "inf"):
        raise ValueError(
            f"out_of_range must be 'raise' or 'inf', got {out_of_range!r}"
        )
    n_arr, m_arr = _normalise_shape(kind, grid, n, m)
    W_arr = np.broadcast_to(
        np.asarray(W, dtype=np.float64), (grid.size,)
    ).copy()
    if np.any(W_arr <= 0):
        raise ValueError("pattern work W must be positive in every cell")
    V_eff, r_eff = _effective_verification(kind, grid)

    E = np.empty(grid.size)
    bad = np.zeros(grid.size, dtype=bool)
    for mv in np.unique(m_arr):
        idx = np.nonzero(m_arr == mv)[0]
        E[idx], bad[idx] = _exact_expected_time_group(
            kind, grid, idx, W_arr[idx], n_arr[idx], int(mv),
            V_eff[idx], r_eff[idx],
        )
    if np.any(bad) and out_of_range == "raise":
        raise ValueError(
            "segment so long that success probability underflowed to 0 "
            "in at least one grid cell; shorten the pattern"
        )
    return E / W_arr - 1.0


def _exact_expected_time_group(
    kind: PatternKind,
    grid: PlatformGrid,
    idx: np.ndarray,
    W: np.ndarray,
    n: np.ndarray,
    m: int,
    V_eff: np.ndarray,
    r_eff: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``E(P)`` plus an underflow flag, for cells sharing ``m``."""
    lf = grid.lambda_f[idx][:, None]
    ls = grid.lambda_s[idx][:, None]
    beta = _chunk_fractions(kind, grid.r[idx], m)
    w = beta * (W / n.astype(np.float64))[:, None]

    pf = -np.expm1(-lf * w)
    ps = -np.expm1(-ls * w)
    surv_f = 1.0 - pf
    surv_s = 1.0 - ps

    # Exclusive prefix products: probability no fail-stop / no silent
    # error before chunk j.
    ones = np.ones((idx.size, 1))
    no_fs = np.concatenate([ones, np.cumprod(surv_f, axis=1)[:, :-1]], axis=1)
    no_silent = np.concatenate(
        [ones, np.cumprod(surv_s, axis=1)[:, :-1]], axis=1
    )

    # g_j = sum_{ell<j} clean_before(ell) ps_ell (1-r)^{j-ell}: the
    # probability an earlier silent error slipped past every partial
    # verification up to chunk j.  Recurrence g_j = s (g_{j-1} + c_{j-1}).
    s = (1.0 - r_eff)[:, None]
    c = no_silent * ps
    g = np.zeros_like(w)
    for j in range(1, m):
        g[:, j] = s[:, 0] * (g[:, j - 1] + c[:, j - 1])

    q = no_fs * (no_silent + g)
    clean = np.prod(surv_f * surv_s, axis=1)

    lost = _expected_time_lost(np.broadcast_to(lf, w.shape), w)
    verif = np.broadcast_to(V_eff[:, None], w.shape).copy()
    verif[:, -1] = grid.V_star[idx]

    R_D = grid.R_D[idx][:, None]
    attempt0 = np.sum(
        q * (pf * (lost + R_D) + (1.0 - pf) * (w + verif)), axis=1
    )
    S = np.sum(q * pf, axis=1)

    with np.errstate(divide="ignore", invalid="ignore"):
        bad = clean <= 0.0
        safe_clean = np.where(bad, 1.0, clean)
        A = (
            clean * grid.C_M[idx]
            + (1.0 - clean) * grid.R_M[idx]
            + attempt0
        ) / safe_clean
        B = S / safe_clean
    total = A * _geometric_sum(B, n) + grid.C_D[idx]
    return np.where(bad, np.inf, total), bad


# ---------------------------------------------------------------------------
# vectorised period optimisation and the batch pattern optimiser
# ---------------------------------------------------------------------------


def batch_refine_period(
    kind: PatternKind,
    grid: PlatformGrid,
    n: _ArrayLike = 1,
    m: _ArrayLike = 1,
    *,
    bracket_scale: float = 50.0,
    rel_tol: float = 1e-8,
    max_iter: int = 120,
) -> Tuple[np.ndarray, np.ndarray]:
    """Minimise the exact overhead over ``W`` in every cell at once.

    The vectorised counterpart of
    :func:`repro.core.optimizer.optimize_period`: the search bracket is
    derived from the first-order optimum exactly as in the scalar code,
    then every cell runs a golden-section search in lockstep (one
    vectorised exact-overhead evaluation per iteration).

    Returns ``(W_opt, overhead_opt)`` arrays.
    """
    n_arr, m_arr = _normalise_shape(kind, grid, n, m)
    o_ef, o_rw = batch_decompose(kind, grid, n_arr, m_arr)
    W_guess = batch_optimal_period(o_ef, o_rw)
    if np.any(~np.isfinite(W_guess)):
        raise ValueError(
            "first-order period is not finite in at least one grid cell; "
            "cannot bracket"
        )
    lo = W_guess / bracket_scale
    hi = W_guess * bracket_scale
    max_W = 50.0 / np.maximum(grid.lambda_total, 1e-300)
    hi = np.minimum(hi, max_W)
    if np.any(hi <= lo):
        raise ValueError(
            "period bracket is empty in at least one grid cell: the "
            "first-order optimum exceeds the exact recursion's stability "
            "cap (50 / lambda_total); check the platform rates and costs"
        )

    def H(W: np.ndarray) -> np.ndarray:
        return batch_exact_overhead(
            kind, grid, W, n_arr, m_arr, out_of_range="inf"
        )

    # Cells freeze individually the moment *their own* bracket is tight
    # enough: a cell's update sequence is then independent of which
    # other cells share the batch, so a configuration refines to
    # bit-identical results whether evaluated alone or grouped -- the
    # invariant the campaign cache keys rely on.
    a, b = lo.copy(), hi.copy()
    c = a + _GOLDEN2 * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = H(c), H(d)
    for _ in range(max_iter):
        active = (b - a) / W_guess > rel_tol
        if not np.any(active):
            break
        shrink_right = active & (fc < fd)
        shrink_left = active & ~shrink_right
        # where shrink_right: b <- d, d <- c, fd <- fc, fresh c
        # where shrink_left:  a <- c, c <- d, fc <- fd, fresh d
        b = np.where(shrink_right, d, b)
        a = np.where(shrink_left, c, a)
        new_x = np.where(
            shrink_right,
            a + _GOLDEN2 * (b - a),
            a + _GOLDEN * (b - a),
        )
        f_new = H(np.where(active, new_x, c))
        d_next = np.where(shrink_right, c, np.where(shrink_left, new_x, d))
        fd_next = np.where(shrink_right, fc, np.where(shrink_left, f_new, fd))
        c_next = np.where(shrink_right, new_x, np.where(shrink_left, d, c))
        fc_next = np.where(shrink_right, f_new, np.where(shrink_left, fd, fc))
        c, d, fc, fd = c_next, d_next, fc_next, fd_next
    W_opt = 0.5 * (a + b)
    return W_opt, H(W_opt)


@dataclass(frozen=True)
class BatchOptima:
    """Per-cell optimisation results of one family over a grid.

    The first-order fields mirror
    :class:`~repro.core.formulas.OptimalPattern`; ``W`` / ``overhead``
    mirror :class:`~repro.core.optimizer.NumericOptimum` (the numerically
    optimal period against the exact model) when the optimiser ran with
    period refinement, and fall back to the first-order optimum
    otherwise.
    """

    kind: PatternKind
    n: np.ndarray
    m: np.ndarray
    n_cont: np.ndarray
    m_cont: np.ndarray
    o_ef: np.ndarray
    o_rw: np.ndarray
    W_star: np.ndarray
    H_star: np.ndarray
    W: np.ndarray
    overhead: np.ndarray
    refined: bool

    @property
    def size(self) -> int:
        """Number of grid cells."""
        return self.n.size


def batch_optimal_patterns(
    kind: PatternKind,
    grid: PlatformGrid,
    *,
    refine_period: bool = True,
) -> BatchOptima:
    """Optimise one family on every grid cell at once.

    Replicates :func:`repro.core.formulas.optimal_pattern` cell-wise --
    continuous ``(n_bar*, m_bar*)``, integer-shape refinement on the
    convex product ``F = o_ef o_rw`` with identical candidate windows and
    tie-breaking -- then (by default) refines the period against the
    vectorised exact recursion, matching
    :func:`repro.core.optimizer.numeric_optimal_pattern`.
    """
    if np.any(grid.lambda_total == 0.0):
        raise ValueError(
            "at least one grid cell has zero error rates; no finite "
            "optimal pattern exists there"
        )
    n_cont = batch_continuous_n_star(kind, grid)
    m_cont = batch_continuous_m_star(kind, grid)
    if np.any(~np.isfinite(m_cont)):
        raise ValueError(
            "continuous chunk optimum is infinite in at least one grid "
            "cell; cannot round"
        )
    # PDMV* with C_M = 0 keeps a finite m* here, but the scalar optimum
    # it must replicate does not exist.
    check_costs(kind, grid)
    n_cont_capped = np.where(np.isinf(n_cont), 1024.0, n_cont)

    # Chunk-count candidates: the scalar window
    # ``range(max(1, floor-1), max(1, ceil+1) + 1)`` plus the always-on
    # fallback m = 1, enumerated in ascending order per cell so the
    # first-strict-improvement tie-breaking matches the scalar loop.
    # The window spans at most 4 integers (``hi - lo <= 3``).
    lo_m = np.maximum(1.0, np.floor(m_cont) - 1.0)
    hi_m = np.maximum(1.0, np.ceil(m_cont) + 1.0)
    m_slots: List[Tuple[np.ndarray, np.ndarray]] = []
    one = np.ones(grid.size)
    m_slots.append((one, lo_m > 1.0))  # the m = 1 fallback, when not in window
    for offset in (0.0, 1.0, 2.0, 3.0):
        cand = lo_m + offset
        m_slots.append((cand, cand <= hi_m))

    best_F = np.full(grid.size, np.inf)
    best_n = np.ones(grid.size, dtype=np.int64)
    best_m = np.ones(grid.size, dtype=np.int64)
    best_oef = np.zeros(grid.size)
    best_orw = np.zeros(grid.size)

    for m_cand_f, m_valid in m_slots:
        if not np.any(m_valid):
            continue
        m_cand = np.maximum(m_cand_f, 1.0).astype(np.int64)
        n_bar = _batch_conditional_n_star(kind, grid, m_cand)
        n_bar = np.where(np.isinf(n_bar), 1024.0, n_bar)
        lo_n = np.maximum(1.0, np.floor(n_bar))
        hi_n = np.maximum(1.0, np.ceil(n_bar))
        for n_cand_f, n_valid in (
            (lo_n, np.ones(grid.size, dtype=bool)),
            (hi_n, hi_n > lo_n),
        ):
            valid = m_valid & n_valid
            if not np.any(valid):
                continue
            n_cand = n_cand_f.astype(np.int64)
            o_ef, o_rw = batch_decompose(kind, grid, n_cand, m_cand)
            F = o_ef * o_rw
            take = valid & (F < best_F - 1e-18)
            best_F = np.where(take, F, best_F)
            best_n = np.where(take, n_cand, best_n)
            best_m = np.where(take, m_cand, best_m)
            best_oef = np.where(take, o_ef, best_oef)
            best_orw = np.where(take, o_rw, best_orw)

    # Structural normalisation (matches build_pattern's convention).
    best_n, best_m = _normalise_shape(kind, grid, best_n, best_m)
    W_star = batch_optimal_period(best_oef, best_orw)
    if np.any(~np.isfinite(W_star)):
        raise ValueError(
            "optimal period is infinite (o_rw == 0) in at least one grid "
            "cell; check error rates"
        )
    H_star = batch_optimal_overhead(best_oef, best_orw)

    if refine_period:
        W_num, H_num = batch_refine_period(kind, grid, best_n, best_m)
    else:
        W_num, H_num = W_star, H_star
    return BatchOptima(
        kind=kind,
        n=best_n,
        m=best_m,
        n_cont=n_cont_capped,
        m_cont=m_cont,
        o_ef=best_oef,
        o_rw=best_orw,
        W_star=W_star,
        H_star=H_star,
        W=W_num,
        overhead=H_num,
        refined=refine_period,
    )


# ---------------------------------------------------------------------------
# analytic-tier records
# ---------------------------------------------------------------------------


def analytic_records(
    kind: PatternKind,
    grid: PlatformGrid,
    *,
    refine_period: bool = True,
    labels: Optional[Sequence[Dict[str, Any]]] = None,
) -> List[Dict[str, Any]]:
    """One analytic-tier result record per grid cell.

    The record schema intersects the Monte-Carlo campaign rows where the
    quantities are comparable: ``predicted`` is the first-order ``H*``
    and ``simulated`` is the *exact* overhead of the first-order optimal
    configuration, so shared report columns and predicted-vs-simulated
    panels work unchanged on the analytic path.  ``divergence`` is their
    difference (the Figure-7a gap).
    """
    opt = batch_optimal_patterns(kind, grid, refine_period=refine_period)
    H_exact = batch_exact_overhead(kind, grid, opt.W_star, opt.n, opt.m)
    if labels is not None and len(labels) != grid.size:
        raise ValueError(
            f"got {len(labels)} label rows for {grid.size} grid cells"
        )
    records: List[Dict[str, Any]] = []
    for i in range(grid.size):
        record: Dict[str, Any] = {
            "kind": kind.value,
            "platform_name": grid.names[i],
            "H*": float(opt.H_star[i]),
            "W_star": float(opt.W_star[i]),
            "W*_hours": float(opt.W_star[i] / 3600.0),
            "n*": int(opt.n[i]),
            "m*": int(opt.m[i]),
            "predicted": float(opt.H_star[i]),
            "H_exact": float(H_exact[i]),
            "simulated": float(H_exact[i]),
            "divergence": float(H_exact[i] - opt.H_star[i]),
        }
        if refine_period:
            record["H_numeric"] = float(opt.overhead[i])
            record["W_numeric_hours"] = float(opt.W[i] / 3600.0)
        if labels is not None:
            record = {**labels[i], **record}
        records.append(record)
    return records


def evaluate_analytic(
    kind: PatternKind,
    platform: Platform,
    *,
    refine_period: bool = True,
) -> Dict[str, Any]:
    """Analytic-tier record for one family on one platform (convenience).

    A single-cell grid produces bit-identical numbers to any larger batch
    containing the same cell, so records are cache-stable regardless of
    how points were grouped.
    """
    grid = PlatformGrid.from_platforms([platform])
    return analytic_records(kind, grid, refine_period=refine_period)[0]
