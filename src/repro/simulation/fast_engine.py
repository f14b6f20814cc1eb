"""Vectorised batch simulation of arbitrary patterns.

The step-by-step engine (:class:`~repro.simulation.engine.PatternSimulator`)
pays Python interpreter overhead for every simulated operation of every
pattern instance.  This module removes that bottleneck for the general
case: it simulates *thousands of independent pattern instances at once*,
advancing each instance by one operation per NumPy pass over a
struct-of-arrays state (program counter, pending silent corruptions,
elapsed time, per-instance counters).

Semantics are the step engine's, for **any** pattern shape (n segments x
m chunks, partial verifications with recall ``r``, guaranteed
verifications, memory/disk checkpoints) and for **both**
``fail_stop_in_operations`` settings -- the property-based harness in
``tests/test_engine_equivalence.py`` asserts the statistical equivalence.
The flat operation schedule and detection probability come from
:mod:`repro.simulation.model`, the single source of truth shared with the
step engine, so the two cannot drift.

Pattern instances are independent (the disk checkpoint ending each
pattern makes progress permanent, and the Poisson error processes are
memoryless), so a Monte-Carlo campaign of ``n_runs`` runs x
``n_patterns`` patterns is one batch of ``n_runs * n_patterns``
instances, reduced per run afterwards (:meth:`GeneralBatchResult.to_stats`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Tuple

import numpy as np

from repro.core.pattern import Pattern
from repro.platforms.platform import Platform
from repro.simulation.model import (
    OP_COMPUTE,
    OP_DISK_CKPT,
    OP_MEM_CKPT,
    OP_VERIFY,
    OpSchedule,
    detection_probability,
)
from repro.simulation.stats import COUNTER_FIELDS, SimulationStats


@dataclass(frozen=True)
class GeneralBatchResult:
    """Result of a vectorised general-pattern batch.

    Attributes
    ----------
    times:
        Wall-clock time of each simulated pattern instance, shape ``(n,)``
        (including all recoveries and re-executions).
    counters:
        Per-instance counter arrays (shape ``(n,)``, int64), keyed by the
        :class:`~repro.simulation.stats.SimulationStats` counter field
        names.
    pattern_work:
        Useful work ``W`` of one pattern instance.
    """

    times: np.ndarray
    counters: Dict[str, np.ndarray]
    pattern_work: float

    @property
    def n(self) -> int:
        """Number of simulated pattern instances."""
        return int(self.times.size)

    def mean_time(self) -> float:
        """Mean pattern execution time."""
        return float(self.times.mean())

    def overhead(self) -> float:
        """Batch overhead ``mean(times) / W - 1``."""
        return self.mean_time() / self.pattern_work - 1.0

    def total(self, counter: str) -> int:
        """Total of one counter across the batch."""
        return int(self.counters[counter].sum())

    def to_stats(self, n_runs: int = 1) -> List[SimulationStats]:
        """Reduce the batch into ``n_runs`` equal-sized run statistics.

        Instances ``[i * k, (i+1) * k)`` (``k = n / n_runs``) form run
        ``i``, mirroring how the step engine's runner executes ``k``
        consecutive patterns per run.
        """
        if n_runs <= 0:
            raise ValueError(f"n_runs must be positive, got {n_runs}")
        if self.n % n_runs != 0:
            raise ValueError(
                f"batch of {self.n} instances does not split into "
                f"{n_runs} equal runs"
            )
        per_run = self.n // n_runs
        # Row-wise sums over the (n_runs, per_run) views are bit-identical
        # to per-slice 1-D sums (NumPy's pairwise reduction runs per output
        # element over the same contiguous data), but cost one NumPy call
        # per array instead of one per run.
        run_times = self.times.reshape(n_runs, per_run).sum(axis=1)
        run_counters = {
            name: self.counters[name].reshape(n_runs, per_run).sum(axis=1)
            for name in COUNTER_FIELDS
        }
        return [
            SimulationStats(
                total_time=float(run_times[i]),
                useful_work=self.pattern_work * per_run,
                patterns_completed=per_run,
                **{
                    name: int(run_counters[name][i])
                    for name in COUNTER_FIELDS
                },
            )
            for i in range(n_runs)
        ]


@dataclass(frozen=True)
class ScheduleArrays:
    """An :class:`OpSchedule` plus the prefix sums the batch engines use.

    Index ``i`` of each prefix array covers the operations strictly
    before ``i``: wall-clock duration (``P``), silent/compute exposure
    (``Pc``), and completed partial-verification / guaranteed-
    verification / memory-checkpoint counts.  The fail-stop exposure is
    ``P`` when resilience operations are vulnerable and ``Pc``
    otherwise -- a selection, not a third array.  All arrays are frozen.
    """

    sched: OpSchedule
    P: np.ndarray
    Pc: np.ndarray
    n_partial_pre: np.ndarray
    n_guar_pre: np.ndarray
    n_mem_pre: np.ndarray


def _prefix(values: np.ndarray) -> np.ndarray:
    """Frozen exclusive prefix sum: ``out[i] = sum(values[:i])``.

    ``np.add.accumulate`` is what ``np.cumsum`` runs for float64, without
    its dispatch overhead.
    """
    out = np.zeros(values.size + 1, dtype=np.float64)
    np.add.accumulate(values, out=out[1:])
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class _ScheduleTemplate:
    """The ``W``-free part of a schedule, shared by every period.

    ``base`` is the schedule at a placeholder period; only the durations
    of its compute operations (at indices ``comp``) depend on ``W``.
    Compute operation ``k`` is chunk fraction ``beta[k]`` of segment
    ``seg[k]``, whose fraction of the pattern is ``alpha[seg[k]]``.
    """

    base: OpSchedule
    comp: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    seg: np.ndarray
    n_partial_pre: np.ndarray
    n_guar_pre: np.ndarray
    n_mem_pre: np.ndarray


@lru_cache(maxsize=512)
def _schedule_template(
    alpha: Tuple[float, ...],
    betas: Tuple[Tuple[float, ...], ...],
    V: float,
    V_star: float,
    r: float,
    C_M: float,
    C_D: float,
) -> _ScheduleTemplate:
    from repro.platforms.platform import ResilienceCosts

    costs = Platform(
        name="<schedule>",
        nodes=1,
        lambda_f=0.0,
        lambda_s=0.0,
        costs=ResilienceCosts(
            C_D=C_D, C_M=C_M, R_D=C_D, R_M=C_M, V_star=V_star, V=V, r=r
        ),
    )
    base = OpSchedule.from_pattern(Pattern(1.0, alpha, betas), costs)
    for arr in vars(base).values():
        arr.setflags(write=False)
    is_ver = base.kinds == OP_VERIFY
    comp = np.flatnonzero(base.kinds == OP_COMPUTE)
    return _ScheduleTemplate(
        base=base,
        comp=comp,
        alpha=np.array(alpha, dtype=np.float64),
        beta=np.array([b for bs in betas for b in bs], dtype=np.float64),
        seg=base.segment_index[comp],
        n_partial_pre=_prefix((is_ver & ~base.guaranteed).astype(np.float64)),
        n_guar_pre=_prefix((is_ver & base.guaranteed).astype(np.float64)),
        n_mem_pre=_prefix((base.kinds == OP_MEM_CKPT).astype(np.float64)),
    )


@lru_cache(maxsize=512)
def _schedule_arrays_cached(
    pattern: Pattern,
    V: float,
    V_star: float,
    r: float,
    C_M: float,
    C_D: float,
) -> ScheduleArrays:
    tmpl = _schedule_template(
        pattern.alpha, pattern.betas, V, V_star, r, C_M, C_D
    )
    base = tmpl.base
    chunks = tmpl.beta * (tmpl.alpha * pattern.W)[tmpl.seg]
    durations = base.durations.copy()
    durations[tmpl.comp] = chunks
    exposure = np.zeros(durations.size)
    exposure[tmpl.comp] = chunks
    P = _prefix(durations)
    Pc = _prefix(exposure)
    durations.setflags(write=False)
    return ScheduleArrays(
        sched=replace(base, durations=durations),
        P=P,
        Pc=Pc,
        n_partial_pre=tmpl.n_partial_pre,
        n_guar_pre=tmpl.n_guar_pre,
        n_mem_pre=tmpl.n_mem_pre,
    )


def schedule_arrays(pattern: Pattern, platform: Platform) -> ScheduleArrays:
    """Schedule + prefix sums for a (pattern, cost vector) pair.

    Shared by the fast engine and the packed engine so their prefix
    arithmetic cannot drift: both gather from these frozen arrays.
    Everything but ``W`` comes from a per-process template memoised on
    the shape and the cost vector (``alpha``, ``betas``, ``V``, ``V*``,
    ``r``, ``C_M``, ``C_D``), so a sweep over error rates builds each
    shape's schedule once.  Per period, only the compute durations are
    computed, as one vector ``beta * (alpha * W)[segment]`` -- the IEEE
    operations of :attr:`~repro.core.pattern.Segment.chunk_lengths` --
    followed by the ``P`` and ``Pc`` prefix sums.  The result equals
    :meth:`OpSchedule.from_pattern` and its prefixes element for
    element.  A second memo, keyed on the pattern itself (``W``
    included), keeps a repeated configuration, such as a daemon's
    catalog point, at one lookup per call.
    """
    return _schedule_arrays_cached(
        pattern,
        platform.V,
        platform.V_star,
        platform.r,
        platform.C_M,
        platform.C_D,
    )


def _recover_batch(
    idx: np.ndarray,
    rng: np.random.Generator,
    platform: Platform,
    vulnerable: bool,
    times: np.ndarray,
    counters: Dict[str, np.ndarray],
    max_rounds: int,
) -> None:
    """Disk recovery (``R_D`` then ``R_M``) for all instances in ``idx``.

    Vectorised equivalent of the step engine's retry structure
    (Equations (30)-(31)): a fault during the disk step restarts that
    step; a fault during the memory step restarts the whole recovery.
    One disk recovery and one memory recovery are counted per instance
    regardless of retries.  Mutates ``times`` and ``counters`` in place.
    """
    lf = platform.lambda_f
    R_D, R_M = platform.R_D, platform.R_M
    if not vulnerable or lf == 0.0:
        times[idx] += R_D + R_M
        counters["disk_recoveries"][idx] += 1
        counters["memory_recoveries"][idx] += 1
        return
    rem = idx
    # stage 0 = disk step, stage 1 = memory step; 2 = recovered.
    stage = np.zeros(rem.size, dtype=np.int8)
    rounds = 0
    while rem.size:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"{rem.size} instances still in disk recovery after "
                f"{max_rounds} rounds; recovery costs are far beyond "
                "the fail-stop MTBF"
            )
        dur = np.where(stage == 0, R_D, R_M)
        t_fail = rng.exponential(1.0 / lf, size=rem.size)
        hit = t_fail < dur
        times[rem] += np.where(hit, t_fail, dur)
        counters["fail_stop_errors"][rem[hit]] += 1
        # A hit sends the instance back to the disk step (for the disk
        # step itself, that's a plain retry); success advances one stage.
        stage = np.where(hit, 0, stage + 1).astype(np.int8)
        done = stage == 2
        fin = rem[done]
        counters["disk_recoveries"][fin] += 1
        counters["memory_recoveries"][fin] += 1
        rem = rem[~done]
        stage = stage[~done]


def simulate_general_batch(
    pattern: Pattern,
    platform: Platform,
    n_instances: int,
    rng: np.random.Generator,
    *,
    fail_stop_in_operations: bool = True,
    max_sweeps: int = 1_000_000,
) -> GeneralBatchResult:
    """Simulate ``n_instances`` independent pattern instances, vectorised.

    Instances with no pending corruption jump straight to their next
    stochastic event -- the first fail-stop strike, the first silent
    strike, or the end of the pattern -- in one ``searchsorted`` over the
    schedule's exposure prefix sums (exact by memorylessness of the
    Poisson error processes: redrawing the time-to-next-error per
    operation, as the step engine does, is distributionally identical to
    one draw against the concatenated exposure).  Instances carrying a
    pending corruption advance one operation per pass, because every
    verification they meet is a fresh Bernoulli detection trial.

    Parameters
    ----------
    pattern:
        The pattern to execute (any shape).
    platform:
        Error rates and resilience costs.  For the starred families pass
        the guaranteed-verification view (see
        :func:`repro.core.formulas.simulation_costs`).
    n_instances:
        Batch size; all instances are independent.
    fail_stop_in_operations:
        When True (the paper's simulator), fail-stop errors can strike
        during verifications, checkpoints and recoveries; when False only
        computations are vulnerable.
    max_sweeps:
        Safety bound on NumPy passes (each pass advances every running
        instance by at least one operation); exceeding it indicates the
        pattern is absurdly long for the platform MTBF.
    """
    if n_instances <= 0:
        raise ValueError(f"n_instances must be positive, got {n_instances}")
    arrays = schedule_arrays(pattern, platform)
    sched = arrays.sched
    n_ops = sched.n_ops
    lf, ls = platform.lambda_f, platform.lambda_s
    R_M = platform.R_M
    vulnerable_ops = fail_stop_in_operations

    # Prefix sums over the schedule (index i = ops strictly before i):
    # wall-clock duration, fail-stop exposure, silent (compute) exposure,
    # and completed-operation counts for the jump path's accounting.
    P = arrays.P
    Pc = arrays.Pc                              # silent (compute) exposure
    Pv = P if vulnerable_ops else Pc            # fail-stop exposure
    n_partial_pre = arrays.n_partial_pre
    n_guar_pre = arrays.n_guar_pre
    n_mem_pre = arrays.n_mem_pre

    n = n_instances
    pc = np.zeros(n, dtype=np.int64)
    pending = np.zeros(n, dtype=np.int64)
    times = np.zeros(n, dtype=np.float64)
    counters = {name: np.zeros(n, dtype=np.int64) for name in COUNTER_FIELDS}

    def _count_span(idx: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
        """Credit the completed operations in schedule span [a, b)."""
        counters["partial_verifications"][idx] += (
            n_partial_pre[b] - n_partial_pre[a]
        ).astype(np.int64)
        counters["guaranteed_verifications"][idx] += (
            n_guar_pre[b] - n_guar_pre[a]
        ).astype(np.int64)
        counters["memory_checkpoints"][idx] += (
            n_mem_pre[b] - n_mem_pre[a]
        ).astype(np.int64)

    active = np.arange(n)
    sweeps = 0
    while active.size:
        sweeps += 1
        if sweeps > max_sweeps:
            raise RuntimeError(
                f"{active.size} instances still running after {max_sweeps} "
                "sweeps; the pattern is far beyond the platform MTBF"
            )
        pend = pending[active]
        clean = active[pend == 0]
        dirty = active[pend > 0]
        recover = []

        # ---- clean instances: jump to the next stochastic event ----------
        if clean.size:
            a = pc[clean]
            k = clean.size
            # Subnormal rates overflow the division to inf, which is the
            # correct "no strike within the schedule" outcome.
            with np.errstate(over="ignore"):
                if lf > 0.0:
                    target_v = Pv[a] + rng.standard_exponential(k) / lf
                    b_f = np.searchsorted(Pv, target_v, side="right") - 1
                else:
                    target_v = None
                    b_f = np.full(k, n_ops, dtype=np.int64)
                if ls > 0.0:
                    target_c = Pc[a] + rng.standard_exponential(k) / ls
                    b_s = np.searchsorted(Pc, target_c, side="right") - 1
                else:
                    b_s = np.full(k, n_ops, dtype=np.int64)

            # A crash in the same compute operation supersedes the silent
            # strike (matching the step engine), hence <=.
            crash = (b_f < n_ops) & (b_f <= b_s)
            strike = (b_s < n_ops) & (b_s < b_f)
            finish = ~crash & ~strike

            idx = clean[crash]
            if idx.size:
                bf, ac = b_f[crash], a[crash]
                # Completed ops [ac, bf), then the partial crash op.
                times[idx] += P[bf] - P[ac] + (target_v[crash] - Pv[bf])
                _count_span(idx, ac, bf)
                counters["fail_stop_errors"][idx] += 1
                recover.append(idx)
            idx = clean[strike]
            if idx.size:
                bs, ac = b_s[strike], a[strike]
                # Completed ops [ac, bs] including the struck compute.
                times[idx] += P[bs + 1] - P[ac]
                _count_span(idx, ac, bs + 1)
                counters["silent_errors"][idx] += 1
                pending[idx] = 1
                pc[idx] = bs + 1
            idx = clean[finish]
            if idx.size:
                ac = a[finish]
                times[idx] += P[n_ops] - P[ac]
                _count_span(idx, ac, np.full(idx.size, n_ops))
                counters["disk_checkpoints"][idx] += 1
                pc[idx] = n_ops  # pattern complete

        # ---- dirty instances: one operation per pass ----------------------
        if dirty.size:
            cur = pc[dirty]
            kinds = sched.kinds[cur]
            od = sched.durations[cur]
            k = dirty.size
            if lf > 0.0:
                t_fail = rng.exponential(1.0 / lf, size=k)
                vulnerable = (
                    np.ones(k, dtype=bool)
                    if vulnerable_ops
                    else kinds == OP_COMPUTE
                )
                crashed = vulnerable & (t_fail < od)
                times[dirty] += np.where(crashed, t_fail, od)
            else:
                crashed = np.zeros(k, dtype=bool)
                times[dirty] += od
            counters["fail_stop_errors"][dirty[crashed]] += 1
            if crashed.any():
                recover.append(dirty[crashed])
            ok = ~crashed

            # Compute chunks executed while corrupted: more strikes stack.
            comp = ok & (kinds == OP_COMPUTE)
            cidx = dirty[comp]
            if cidx.size and ls > 0.0:
                struck = rng.exponential(1.0 / ls, size=cidx.size) < od[comp]
                pending[cidx] += struck
                counters["silent_errors"][cidx] += struck
            pc[cidx] += 1

            ver = ok & (kinds == OP_VERIFY)
            vidx = dirty[ver]
            if vidx.size:
                guaranteed = sched.guaranteed[cur[ver]]
                counters["guaranteed_verifications"][vidx[guaranteed]] += 1
                counters["partial_verifications"][vidx[~guaranteed]] += 1
                p_det = detection_probability(
                    sched.recalls[cur[ver]], pending[vidx]
                )
                detected = rng.random(vidx.size) < p_det
                counters["silent_detections_guaranteed"][
                    vidx[detected & guaranteed]
                ] += 1
                counters["silent_detections_partial"][
                    vidx[detected & ~guaranteed]
                ] += 1
                pc[vidx[~detected]] += 1
                didx = vidx[detected]
                if didx.size:
                    # Memory recovery; a fail-stop hit during it escalates
                    # to a disk recovery and a pattern restart.
                    if vulnerable_ops and lf > 0.0 and R_M > 0.0:
                        t_rec = rng.exponential(1.0 / lf, size=didx.size)
                        esc = t_rec < R_M
                        times[didx] += np.where(esc, t_rec, R_M)
                    else:
                        esc = np.zeros(didx.size, dtype=bool)
                        times[didx] += R_M
                    counters["fail_stop_errors"][didx[esc]] += 1
                    good = didx[~esc]
                    counters["memory_recoveries"][good] += 1
                    # Roll the segment back to its first operation.
                    pc[good] = sched.segment_start[pc[good]]
                    pending[good] = 0
                    if esc.any():
                        recover.append(didx[esc])

            # Checkpoints are unreachable with a pending corruption (the
            # guaranteed verification always detects first), but handle
            # them anyway so the loop is total.
            midx = dirty[ok & (kinds == OP_MEM_CKPT)]
            counters["memory_checkpoints"][midx] += 1
            pc[midx] += 1
            dcidx = dirty[ok & (kinds == OP_DISK_CKPT)]
            counters["disk_checkpoints"][dcidx] += 1
            pc[dcidx] = n_ops

        # ---- disk recovery + pattern restart ------------------------------
        if recover:
            ri = recover[0] if len(recover) == 1 else np.concatenate(recover)
            _recover_batch(
                ri, rng, platform, vulnerable_ops, times, counters,
                max_sweeps,
            )
            pc[ri] = 0
            pending[ri] = 0

        active = active[pc[active] < n_ops]

    return GeneralBatchResult(
        times=times, counters=counters, pattern_work=pattern.W
    )


def run_monte_carlo_fast(
    pattern: Pattern,
    platform: Platform,
    *,
    n_patterns: int,
    n_runs: int,
    rng: np.random.Generator,
    fail_stop_in_operations: bool = True,
) -> List[SimulationStats]:
    """Monte-Carlo campaign on the vectorised engine: per-run statistics.

    One batch of ``n_runs * n_patterns`` independent instances, reduced
    into ``n_runs`` :class:`SimulationStats` of ``n_patterns`` patterns
    each -- the exact shape the step-engine runner produces.
    """
    if n_patterns <= 0:
        raise ValueError(f"n_patterns must be positive, got {n_patterns}")
    if n_runs <= 0:
        raise ValueError(f"n_runs must be positive, got {n_runs}")
    batch = simulate_general_batch(
        pattern,
        platform,
        n_runs * n_patterns,
        rng,
        fail_stop_in_operations=fail_stop_in_operations,
    )
    return batch.to_stats(n_runs)
