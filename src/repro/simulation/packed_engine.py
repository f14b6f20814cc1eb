"""The vectorised Monte-Carlo engine: many pattern instances per NumPy pass.

The step-by-step engine (:class:`~repro.simulation.engine.PatternSimulator`)
pays Python interpreter overhead for every simulated operation of every
pattern instance.  This module simulates *thousands of independent
pattern instances at once*, from one (pattern, platform) point or from
many different points, as one ragged struct-of-arrays batch: per-row
program counters, pending silent corruptions, elapsed times and
counters; per-row segment tables via offset gathers, per-row error rates
and recovery costs, mask-based sub-setting instead of padding.  The
whole batch advances together, and its sweep count is the *maximum*
over its points, not the sum: the long per-point tails, where a handful
of straggler instances keep a batch looping, overlap instead of
serialising.

Semantics are the step engine's, for **any** pattern shape (n segments x
m chunks, partial verifications with recall ``r``, guaranteed
verifications, memory/disk checkpoints) and for **both**
``fail_stop_in_operations`` settings, per job -- the property-based
harness in ``tests/test_engine_equivalence.py`` asserts the statistical
equivalence.  The flat operation schedule and detection probability
come from :mod:`repro.simulation.model`, the single source of truth
shared with the step engine, so the two cannot drift.

Pattern instances are independent (the disk checkpoint ending each
pattern makes progress permanent, and the Poisson error processes are
memoryless), so a Monte-Carlo campaign of ``n_runs`` runs x
``n_patterns`` patterns is one job of ``n_runs * n_patterns`` instances,
reduced per run afterwards (:meth:`GeneralBatchResult.to_stats`).  The
``fast`` engine tier is a packed batch of one job
(:func:`repro.simulation.dispatch.run_stats`); the campaign planner and
the daemon pack many points into one mega-batch.

**Draw identity.**  Every packed job carries its own
:class:`numpy.random.Generator` -- in the campaign planner, the exact
per-point generator the fast tier derives from the campaign seed and the
point's configuration fingerprint (one ``SeedSequence`` child keyed by
the point's content hash; see :func:`repro.simulation.dispatch.tier_rng`).
Inside each sweep, every draw site consumes from the per-job generators
in job order, each job's count and instance order depending only on
that job's own state.  By induction the per-job state trajectories --
and therefore times, counters and :class:`GeneralBatchResult`
reductions -- are **bit-identical** whatever the packing: alone, in
pairs, or a whole campaign in one batch.  The golden fixture
``tests/golden/draw_identity_golden.json`` pins the batches of one job
(SHA-256 digests of every per-instance array), and
``tests/test_packed_engine.py`` asserts that every packing reproduces
them.  Because results do not depend on the packing, a ``fast`` point
and the same ``auto`` point inside a mega-batch share
:data:`~repro.simulation.model.SEMANTICS_VERSION` and cache entries.

**Sweep structure.**  The only per-job Python work in a sweep is one
generator call per job and draw site, filling that job's slice of a
batch-wide buffer (``standard_exponential(out=...)`` or
``random(out=...)``).  Everything else runs once per sweep over all
rows: the per-row schedule gathers, the exposure targets, the
``exponential(1 / rate)`` scaling (one multiply by a per-row scale
vector), both next-event searches, the strike, detection and recovery
outcomes, the counter updates and the disk-recovery retry rounds.  Two
NumPy identities make each job's draws exactly its generator's
``exponential(1 / rate, k)`` and ``random(k)`` streams
(``tests/test_packed_engine.py`` pins them, so a NumPy release that
breaks one fails loudly):

* ``Generator.exponential(scale, n)`` is ``scale * standard_exponential``
  variate by variate, so filling standard variates and scaling them
  afterwards reproduces ``exponential`` calls bit for bit; likewise
  ``random(out=)`` equals ``random(n)``;
* the stream is consumed variate by variate, so the clean pass's one
  fused ``2k`` fill per job (``[e_f | e_s]``) equals two ``k``-draws.

The next-event searches use lexicographic ``(job, prefix)`` keys: complex
numbers with the job index as real part and the exposure prefix as
imaginary part, which NumPy orders by real part, then imaginary part.
One ``searchsorted`` over the concatenated keys therefore finds each
row's position inside its own job's block with exactly the comparisons
of a per-job search.

All per-row arithmetic gathers each row's *own* schedule values from
concatenated tables (never offset-shifted copies), so no floating-point
operation depends on the other jobs of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple, Union

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

    The packed batch gathers every row's schedule values from these
    frozen arrays.  Everything but ``W`` comes from a per-process
    template memoised on the shape and the cost vector (``alpha``,
    ``betas``, ``V``, ``V*``, ``r``, ``C_M``, ``C_D``), so a sweep over
    error rates builds each shape's schedule once.  Per period, only the
    compute durations are computed, as one vector
    ``beta * (alpha * W)[segment]`` -- the IEEE operations of
    :attr:`~repro.core.pattern.Segment.chunk_lengths` -- followed by the
    ``P`` and ``Pc`` prefix sums.  The result equals
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


#: Debug/telemetry snapshot of the most recent packed batch in this
#: process: sweep count, peak rows, and cumulative clean/dirty row
#: visits.  Written (not read) by :func:`simulate_packed_batch`; tests
#: and benchmarks use it to characterise workloads.
last_batch_stats: dict = {}

#: Version of the packed execution layer.  Draw identity across packings
#: is the packed engine's contract (asserted by the invariance test
#: suite), so this version does **not** participate in the cache keys of
#: ``auto``/``fast`` points -- their entries are fast-tier entries.  It is
#: carried only by explicitly ``engine="packed"`` points, whose keys are
#: new anyway, so a packed-layer fix can invalidate exactly those rows.
PACKED_VERSION = 1


@dataclass(frozen=True)
class PackedJob:
    """One point's share of a packed batch.

    Attributes
    ----------
    pattern, platform:
        The simulation configuration (for starred families pass the
        guaranteed-verification platform view; see
        :func:`repro.core.formulas.simulation_costs`).
    n_instances:
        Independent pattern instances this job contributes.
    rng:
        The job's private generator.  Must not be shared between jobs of
        one batch: draw identity relies on each job consuming its own
        stream.
    fail_stop_in_operations:
        Whether fail-stop errors strike resilience operations (may differ
        between jobs of one batch).
    """

    pattern: Pattern
    platform: Platform
    n_instances: int
    rng: np.random.Generator
    fail_stop_in_operations: bool = True

    def __post_init__(self) -> None:
        if self.n_instances <= 0:
            raise ValueError(
                f"n_instances must be positive, got {self.n_instances}"
            )


#: The counters the clean pass credits per completed op span, in the row
#: order of :attr:`_Pack.span_cat`; they lead the engine's counter matrix.
_SPAN_FIELDS = (
    "memory_checkpoints",
    "partial_verifications",
    "guaranteed_verifications",
)
_FIELDS = _SPAN_FIELDS + tuple(
    name for name in COUNTER_FIELDS if name not in _SPAN_FIELDS
)


class _Pack:
    """The ragged struct-of-arrays layout of one packed batch."""

    def __init__(self, jobs: Sequence[PackedJob]):
        J = len(jobs)
        arrays = [schedule_arrays(job.pattern, job.platform) for job in jobs]
        self.n_ops = np.array([a.sched.n_ops for a in arrays], dtype=np.int64)
        self.lf, self.ls, self.R_D, self.R_M = np.array([
            (p.lambda_f, p.lambda_s, p.R_D, p.R_M)
            for p in (job.platform for job in jobs)
        ], dtype=np.float64).T
        self.vuln = np.array(
            [job.fail_stop_in_operations for job in jobs], dtype=bool
        )
        self.has_f = self.lf > 0.0
        self.has_s = self.ls > 0.0
        # The ``exponential(1.0 / rate)`` scales, per job.
        # Zero-rate jobs draw nothing: their buffer slots stay +inf ("no
        # strike") and keep scale 1 so that the scaling leaves them so.
        self.scale_f = np.divide(
            1.0, self.lf, out=np.ones(J), where=self.has_f
        )
        self.scale_s = np.divide(
            1.0, self.ls, out=np.ones(J), where=self.has_s
        )
        # Memory recoveries draw only where a fail-stop strike can
        # escalate them; disk recoveries are flat costs where none can.
        self.mem_draw = self.vuln & self.has_f & (self.R_M > 0.0)
        self.any_rate = self.has_f | self.has_s
        self.flat_recovery = ~(self.vuln & self.has_f)

        sizes = [job.n_instances for job in jobs]
        self.op_off = np.concatenate(([0], np.cumsum(self.n_ops)))
        self.pre_off = np.concatenate(([0], np.cumsum(self.n_ops + 1)))
        self.row_off = np.concatenate(([0], np.cumsum(sizes)))
        self.job_edges = np.arange(J + 1)
        self.n_rows = int(self.row_off[-1])
        self.row_job = np.repeat(np.arange(J), sizes)
        self.row_n_ops = self.n_ops[self.row_job]

        def cat(name: str) -> np.ndarray:
            return np.concatenate([getattr(a.sched, name) for a in arrays])

        self.kinds_cat = cat("kinds")
        self.durs_cat = cat("durations")
        self.recalls_cat = cat("recalls")
        self.guar_cat = cat("guaranteed")
        self.segstart_cat = cat("segment_start")
        self.P_cat = np.concatenate([a.P for a in arrays])
        self.Pc_cat = np.concatenate([a.Pc for a in arrays])
        self.Pv_cat = np.concatenate([
            a.P if job.fail_stop_in_operations else a.Pc
            for a, job in zip(arrays, jobs)
        ])
        # Completed-op counts before each op, one row per _SPAN_FIELDS.
        self.span_cat = np.array([
            np.concatenate([a.n_mem_pre for a in arrays]),
            np.concatenate([a.n_partial_pre for a in arrays]),
            np.concatenate([a.n_guar_pre for a in arrays]),
        ], dtype=np.int64)

        # Lexicographic (job, prefix) search keys (see the module
        # docstring).
        pre_job = np.repeat(np.arange(J), self.n_ops + 1)
        self.Pv_key = _job_keys(pre_job, self.Pv_cat)
        self.Pc_key = _job_keys(pre_job, self.Pc_cat)

        # Bound generator methods, one per job: the sweep's only per-job
        # Python work is calling these.
        self.std_exp = [job.rng.standard_exponential for job in jobs]
        self.uniform = [job.rng.random for job in jobs]

    def bounds(self, rows: np.ndarray) -> np.ndarray:
        """Per-job slice bounds of a *sorted* global-row subset.

        Job ``j`` owns ``rows[b[j] : b[j + 1]]``.  Rows are laid out
        contiguously per job, so a sorted subset keeps each job's
        instances in the order they have in a batch of one.
        """
        return rows.searchsorted(self.row_off)

    def fill(
        self,
        fills: List,
        buf: np.ndarray,
        bounds: np.ndarray,
        draws: Union[np.ndarray, bool],
    ) -> None:
        """Fill each job's ``buf[bounds[j] : bounds[j + 1]]`` from its
        own generator, for the jobs with rows there and ``draws[j]``."""
        lo, hi = bounds[:-1], bounds[1:]
        jobs = ((hi > lo) & draws).nonzero()[0]
        _fill(fills, buf, jobs, lo[jobs], hi[jobs])


def _job_keys(job: np.ndarray, value: np.ndarray) -> np.ndarray:
    """Complex ``job + value * 1j`` keys; assignment, not arithmetic,
    so every imaginary part is exactly its value."""
    key = np.empty(value.size, dtype=np.complex128)
    key.real = job
    key.imag = value
    return key


def _fill(
    fills: List,
    buf: np.ndarray,
    jobs: np.ndarray,
    starts: np.ndarray,
    stops: np.ndarray,
) -> None:
    """Fill ``buf[starts[i] : stops[i]]`` with ``fills[jobs[i]]``.

    The only per-job loop of a sweep: one generator call per job and
    draw site, in job order, each consuming the job's stream exactly as
    it would in a batch of one.
    """
    for j, s, e in zip(jobs.tolist(), starts.tolist(), stops.tolist()):
        fills[j](out=buf[s:e])


def _recover_packed(
    pack: _Pack,
    ri: np.ndarray,
    times: np.ndarray,
    counters: dict,
    max_rounds: int,
) -> None:
    """Disk recovery (``R_D`` then ``R_M``) for rows ``ri``, in site order.

    The retry structure of Equations (30)-(31): a fault during the disk
    step restarts that step; a fault during the memory step restarts the
    whole recovery.  One disk recovery and one memory recovery are
    counted per instance regardless of retries.  Jobs whose recovery
    cannot be struck (resilience operations invulnerable, or a zero
    fail-stop rate) pay the flat ``R_D + R_M``.  Every retry round draws
    each job's variates from its own generator, in the order of the
    job's rows in ``ri``.  Mutates ``times`` and ``counters`` in place.
    """
    trivial = pack.flat_recovery[pack.row_job[ri]]
    tidx = ri[trivial]
    if tidx.size:
        tj = pack.row_job[tidx]
        times[tidx] += pack.R_D[tj] + pack.R_M[tj]
    # Every instance ends with exactly one disk and one memory recovery,
    # however many retries it takes.
    counters["disk_recoveries"][ri] += 1
    counters["memory_recoveries"][ri] += 1
    rem = ri[~trivial]
    if not rem.size:
        return
    # Group by job once; the stable sort keeps each job's rows in
    # subsequence order, and later rounds only drop rows.
    rem = rem[np.argsort(pack.row_job[rem], kind="stable")]
    stage = np.zeros(rem.size, dtype=np.int64)
    rounds = 0
    while rem.size:
        rounds += 1
        if rounds > max_rounds:
            raise RuntimeError(
                f"{rem.size} instances still in disk recovery after "
                f"{max_rounds} rounds; recovery costs are far beyond "
                "the fail-stop MTBF"
            )
        jb = pack.row_job[rem]
        dur = np.where(stage == 0, pack.R_D[jb], pack.R_M[jb])
        t_fail = np.empty(rem.size, dtype=np.float64)
        pack.fill(pack.std_exp, t_fail, jb.searchsorted(pack.job_edges), True)
        t_fail *= pack.scale_f[jb]
        hit = t_fail < dur
        times[rem] += np.where(hit, t_fail, dur)
        counters["fail_stop_errors"][rem[hit]] += 1
        # A hit sends the instance back to the disk step; success
        # advances one stage, and stage 2 is recovered.
        stage = np.where(hit, 0, stage + 1)
        left = stage < 2
        rem = rem[left]
        stage = stage[left]


def simulate_packed_batch(
    jobs: Sequence[PackedJob],
    *,
    max_sweeps: int = 1_000_000,
) -> List[GeneralBatchResult]:
    """Simulate many heterogeneous points in one vectorised mega-batch.

    Returns one :class:`GeneralBatchResult` per job, in job order, each
    bit-identical to the job's batch of one with the same generator
    state, whatever else the batch holds.  Instances with no pending
    corruption jump straight to their next stochastic event -- the first
    fail-stop strike, the first silent strike, or the end of the pattern
    -- in one ``searchsorted`` over the schedule's exposure prefix sums
    (exact by memorylessness: redrawing the time-to-next-error per
    operation, as the step engine does, is distributionally identical to
    one draw against the concatenated exposure).  Instances carrying a
    pending corruption advance one operation per pass, because every
    verification they meet is a fresh Bernoulli detection trial.

    Parameters
    ----------
    jobs:
        The points to pack.  Each must carry a private generator.
    max_sweeps:
        Safety bound on NumPy passes over the batch (each pass advances
        every running instance by at least one operation; the sweep
        count is the maximum of the per-job counts, so the bound does
        not depend on the packing).  Exceeding it indicates a pattern
        absurdly long for its platform MTBF.
    """
    jobs = list(jobs)
    if not jobs:
        return []
    if len({id(job.rng) for job in jobs}) != len(jobs):
        raise ValueError(
            "packed jobs must carry distinct generator objects; sharing "
            "one stream between jobs breaks draw identity across packings"
        )
    # Rates below about 1e-306 overflow their exponential scales (and
    # the draws they multiply) to inf: the intended "no strike".
    with np.errstate(over="ignore"):
        pack = _Pack(jobs)
        N = pack.n_rows
        J = len(jobs)

        pc = np.zeros(N, dtype=np.int64)        # local op index within the job
        pending = np.zeros(N, dtype=np.int64)
        times = np.zeros(N, dtype=np.float64)
        # One counter matrix, span counters first, so the clean pass credits
        # all three with one update; ``counters`` holds its row views.
        counts = np.zeros((len(_FIELDS), N), dtype=np.int64)
        counters = dict(zip(_FIELDS, counts))

        row_job = pack.row_job
        op_off = pack.op_off
        pre_off = pack.pre_off
        row_n_ops = pack.row_n_ops
        std_exp = pack.std_exp

        active = np.arange(N)
        sweeps = 0
        clean_visits = 0
        dirty_visits = 0
        job_sweeps = 0
        while active.size:
            sweeps += 1
            if sweeps > max_sweeps:
                raise RuntimeError(
                    f"{active.size} instances still running after "
                    f"{max_sweeps} sweeps; some pattern is far beyond its "
                    "platform MTBF"
                )
            pend = pending[active]
            clean = active[pend == 0]
            dirty = active[pend > 0]
            recover: List[np.ndarray] = []

            # ---- clean instances: jump to the next stochastic event ------
            if clean.size:
                a = pc[clean]
                k = clean.size
                jb = row_job[clean]
                bounds = pack.bounds(clean)
                lo, hi = bounds[:-1], bounds[1:]
                size = hi - lo
                clean_visits += k
                job_sweeps += int(np.count_nonzero(size))
                # Job j's draws go to the block [2 lo[j], 2 hi[j]): e_f in the
                # first half, e_s in the second.  With both rates positive,
                # one fused call fills the block (NumPy's exponential stream
                # is consumed variate by variate, so one 2k-draw is
                # bit-identical to two k-draws); with one, a k-call fills its
                # half.  Unfilled halves stay +inf: a zero rate's target is
                # +inf, so its search lands past the schedule end ("no
                # strike").  Subnormal rates overflow the division to inf,
                # the same outcome.
                draws = np.full(2 * k, np.inf)
                djobs = (size * pack.any_rate).nonzero()[0]
                _fill(
                    std_exp, draws, djobs,
                    np.where(pack.has_f, 2 * lo, lo + hi)[djobs],
                    np.where(pack.has_s, 2 * hi, lo + hi)[djobs],
                )
                at_f = np.arange(k) + lo[jb]
                row_pre = pre_off[jb]
                ga = row_pre + a
                target_v = pack.Pv_cat[ga] + draws[at_f] / pack.lf[jb]
                target_c = (
                    pack.Pc_cat[ga] + draws[at_f + size[jb]] / pack.ls[jb]
                )
                # Local index of the op in which each target falls (n_ops
                # past the end), found inside the row's own job block.
                base = row_pre + 1
                key = _job_keys(jb, target_v)
                b_f = pack.Pv_key.searchsorted(key, side="right") - base
                key.imag = target_c
                b_s = pack.Pc_key.searchsorted(key, side="right") - base

                n_ops_c = row_n_ops[clean]
                # A crash in the same compute operation supersedes the silent
                # strike (matching the step engine), hence <=.
                crash = (b_f < n_ops_c) & (b_f <= b_s)
                strike = (b_s < n_ops_c) & (b_s < b_f)

                # One unified pass over all clean rows: every outcome credits
                # the completed span [a, b_end) -- b_end is the crash op for
                # crashes, the struck compute + 1 for silent strikes, and the
                # schedule end for error-free finishes -- and crashes add the
                # partial crash-op time on top.  Per row this evaluates
                # exactly the per-outcome expressions P[b] - P[a] (+ the
                # crash-op remainder): the crash extra term is +0.0
                # elsewhere, and all span increments are non-negative, so
                # adding it is bit-neutral.
                b_end = np.where(
                    crash, b_f, np.where(strike, b_s + 1, n_ops_c)
                )
                gb = row_pre + b_end
                extra = np.where(crash, target_v - pack.Pv_cat[gb], 0.0)
                times[clean] += pack.P_cat[gb] - pack.P_cat[ga] + extra
                counts[: len(_SPAN_FIELDS), clean] += (
                    pack.span_cat[:, gb] - pack.span_cat[:, ga]
                )

                idx = clean[crash]
                if idx.size:
                    counters["fail_stop_errors"][idx] += 1
                    recover.append(idx)
                idx = clean[strike]
                if idx.size:
                    counters["silent_errors"][idx] += 1
                    pending[idx] = 1
                counters["disk_checkpoints"][clean[~crash & ~strike]] += 1
                # Crash rows' pc is reset by the recovery block below; strike
                # rows resume at the op after the struck compute; finished
                # rows park at the schedule end.
                pc[clean] = b_end

            # ---- dirty instances: one operation per pass ------------------
            if dirty.size:
                cur = pc[dirty]
                jb = row_job[dirty]
                g = op_off[jb] + cur
                kinds = pack.kinds_cat[g]
                od = pack.durs_cat[g]
                k = dirty.size
                bounds = pack.bounds(dirty)
                dirty_visits += k
                job_sweeps += int(np.count_nonzero(bounds[1:] > bounds[:-1]))
                # ``exponential(scale, n)`` is ``scale * standard_exponential``
                # variate by variate, so the scales are applied afterwards,
                # batch-wide.
                t_fail = np.full(k, np.inf)
                pack.fill(std_exp, t_fail, bounds, pack.has_f)
                t_fail *= pack.scale_f[jb]
                is_comp = kinds == OP_COMPUTE
                crashed = (pack.vuln[jb] | is_comp) & (t_fail < od)
                times[dirty] += np.where(crashed, t_fail, od)
                counters["fail_stop_errors"][dirty[crashed]] += 1
                if crashed.any():
                    recover.append(dirty[crashed])
                ok = ~crashed

                # Compute chunks executed while corrupted: more strikes stack.
                comp = ok & is_comp
                cidx = dirty[comp]
                if cidx.size:
                    t_strike = np.full(cidx.size, np.inf)
                    pack.fill(std_exp, t_strike, pack.bounds(cidx), pack.has_s)
                    t_strike *= pack.scale_s[jb[comp]]
                    struck = t_strike < od[comp]
                    pending[cidx] += struck
                    counters["silent_errors"][cidx] += struck
                pc[cidx] += 1

                ver = ok & (kinds == OP_VERIFY)
                vidx = dirty[ver]
                if vidx.size:
                    gv = g[ver]
                    guaranteed = pack.guar_cat[gv]
                    counters["guaranteed_verifications"][vidx[guaranteed]] += 1
                    counters["partial_verifications"][vidx[~guaranteed]] += 1
                    p_det = detection_probability(
                        pack.recalls_cat[gv], pending[vidx]
                    )
                    u = np.empty(vidx.size, dtype=np.float64)
                    pack.fill(pack.uniform, u, pack.bounds(vidx), True)
                    detected = u < p_det
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
                        dj = row_job[didx]
                        t_rec = np.full(didx.size, np.inf)
                        pack.fill(
                            std_exp, t_rec, pack.bounds(didx), pack.mem_draw
                        )
                        t_rec *= pack.scale_f[dj]
                        R_M = pack.R_M[dj]
                        esc = t_rec < R_M
                        times[didx] += np.where(esc, t_rec, R_M)
                        counters["fail_stop_errors"][didx[esc]] += 1
                        good = didx[~esc]
                        counters["memory_recoveries"][good] += 1
                        # Roll the segment back to its first operation.
                        gj = row_job[good]
                        pc[good] = pack.segstart_cat[op_off[gj] + pc[good]]
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
                pc[dcidx] = row_n_ops[dcidx]

            # ---- disk recovery + pattern restart --------------------------
            if recover:
                ri = (
                    recover[0] if len(recover) == 1
                    else np.concatenate(recover)
                )
                _recover_packed(pack, ri, times, counters, max_sweeps)
                pc[ri] = 0
                pending[ri] = 0

            active = active[pc[active] < row_n_ops[active]]

    last_batch_stats.clear()
    last_batch_stats.update(
        n_jobs=J,
        n_rows=N,
        sweeps=sweeps,
        clean_visits=clean_visits,
        dirty_visits=dirty_visits,
        job_sweeps=job_sweeps,
    )

    out: List[GeneralBatchResult] = []
    for j, job in enumerate(jobs):
        sl = slice(int(pack.row_off[j]), int(pack.row_off[j + 1]))
        out.append(
            GeneralBatchResult(
                times=times[sl],
                counters={
                    name: counters[name][sl] for name in COUNTER_FIELDS
                },
                pattern_work=job.pattern.W,
            )
        )
    return out

