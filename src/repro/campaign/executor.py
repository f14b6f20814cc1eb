"""Chunked, cached, resumable campaign execution.

The executor turns a list of scenario points into result records:

1. points already present in the JSONL *journal* are skipped (resume);
2. points whose content hash is in the :class:`ResultCache` are served
   from disk and journaled without recomputation;
3. the remaining points are carved into buckets by the shared planner
   (:func:`~repro.campaign.planner.plan_buckets` -- the same plan the
   jobs API and the daemon's process fleet use): packable *simulate*
   points (``auto`` or ``packed`` engine requests) into struct-of-arrays
   **mega-batches**, everything else into chunks grouped by evaluation
   shape and sized by the planner from the worker count (about four
   per worker) -- many small scenario points per task, amortising the
   per-task submission overhead that a one-future-per-point pool pays;
4. each bucket is one :func:`evaluate_points` call, in-process or, with
   several workers, on the same :class:`~repro.campaign.pool.EvalFleet`
   process pool the daemon uses.  One such pool per process serves
   campaigns one at a time: the first multi-worker campaign forks it,
   later ones reuse it warm (a bigger worker count forks a bigger one),
   and it closes at interpreter exit.  A mega-batch is one vectorised
   :func:`~repro.simulation.packed_engine.simulate_packed_batch` call,
   and per-point records are bit-identical to solo fast-tier runs (the
   packed engine's draw-identity contract), so packing is invisible to
   the journal and cache.  The fleet's crash recovery covers campaigns
   too: a worker killed mid-run (OOM, segfault) costs a pool rebuild
   and a bit-identical re-run of the unfinished buckets, and a point
   that keeps killing workers is bisected out and ends the run with
   :class:`~repro.campaign.pool.PoisonPointError`, every other
   finished point already journaled; the pool that convicted it keeps
   refusing it for as long as it stays resident (normally until exit,
   as the daemon's pool does).  A run that stops early
   cancels its buckets that have not started.  The Table-1 optimum of
   each (family, platform) configuration is memoised per process
   (:meth:`~repro.campaign.spec.ScenarioPoint.configuration`), so a
   worker optimises a configuration once across all its buckets.

Every bucket is committed the moment it lands: its records are encoded
once (:func:`~repro.campaign.store.encode_lines`) and the same bytes are
appended, one ``os.write`` each, to the cache's record-log segment and
to the journal (:class:`~repro.campaign.store.Journal`).  An
interrupted campaign therefore loses at most its in-flight buckets and
resumes exactly where it stopped.  A torn or corrupt journal line -- the
signature of a killed writer -- is detected, counted and skipped on
resume, never fatal.

Result records carry only computed quantities; the free-form point
``labels`` are merged in at assembly time.  That way two campaigns that
label the same physical configuration differently still share cache
entries and journal lines.
"""

from __future__ import annotations

import os
from contextlib import closing
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.campaign.cache import ResultCache, cache_key
from repro.campaign.planner import (
    DEFAULT_PACK_ROWS,
    Bucket,
    is_packable,
    plan_buckets,
)
from repro.campaign.spec import CampaignSpec, Configuration, ScenarioPoint
from repro.campaign.store import Journal


class CampaignConfigError(ValueError):
    """A campaign was configured inconsistently (flags, not computation).

    Raised by the pre-flight validations (worker count, pack budget) so
    front ends can distinguish configuration mistakes -- reportable as a
    one-line message -- from computation errors that deserve a full
    traceback.
    """


def available_cpus() -> int:
    """CPUs this process may run on: the default worker-pool size.

    Honours ``taskset`` and cpusets through the scheduler affinity mask
    where the platform has one; ``os.cpu_count()`` counts every CPU of
    the machine.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - no affinity API
        return os.cpu_count() or 1


def _analytic_record(point: ScenarioPoint) -> Dict[str, Any]:
    """The analytic-tier record for one point (single-cell batch).

    Single-cell and many-cell batches are bit-identical per cell, so the
    record does not depend on how the executor grouped the work -- a
    requirement for stable cache entries.
    """
    from repro.core.batch import evaluate_analytic

    rec = evaluate_analytic(point.build_kind(), point.build_platform())
    return {"mode": point.mode, "engine": "analytic", **rec}


def _model_record(
    point: ScenarioPoint, config: Configuration
) -> Dict[str, Any]:
    """The Table-1 optimisation fields shared by every simulate record."""
    opt = config.optimal
    return {
        "mode": point.mode,
        "kind": config.kind.value,
        "platform_name": config.platform.name,
        "H*": float(opt.H_star),
        "W_star": float(opt.W_star),
        "W*_hours": float(opt.W_star / 3600.0),
        "n*": int(opt.n),
        "m*": int(opt.m),
    }


def _packed_mc_fields_batch(
    group: "List[Tuple[ScenarioPoint, str, float]]",
    results: "List[Any]",
    useful: "Sequence[float]",
) -> List[Dict[str, Any]]:
    """Monte-Carlo record fields for a uniform-shape group of points.

    The one code path that turns Monte-Carlo runs into record fields.
    ``group`` holds ``(point, engine, predicted)`` per point, all with
    the same ``n_runs`` and ``n_patterns``.  ``results`` holds per point
    a :class:`~repro.simulation.packed_engine.GeneralBatchResult` whose
    ``times`` and ``counters`` carry ``k`` consecutive values per run:
    ``k = n_patterns`` for a packed batch's instances, ``k = 1`` for
    values already summed per run (:func:`evaluate_point`).  ``useful``
    is the useful work of each run, point by point, or one value per
    point that all its runs share.

    Row-wise reshape sums over a ``(points * runs, k)`` matrix are
    bit-identical to per-slice sums (``GeneralBatchResult.to_stats``),
    int64 counter sums are exact, and every derived quantity repeats,
    row by row, the IEEE double operations of
    :func:`~repro.simulation.stats.aggregate_stats` over the point's
    runs -- in a handful of NumPy calls for the whole group.
    ``tests/test_record_routing.py`` asserts the fields equal those
    derived from :attr:`MonteCarloResult.aggregated
    <repro.simulation.runner.MonteCarloResult.aggregated>` on every
    tier.
    """
    import math

    import numpy as np

    from repro.simulation.stats import SECONDS_PER_DAY, SECONDS_PER_HOUR

    G = len(group)
    R = group[0][0].n_runs
    per_run = group[0][0].n_patterns

    def runs_2d(values: "List[np.ndarray]") -> "np.ndarray":
        """(G, R) per-run sums of per-instance arrays."""
        return (
            np.concatenate(values).reshape(G * R, -1).sum(axis=1)
        ).reshape(G, R)

    run_times = runs_2d([res.times for res in results])
    useful = np.array(useful).reshape(G, -1)

    def counters_2d(name: str) -> "np.ndarray":
        return runs_2d(
            [res.counters[name] for res in results]
        ).astype(np.float64)

    overheads = run_times / useful - 1.0
    mean_overhead = overheads.mean(axis=1)
    if R > 1:
        std_overhead = overheads.std(axis=1, ddof=1)
        sem = std_overhead / math.sqrt(R)
    else:
        std_overhead = np.zeros(G)
        sem = np.full(G, math.nan)
    half = 1.96 * sem
    hours = run_times / SECONDS_PER_HOUR
    days = run_times / SECONDS_PER_DAY
    pats = float(max(per_run, 1))
    mean_total_time = run_times.mean(axis=1)
    verifs = counters_2d("partial_verifications") + counters_2d(
        "guaranteed_verifications"
    )
    disk_rec = counters_2d("disk_recoveries")
    mem_rec = counters_2d("memory_recoveries")
    dc_hour = np.mean(counters_2d("disk_checkpoints") / hours, axis=1)
    mc_hour = np.mean(counters_2d("memory_checkpoints") / hours, axis=1)
    v_hour = np.mean(verifs / hours, axis=1)
    dr_day = np.mean(disk_rec / days, axis=1)
    mr_day = np.mean(mem_rec / days, axis=1)
    dr_pat = np.mean(disk_rec / pats, axis=1)
    mr_pat = np.mean(mem_rec / pats, axis=1)

    out: List[Dict[str, Any]] = []
    for g, (point, engine, predicted) in enumerate(group):
        out.append(
            {
                "n_patterns": int(point.n_patterns),
                "n_runs": int(point.n_runs),
                "seed": point.seed,
                "engine": engine,
                "predicted": float(predicted),
                "simulated": float(mean_overhead[g]),
                "std_overhead": float(std_overhead[g]),
                "ci95_low": float(mean_overhead[g] - half[g]),
                "ci95_high": float(mean_overhead[g] + half[g]),
                "mean_total_time": float(mean_total_time[g]),
                "disk_ckpts_per_hour": float(dc_hour[g]),
                "mem_ckpts_per_hour": float(mc_hour[g]),
                "verifs_per_hour": float(v_hour[g]),
                "disk_recoveries_per_day": float(dr_day[g]),
                "mem_recoveries_per_day": float(mr_day[g]),
                "disk_rec_per_pattern": float(dr_pat[g]),
                "mem_rec_per_pattern": float(mr_pat[g]),
            }
        )
    return out


def evaluate_point(point: ScenarioPoint) -> Dict[str, Any]:
    """Compute the result record for one scenario point.

    ``simulate`` mode is the paper's experimental unit: Table-1
    optimisation followed by a Monte-Carlo campaign on the dispatched
    engine tier -- unless the point requests ``engine="analytic"``, in
    which case the vectorised model layer answers without sampling.
    ``optimize`` mode stops after the model-level optimisation.  The
    record contains only JSON-safe scalars and excludes the point labels.
    """
    if point.mode == "simulate" and point.engine == "analytic":
        return _analytic_record(point)

    config = point.configuration()
    record = _model_record(point, config)
    if point.mode == "optimize":
        return record
    opt = config.optimal

    import numpy as np

    from repro.simulation.packed_engine import GeneralBatchResult
    from repro.simulation.runner import run_monte_carlo
    from repro.simulation.stats import COUNTER_FIELDS

    res = run_monte_carlo(
        opt.pattern,
        config.sim_platform,
        n_patterns=point.n_patterns,
        n_runs=point.n_runs,
        seed=point.seed,
        fail_stop_in_operations=point.fail_stop_in_operations,
        predicted_overhead=opt.H_star,
        engine=point.engine,
    )
    # The runs as a batch of per-run values (one "instance" per run);
    # the step engine accumulates its useful work, so it is taken per
    # run rather than recomputed.
    runs = res.runs
    run_values = GeneralBatchResult(
        times=np.array([run.total_time for run in runs]),
        counters={
            name: np.array([getattr(run, name) for run in runs])
            for name in COUNTER_FIELDS
        },
        pattern_work=opt.pattern.W,
    )
    (fields,) = _packed_mc_fields_batch(
        [(point, res.engine, res.predicted_overhead)],
        [run_values],
        [run.useful_work for run in runs],
    )
    record.update(fields)
    return record


def evaluate_points(
    points: Sequence[ScenarioPoint],
) -> List[Dict[str, Any]]:
    """Evaluate a batch of points; records in input order.

    The one batch entry of every execution path (campaign tasks, jobs,
    the daemon and its process fleet).  Each point takes one of three
    routes:

    * a simulate point whose engine request is packable (``auto`` or
      ``packed``) and resolves to the fast-general or packed tier
      contributes its instances to a single
      :func:`~repro.simulation.packed_engine.simulate_packed_batch`
      call; its generator comes from the same
      :func:`~repro.simulation.dispatch.tier_rng` derivation the solo
      fast tier uses;
    * analytic points sharing a pattern family are packed into one
      :class:`~repro.core.batch.PlatformGrid` and answered by a single
      vectorised :func:`~repro.core.batch.analytic_records` call;
    * every other point (explicit tiers, ``auto`` requests that
      dispatch to ``fast-pd``, optimize points) goes through
      :func:`evaluate_point`.

    Kinds, platforms and Table-1 optima come from the process-wide
    memo (:meth:`ScenarioPoint.configuration`), not once per batch.

    Per-point records are **bit-identical** to :func:`evaluate_point`
    whatever the batch holds, so batching, packing and worker count are
    invisible in the results.
    """
    from repro.simulation.dispatch import EngineTier, select_engine, tier_rng
    from repro.simulation.packed_engine import (
        PackedJob,
        simulate_packed_batch,
    )

    out: List[Optional[Dict[str, Any]]] = [None] * len(points)
    jobs: List[PackedJob] = []
    packed_meta: List[Tuple[int, Configuration, str]] = []
    analytic_by_kind: Dict[str, List[int]] = {}
    for i, point in enumerate(points):
        if point.mode == "simulate" and point.engine == "analytic":
            analytic_by_kind.setdefault(point.kind, []).append(i)
            continue
        if is_packable(point):
            config = point.configuration()
            opt = config.optimal
            tier = select_engine(
                opt.pattern,
                fail_stop_in_operations=point.fail_stop_in_operations,
                engine=point.engine,
            )
            if tier in (EngineTier.FAST_GENERAL, EngineTier.PACKED):
                rng = tier_rng(
                    point.seed,
                    opt.pattern,
                    config.sim_platform,
                    point.fail_stop_in_operations,
                )
                jobs.append(
                    PackedJob(
                        opt.pattern,
                        config.sim_platform,
                        point.n_runs * point.n_patterns,
                        rng,
                        fail_stop_in_operations=(
                            point.fail_stop_in_operations
                        ),
                    )
                )
                packed_meta.append((i, config, tier.value))
                continue
        out[i] = evaluate_point(point)
    if analytic_by_kind:
        from repro.core.batch import PlatformGrid, analytic_records

        for idxs in analytic_by_kind.values():
            kind = points[idxs[0]].build_kind()
            grid = PlatformGrid.from_platforms(
                [points[i].build_platform() for i in idxs]
            )
            for i, rec in zip(idxs, analytic_records(kind, grid)):
                out[i] = {
                    "mode": points[i].mode, "engine": "analytic", **rec
                }
    if jobs:
        results = simulate_packed_batch(jobs)
        # Group by per-run reduction shape so the record assembly runs
        # as a few (points x runs, per_run) matrix reductions.
        groups: Dict[Tuple[int, int], List[int]] = {}
        for pos, (i, _, _) in enumerate(packed_meta):
            point = points[i]
            groups.setdefault(
                (point.n_runs, point.n_patterns), []
            ).append(pos)
        for (_, per_run), positions in groups.items():
            group = [
                (points[packed_meta[pos][0]], packed_meta[pos][2],
                 packed_meta[pos][1].optimal.H_star)
                for pos in positions
            ]
            mc_fields = _packed_mc_fields_batch(
                group,
                [results[pos] for pos in positions],
                [results[pos].pattern_work * per_run for pos in positions],
            )
            for pos, fields in zip(positions, mc_fields):
                i, config, _ = packed_meta[pos]
                record = _model_record(points[i], config)
                record.update(fields)
                out[i] = record
    return out  # type: ignore[return-value]


@dataclass
class CampaignResult:
    """Everything a finished (or resumed) campaign produced.

    ``records`` is aligned with ``points`` (labels merged in); the
    counters say where each unique configuration came from.
    ``n_packed`` counts the points the planner routed into packed
    mega-batches (a few of those may still fall back to the per-point
    path inside the worker -- e.g. ``auto`` requests that dispatch to
    ``fast-pd``; results are identical either way).
    ``n_journal_corrupt`` counts corrupt/truncated journal lines that
    resume detected and skipped (those points were recomputed; a
    truncated *tail* line is also removed from the file, so it is
    reported once, not on every later resume).
    """

    points: List[ScenarioPoint]
    records: List[Dict[str, Any]]
    keys: List[str]
    n_from_journal: int = 0
    n_from_cache: int = 0
    n_computed: int = 0
    n_packed: int = 0
    n_journal_corrupt: int = 0
    spec: Optional[CampaignSpec] = None
    journal_path: Optional[str] = None

    @property
    def n_points(self) -> int:
        """Total scenario points in the campaign."""
        return len(self.points)


def run_campaign(
    campaign: Union[CampaignSpec, Sequence[ScenarioPoint]],
    *,
    cache: Union[ResultCache, str, None] = None,
    journal_path: Optional[str] = None,
    n_workers: Optional[int] = None,
    pack_rows: Optional[int] = None,
) -> CampaignResult:
    """Run (or resume) a campaign and return its assembled records.

    Parameters
    ----------
    campaign:
        A :class:`CampaignSpec` (expanded via the scenario registry) or an
        explicit sequence of :class:`ScenarioPoint`.
    cache:
        A :class:`ResultCache` or a cache directory path; ``None``
        disables caching.
    journal_path:
        JSONL journal file.  If it exists, journaled points are *not*
        recomputed (resume); each bucket is appended, in one write, as it
        lands.  Corrupt/truncated lines are skipped (and counted on the
        result).
    n_workers:
        Most worker processes to run at once; default
        :func:`available_cpus`, capped at the number of outstanding
        points.  The planner sizes the buckets from it.  ``1`` runs
        in-process (deterministic, no pool) but still journals bucket by
        bucket.  More run on the process's resident
        :class:`~repro.campaign.pool.EvalFleet`: the first such campaign
        forks it, later ones reuse it (a bigger count forks a bigger
        one; a smaller count still runs at most ``n_workers`` buckets at
        a time), and it closes at interpreter exit.  Its workers are
        forks of the process as it was then, so code patched later does
        not reach them.  A campaign that starts while another holds the
        pool forks its own for the run.
    pack_rows:
        Row budget (summed ``n_runs * n_patterns``) of one packed
        mega-batch; default :data:`DEFAULT_PACK_ROWS`.
    """
    spec = campaign if isinstance(campaign, CampaignSpec) else None
    points = list(spec.points() if spec is not None else campaign)
    if not points:
        raise ValueError("campaign has no scenario points")
    if n_workers is not None and n_workers < 1:
        raise CampaignConfigError(
            f"n_workers must be >= 1, got {n_workers}"
        )
    if pack_rows is not None and pack_rows < 1:
        raise CampaignConfigError(
            f"pack_rows must be >= 1, got {pack_rows}"
        )
    if isinstance(cache, str):
        cache = ResultCache(cache)

    keys = [cache_key(p) for p in points]
    journal = Journal(journal_path)
    resolved: Dict[str, Dict[str, Any]] = {}

    # Unique work, in first-appearance order (duplicate configurations in
    # one campaign -- e.g. a grid's symmetric cells -- compute once).
    # One bulk cache lookup: the index answers every miss after at most
    # one refresh, and the hits are journaled with one write.
    unique: Dict[str, ScenarioPoint] = {}
    for key, point in zip(keys, points):
        if key in journal.existing:
            resolved[key] = journal.existing[key]
        else:
            unique.setdefault(key, point)
    n_journal = len(resolved)
    hits = cache.get_many(unique) if cache is not None and unique else {}
    if hits:
        resolved.update(hits)
        journal.append(hits)
    n_cache = len(hits)
    todo: List[Tuple[str, ScenarioPoint]] = [
        (key, point) for key, point in unique.items() if key not in hits
    ]

    try:
        n_computed, n_packed = _execute(
            todo,
            resolved,
            journal,
            cache,
            n_workers,
            pack_rows,
        )
    finally:
        journal.close()

    records = [
        {**dict(p.labels), **resolved[k]} for k, p in zip(keys, points)
    ]
    return CampaignResult(
        points=points,
        records=records,
        keys=keys,
        n_from_journal=n_journal,
        n_from_cache=n_cache,
        n_computed=n_computed,
        n_packed=n_packed,
        n_journal_corrupt=journal.n_corrupt,
        spec=spec,
        journal_path=journal_path,
    )


def _execute(
    todo: List[Tuple[str, ScenarioPoint]],
    resolved: Dict[str, Dict[str, Any]],
    journal: Journal,
    cache: Optional[ResultCache],
    n_workers: Optional[int],
    pack_rows: Optional[int],
) -> Tuple[int, int]:
    """Evaluate the outstanding points, streaming results as they land.

    Returns ``(n_computed, n_packed)``.
    """
    if not todo:
        return 0, 0
    workers = n_workers if n_workers is not None else available_cpus()
    workers = max(1, min(workers, len(todo)))
    buckets = plan_buckets(
        todo,
        pack_rows if pack_rows is not None else DEFAULT_PACK_ROWS,
        workers=workers,
    )
    n_packed = sum(1 for _, p in todo if is_packable(p))

    def commit(bucket: Bucket, records: List[Dict[str, Any]]) -> None:
        # One encoding, one write to the cache segment, the same bytes
        # in one write to the journal: the bucket is the unit of loss.
        fresh = {key: record for (key, _), record in zip(bucket, records)}
        resolved.update(fresh)
        lines = cache.put_many(fresh) if cache is not None else None
        journal.append(fresh, lines)

    if workers == 1:
        # In-process and deterministic, but still bucketed: each bucket
        # is committed as it finishes.
        for bucket in buckets:
            commit(bucket, evaluate_points([p for _, p in bucket]))
        return len(todo), n_packed

    from repro.campaign.pool import _campaign_fleet

    # closing(): a campaign that stops early cancels its unstarted
    # buckets now, not when its traceback is collected.
    with _campaign_fleet(workers) as fleet, closing(
        fleet.run_buckets(buckets, width=workers)
    ) as landed:
        for bucket, records in landed:
            commit(bucket, records)
    return len(todo), n_packed
