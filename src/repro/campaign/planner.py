"""The bucket planner: the one work split of campaigns, jobs and the fleet.

A **bucket** is one unit of batch evaluation: ``(key, point)`` pairs
that one :func:`~repro.campaign.executor.evaluate_points` call answers
together.  :func:`plan_buckets` carves a list of points into buckets the
same way for every path -- ``run_campaign`` tasks, jobs-API buckets and
:class:`~repro.campaign.pool.EvalFleet` worker buckets -- and is the
only place that sizes them (no caller passes a chunk size):

* packable simulate points (``auto``/``packed`` engine requests) are
  grouped by compatibility and split under a row budget into packed
  mega-batches, the budget shrunk so the batches spread across
  ``workers``;
* every other point is grouped by its evaluation shape -- analytic
  points per pattern family (one :class:`~repro.core.batch.PlatformGrid`
  each), the rest by (mode, engine) -- and chunked about four chunks
  per worker, at most :data:`MAX_CHUNK` points each;
* the buckets come back longest-processing-time first (the classic
  makespan heuristic): big dense buckets start early and the ragged
  tail fills in behind them.

The plan depends only on point content, order and the arguments, and
never affects results: per-point records are bit-identical under any
grouping (the packed engine's draw-identity contract), so buckets are
purely units of scheduling, progress and journal streaming.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.campaign.spec import ScenarioPoint

#: Upper bound on non-packable points per bucket (keeps journal
#: streaming responsive: a bucket is the unit of loss on interruption).
MAX_CHUNK = 64

#: Default row budget (pattern instances, summed over points) of one
#: packed mega-batch.  ~1M rows keep the packed engine's struct-of-arrays
#: working set around a hundred MB; raise it for fewer, larger batches.
DEFAULT_PACK_ROWS = 1_000_000

#: Engine requests the planner may route through the packed engine.
#: ``auto`` is packable because packed results are bit-identical to the
#: fast tier the request would dispatch to; explicit tier requests
#: (``fast``, ``fast-pd``, ``step``) are honoured literally, point by
#: point.
PACKABLE_ENGINES = ("auto", "packed")

#: One schedulable unit: ``(key, point)`` pairs evaluated together.
Bucket = List[Tuple[str, ScenarioPoint]]


def is_packable(point: ScenarioPoint) -> bool:
    """Whether the planner may route a point through the packed engine."""
    return point.mode == "simulate" and point.engine in PACKABLE_ENGINES


def point_rows(point: ScenarioPoint) -> int:
    """A point's Monte-Carlo row weight (``n_patterns * n_runs``).

    The one row currency of the system: mega-batch budgets, daemon
    batch budgets, admission control and fair-share charging all count
    it.  Analytic and optimize points weigh one row.
    """
    if point.mode == "simulate" and point.engine != "analytic":
        return max(1, point.n_patterns * point.n_runs)
    return 1


def bucket_rows(bucket: Bucket) -> int:
    """A bucket's row weight (the sum of its points' rows)."""
    return sum(point_rows(p) for _, p in bucket)


def plan_buckets(
    items: Sequence[Tuple[str, ScenarioPoint]],
    pack_rows: int,
    *,
    workers: int = 1,
) -> List[Bucket]:
    """Carve ``(key, point)`` items into buckets, in LPT order.

    Packable points fill mega-batches of at most ``pack_rows`` rows;
    with ``workers > 1`` the budget shrinks to
    ``ceil(packable_rows / workers)`` so one plan spreads across the
    pool.  Other points are grouped by evaluation shape and split into
    chunks of ``min(MAX_CHUNK, ceil(non_packable / (4 * workers)))``
    points: about four chunks per worker keep the pool load-balanced
    while amortising per-task overhead.  Every item lands in exactly
    one bucket.
    """
    if pack_rows < 1:
        raise ValueError(f"pack_rows must be >= 1, got {pack_rows}")
    packable: Bucket = []
    rest: Dict[Tuple, Bucket] = {}
    for key, point in items:
        if is_packable(point):
            packable.append((key, point))
            continue
        if point.mode == "simulate" and point.engine == "analytic":
            group = ("analytic", point.kind)
        else:
            group = (point.mode, point.engine)
        rest.setdefault(group, []).append((key, point))
    budget = pack_rows
    if workers > 1 and packable:
        total_rows = sum(point_rows(p) for _, p in packable)
        budget = min(pack_rows, max(1, -(-total_rows // workers)))
    buckets = _plan_mega_batches(packable, budget)
    n_rest = sum(len(group_items) for group_items in rest.values())
    chunk = min(MAX_CHUNK, max(1, -(-n_rest // (4 * max(1, workers)))))
    for group_items in rest.values():
        for i in range(0, len(group_items), chunk):
            buckets.append(group_items[i : i + chunk])
    return order_buckets(buckets)


def order_buckets(buckets: Iterable[Bucket]) -> List[Bucket]:
    """Longest-processing-time-first bucket order (stable on ties).

    Dispatching the heaviest buckets first minimises the schedule's
    tail: the small heterogeneous leftovers interleave behind the big
    dense mega-batches instead of stranding one giant bucket at the
    end.  ``sorted`` is stable, so equal-weight buckets keep their
    input order.
    """
    return sorted(buckets, key=lambda b: -bucket_rows(b))


def _plan_mega_batches(
    packable: List[Tuple[str, ScenarioPoint]],
    pack_rows: int,
) -> List[Bucket]:
    """Bucket packable points by compatibility and split by row budget.

    Buckets are keyed by (fail-stop setting, engine request, Monte-Carlo
    size): rows of one mega-batch then share the semantics setting, the
    record engine label and the per-run reduction shape.  Within a
    bucket, points fill consecutive packs up to ``pack_rows`` instances
    each (:func:`plan_packs`).
    """
    groups: Dict[Tuple, Bucket] = {}
    for key, point in packable:
        group = (
            point.fail_stop_in_operations,
            point.engine,
            point.n_patterns,
            point.n_runs,
        )
        groups.setdefault(group, []).append((key, point))
    batches: List[Bucket] = []
    for group_points in groups.values():
        sizes = [p.n_runs * p.n_patterns for _, p in group_points]
        for pack in plan_packs(sizes, pack_rows):
            batches.append([group_points[i] for i in pack])
    return batches


def plan_packs(sizes: Sequence[int], max_rows: int) -> List[List[int]]:
    """Split job indices into consecutive packs under a row budget.

    Greedy first-fit in input order: each pack holds consecutive jobs
    whose instance counts sum to at most ``max_rows`` (a single
    oversized job still gets its own pack), bounding the packed batch's
    working-set memory.
    """
    if max_rows <= 0:
        raise ValueError(f"max_rows must be positive, got {max_rows}")
    packs: List[List[int]] = []
    current: List[int] = []
    used = 0
    for i, size in enumerate(sizes):
        if size <= 0:
            raise ValueError(f"job {i} has non-positive size {size}")
        if current and used + size > max_rows:
            packs.append(current)
            current = []
            used = 0
        current.append(i)
        used += size
    if current:
        packs.append(current)
    return packs
