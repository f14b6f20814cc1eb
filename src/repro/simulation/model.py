"""Shared simulation semantics: schedule resolution and error sampling.

Both general pattern engines -- the step-by-step :class:`~repro.simulation.
engine.PatternSimulator` and the vectorised
:mod:`~repro.simulation.packed_engine` batch simulator (the ``fast`` tier
is a packed batch of one) -- implement the same paper semantics
(Section 6.1).  This module is their single source of truth for
everything that must not drift between them:

* **schedule resolution**: a :class:`Pattern` plus a :class:`Platform`
  resolve into per-segment chunk lengths, verification costs and recalls
  (:func:`resolve_segments`) and, for the vectorised engine, into a flat
  struct-of-arrays operation schedule (:class:`OpSchedule`);
* **error sampling**: the batched Exp(1) sampler used by the step engine
  (:class:`ExpSampler`) and the detection-probability formula
  ``1 - (1-r)^k`` shared by both engines
  (:func:`detection_probability`);
* **versioning**: :data:`SEMANTICS_VERSION` is bumped whenever the
  simulated semantics or their sampling change in a way that alters
  results; the campaign result cache incorporates it so rows computed
  under different engine generations are never silently mixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple, Union

import numpy as np

from repro.core.pattern import Pattern
from repro.platforms.platform import Platform

#: Version of the simulated semantics (shared by every engine tier).
#: Bump whenever a change alters the numbers an engine produces for a
#: given configuration -- e.g. introducing the vectorised fast engine as
#: the default Monte-Carlo backend (version 2).  Participates in the
#: campaign cache key (:func:`repro.campaign.cache.cache_key`).
SEMANTICS_VERSION = 2

#: Operation codes of the flat schedule (int8-friendly).
OP_COMPUTE = 0
OP_VERIFY = 1
OP_MEM_CKPT = 2
OP_DISK_CKPT = 3


class ExpSampler:
    """Batched sampler of Exp(1) variates.

    ``next()`` pops one standard-exponential value from a pre-filled
    buffer, refilling in vectorised batches.  Scaling by ``1/rate`` gives
    an exponential of any rate; thanks to memorylessness, drawing a fresh
    time-to-next-error at the start of every operation is distributionally
    exact.
    """

    __slots__ = ("_rng", "_buf", "_idx", "_size")

    def __init__(self, rng: np.random.Generator, size: int = 4096):
        self._rng = rng
        self._size = size
        self._buf = rng.standard_exponential(size)
        self._idx = 0

    def next(self) -> float:
        if self._idx >= self._size:
            self._buf = self._rng.standard_exponential(self._size)
            self._idx = 0
        v = self._buf[self._idx]
        self._idx += 1
        return float(v)


@dataclass(frozen=True)
class ResolvedSegment:
    """Pre-resolved segment: chunk lengths and per-chunk verification spec.

    The verification ending chunk ``j`` costs ``verif_costs[j]`` and has
    recall ``verif_recalls[j]``; the last chunk of every segment ends with
    the guaranteed verification (cost ``V*``, recall 1).
    """

    chunks: Tuple[float, ...]
    verif_costs: Tuple[float, ...]
    verif_recalls: Tuple[float, ...]


def resolve_segments(
    pattern: Pattern, platform: Platform
) -> List[ResolvedSegment]:
    """Resolve a pattern's segments against a platform's cost vector.

    Interior verifications charge the platform's partial cost/recall; the
    verification ending each segment is guaranteed.  For the starred
    families pass the guaranteed-verification platform view (see
    :func:`repro.core.formulas.simulation_costs`).
    """
    V, V_star, r = platform.V, platform.V_star, platform.r
    segs: List[ResolvedSegment] = []
    for seg in pattern.segments():
        m = seg.num_chunks
        segs.append(
            ResolvedSegment(
                chunks=seg.chunk_lengths,
                verif_costs=tuple([V] * (m - 1) + [V_star]),
                verif_recalls=tuple([r] * (m - 1) + [1.0]),
            )
        )
    return segs


def detection_probability(
    recall: Union[float, np.ndarray], pending: Union[int, np.ndarray]
) -> Union[float, np.ndarray]:
    """Probability a verification detects at least one pending corruption.

    Each of the ``pending`` corruptions is caught independently with
    probability ``recall``, so detection happens with probability
    ``1 - (1 - r)^k`` -- which is 0 for ``k = 0`` (including the
    guaranteed ``r = 1`` case, where NumPy's ``0.0 ** 0 == 1``) and
    exactly 1 for a guaranteed verification with ``k > 0``.
    """
    return 1.0 - (1.0 - recall) ** pending


@dataclass(frozen=True)
class OpSchedule:
    """A pattern flattened into parallel per-operation arrays.

    One error-free traversal of the pattern visits the operations in
    index order: for each segment its chunks, each immediately followed
    by its verification, then the segment's memory checkpoint; the final
    operation is the disk checkpoint.  Rollback targets are precomputed:
    ``segment_start[i]`` is the index execution returns to when a silent
    detection rolls the current segment back.

    Attributes
    ----------
    kinds:
        Operation codes (:data:`OP_COMPUTE` .. :data:`OP_DISK_CKPT`).
    durations:
        Error-free duration of each operation.
    recalls:
        Detection recall of VERIFY operations (1.0 for guaranteed ones,
        0.0 for non-verification operations).
    guaranteed:
        True for guaranteed verifications.
    segment_start:
        Index of the first operation of the segment each operation
        belongs to (the silent-detection rollback target).
    segment_index, chunk_index:
        Position bookkeeping (chunk is ``-1`` for non-chunk operations).
    """

    kinds: np.ndarray
    durations: np.ndarray
    recalls: np.ndarray
    guaranteed: np.ndarray
    segment_start: np.ndarray
    segment_index: np.ndarray
    chunk_index: np.ndarray

    @property
    def n_ops(self) -> int:
        """Number of operations in one error-free traversal."""
        return int(self.kinds.size)

    @classmethod
    def from_pattern(
        cls, pattern: Pattern, platform: Platform
    ) -> "OpSchedule":
        """Flatten a pattern x platform pair into the array schedule.

        Built with strided array writes (one slice assignment per field
        per segment) rather than per-operation appends; the emitted
        arrays are element-for-element what the append loop produced.
        """
        segs = resolve_segments(pattern, platform)
        n_segs = len(segs)
        ms = [len(seg.chunks) for seg in segs]
        n_ops = 2 * sum(ms) + n_segs + 1  # chunks+verifs, mem ckpts, disk

        kinds = np.empty(n_ops, dtype=np.int8)
        durations = np.empty(n_ops, dtype=np.float64)
        recalls = np.zeros(n_ops, dtype=np.float64)
        guaranteed = np.zeros(n_ops, dtype=bool)
        seg_start = np.empty(n_ops, dtype=np.int64)
        seg_index = np.empty(n_ops, dtype=np.int64)
        chunk_index = np.empty(n_ops, dtype=np.int64)

        pos = 0
        for i, (seg, m) in enumerate(zip(segs, ms)):
            end = pos + 2 * m
            kinds[pos:end:2] = OP_COMPUTE
            kinds[pos + 1:end:2] = OP_VERIFY
            durations[pos:end:2] = seg.chunks
            durations[pos + 1:end:2] = seg.verif_costs
            vrec = np.asarray(seg.verif_recalls, dtype=np.float64)
            recalls[pos + 1:end:2] = vrec
            guaranteed[pos + 1:end:2] = vrec >= 1.0
            seg_start[pos:end + 1] = pos
            seg_index[pos:end + 1] = i
            chunks = np.arange(m, dtype=np.int64)
            chunk_index[pos:end:2] = chunks
            chunk_index[pos + 1:end:2] = chunks
            kinds[end] = OP_MEM_CKPT
            durations[end] = platform.C_M
            chunk_index[end] = -1
            pos = end + 1
        kinds[pos] = OP_DISK_CKPT
        durations[pos] = platform.C_D
        seg_start[pos] = seg_start[pos - 1]
        seg_index[pos] = n_segs - 1
        chunk_index[pos] = -1

        return cls(
            kinds=kinds,
            durations=durations,
            recalls=recalls,
            guaranteed=guaranteed,
            segment_start=seg_start,
            segment_index=seg_index,
            chunk_index=chunk_index,
        )
