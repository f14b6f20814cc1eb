"""The pattern structure ``P(W, n, alpha, m, <beta_1..beta_n>)``.

A *pattern* is the periodic computational unit of the paper (Section 2.3):

* it carries ``W`` total units of work;
* it is split into ``n`` **segments** of relative sizes
  ``alpha = [alpha_1..alpha_n]`` (``sum alpha_i = 1``); each segment ends
  with a guaranteed verification followed by a memory checkpoint;
* segment ``i`` is split into ``m_i`` **chunks** of relative sizes
  ``beta_i = [beta_{i,1}..beta_{i,m_i}]`` (``sum_j beta_{i,j} = 1``);
  chunks are separated by partial verifications;
* the pattern ends with a guaranteed verification, a memory checkpoint and
  a disk checkpoint, so no error propagates to the next pattern.

:class:`Pattern` stores this parameterisation, validates it, and *resolves*
it into a flat action schedule (work chunk / partial verification /
guaranteed verification / memory checkpoint / disk checkpoint) consumed by
the Monte-Carlo simulator and the live application executor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Tuple

_REL_TOL = 1e-9


class ActionType(enum.Enum):
    """The atomic actions a pattern schedule is made of."""

    #: Execute a work chunk (duration = chunk length, subject to errors).
    WORK = "work"
    #: Partial verification: detects a pending silent error w.p. ``r``.
    PARTIAL_VERIFY = "partial-verify"
    #: Guaranteed verification: detects every pending silent error.
    GUARANTEED_VERIFY = "guaranteed-verify"
    #: Save an in-memory checkpoint (validated by the preceding verification).
    MEMORY_CHECKPOINT = "memory-checkpoint"
    #: Save a disk checkpoint (always immediately after a memory checkpoint).
    DISK_CHECKPOINT = "disk-checkpoint"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Action:
    """One step of a resolved pattern schedule.

    Attributes
    ----------
    type:
        The action type.
    duration:
        Error-free duration of the action in seconds (for WORK actions,
        the chunk length ``w_{i,j}``; for the others, the platform cost).
    segment:
        0-based index of the segment this action belongs to.
    chunk:
        0-based chunk index within the segment for WORK /
        PARTIAL_VERIFY actions, else ``-1``.
    """

    type: ActionType
    duration: float
    segment: int
    chunk: int = -1

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"action duration must be >= 0, got {self.duration}")


@dataclass(frozen=True)
class Segment:
    """One segment of a pattern: ``m`` chunks ending in V* + memory ckpt.

    Attributes
    ----------
    index:
        0-based position of the segment inside the pattern.
    work:
        Absolute work amount ``w_i = alpha_i * W`` (seconds at unit speed).
    chunk_fractions:
        Relative chunk sizes ``beta_i`` (sums to 1).
    """

    index: int
    work: float
    chunk_fractions: Tuple[float, ...]

    def __post_init__(self) -> None:
        if self.work < 0:
            raise ValueError(f"segment work must be >= 0, got {self.work}")
        if not self.chunk_fractions:
            raise ValueError("a segment needs at least one chunk")
        if any(b <= 0 for b in self.chunk_fractions):
            raise ValueError(
                f"chunk fractions must be positive, got {self.chunk_fractions}"
            )
        total = math.fsum(self.chunk_fractions)
        if not math.isclose(total, 1.0, rel_tol=_REL_TOL, abs_tol=_REL_TOL):
            raise ValueError(
                f"chunk fractions must sum to 1, got {total!r} "
                f"for {self.chunk_fractions}"
            )

    @property
    def num_chunks(self) -> int:
        """Number of chunks ``m_i`` in this segment."""
        return len(self.chunk_fractions)

    @property
    def chunk_lengths(self) -> Tuple[float, ...]:
        """Absolute chunk lengths ``w_{i,j} = beta_{i,j} * w_i``."""
        return tuple(b * self.work for b in self.chunk_fractions)


@dataclass(frozen=True)
class Pattern:
    """A fully parameterised pattern ``P(W, n, alpha, m, <beta_i>)``.

    Use :mod:`repro.core.builders` for the six canonical families; this
    class accepts any valid shape.

    Parameters
    ----------
    W:
        Total work in the pattern (seconds at unit speed).
    alpha:
        Relative segment sizes, ``sum = 1``.  ``n = len(alpha)``.
    betas:
        One tuple of relative chunk sizes per segment, each summing to 1.
        ``m_i = len(betas[i])``.
    """

    W: float
    alpha: Tuple[float, ...]
    betas: Tuple[Tuple[float, ...], ...]

    def __post_init__(self) -> None:
        if self.W <= 0:
            raise ValueError(f"pattern work W must be positive, got {self.W}")
        if not self.alpha:
            raise ValueError("a pattern needs at least one segment")
        if len(self.alpha) != len(self.betas):
            raise ValueError(
                f"alpha has {len(self.alpha)} segments but betas has "
                f"{len(self.betas)}"
            )
        if min(self.alpha) <= 0:
            raise ValueError(f"segment fractions must be positive, got {self.alpha}")
        total = math.fsum(self.alpha)
        if not math.isclose(total, 1.0, rel_tol=_REL_TOL, abs_tol=_REL_TOL):
            raise ValueError(f"segment fractions must sum to 1, got {total!r}")
        # Normalise to tuples so the dataclass is hashable/immutable even
        # when constructed with lists.
        object.__setattr__(self, "alpha", tuple(float(a) for a in self.alpha))
        object.__setattr__(
            self, "betas", tuple(tuple(float(b) for b in bs) for bs in self.betas)
        )
        # Validate each beta (the checks Segment construction applies,
        # inlined: pattern optimisation builds thousands of candidate
        # shapes, and per-shape Segment objects dominated its cost).
        for bs in self.betas:
            if not bs:
                raise ValueError("a segment needs at least one chunk")
            if min(bs) <= 0:
                raise ValueError(
                    f"chunk fractions must be positive, got {bs}"
                )
            total_b = math.fsum(bs)
            if not math.isclose(
                total_b, 1.0, rel_tol=_REL_TOL, abs_tol=_REL_TOL
            ):
                raise ValueError(
                    f"chunk fractions must sum to 1, got {total_b!r} "
                    f"for {bs}"
                )

    # -- structure accessors -------------------------------------------------
    @property
    def n(self) -> int:
        """Number of segments (= number of memory checkpoints inside)."""
        return len(self.alpha)

    @property
    def m(self) -> Tuple[int, ...]:
        """Chunks per segment ``(m_1, .., m_n)``."""
        return tuple(len(bs) for bs in self.betas)

    @property
    def total_chunks(self) -> int:
        """Total number of chunks across all segments."""
        return sum(self.m)

    @property
    def num_partial_verifications(self) -> int:
        """Partial verifications in the pattern: ``sum_i (m_i - 1)``.

        The last chunk of every segment ends with a *guaranteed*
        verification instead.
        """
        return sum(mi - 1 for mi in self.m)

    @property
    def num_guaranteed_verifications(self) -> int:
        """Guaranteed verifications: one per segment."""
        return self.n

    @property
    def num_memory_checkpoints(self) -> int:
        """Memory checkpoints: one per segment (the last precedes the disk one)."""
        return self.n

    @property
    def num_disk_checkpoints(self) -> int:
        """Disk checkpoints: always exactly one, at the end of the pattern."""
        return 1

    def segments(self) -> List[Segment]:
        """The resolved segments with absolute work amounts."""
        return [
            Segment(index=i, work=a * self.W, chunk_fractions=bs)
            for i, (a, bs) in enumerate(zip(self.alpha, self.betas))
        ]

    def segment_works(self) -> Tuple[float, ...]:
        """Absolute segment lengths ``w_i = alpha_i * W``."""
        return tuple(a * self.W for a in self.alpha)

    def chunk_lengths(self) -> List[Tuple[float, ...]]:
        """Absolute chunk lengths per segment."""
        return [seg.chunk_lengths for seg in self.segments()]

    # -- schedule resolution ---------------------------------------------------
    def schedule(
        self,
        *,
        V: float,
        V_star: float,
        C_M: float,
        C_D: float,
    ) -> List[Action]:
        """Resolve the pattern into its flat action schedule.

        The schedule is the in-order list of actions of one error-free
        traversal: for each segment, its chunks separated by partial
        verifications, then a guaranteed verification and a memory
        checkpoint; the final segment's memory checkpoint is followed by
        the disk checkpoint.

        Parameters
        ----------
        V, V_star, C_M, C_D:
            Platform costs of partial verification, guaranteed
            verification, memory checkpoint and disk checkpoint.
        """
        actions: List[Action] = []
        for seg in self.segments():
            lengths = seg.chunk_lengths
            for j, w in enumerate(lengths):
                actions.append(
                    Action(ActionType.WORK, w, segment=seg.index, chunk=j)
                )
                if j < len(lengths) - 1:
                    actions.append(
                        Action(
                            ActionType.PARTIAL_VERIFY,
                            V,
                            segment=seg.index,
                            chunk=j,
                        )
                    )
            actions.append(
                Action(ActionType.GUARANTEED_VERIFY, V_star, segment=seg.index)
            )
            actions.append(
                Action(ActionType.MEMORY_CHECKPOINT, C_M, segment=seg.index)
            )
        actions.append(
            Action(ActionType.DISK_CHECKPOINT, C_D, segment=self.n - 1)
        )
        return actions

    def error_free_time(
        self, *, V: float, V_star: float, C_M: float, C_D: float
    ) -> float:
        """Duration of one error-free traversal of the pattern.

        ``W + sum_i (m_i - 1) V + n (V* + C_M) + C_D``.
        """
        return (
            self.W
            + self.num_partial_verifications * V
            + self.n * (V_star + C_M)
            + C_D
        )

    def rescaled(self, W: float) -> "Pattern":
        """Copy of this pattern with a different total work ``W``.

        Only ``W`` is checked: the segment and chunk fractions are this
        pattern's, validated when it was built.
        """
        if W <= 0:
            raise ValueError(f"pattern work W must be positive, got {W}")
        copy = object.__new__(Pattern)
        object.__setattr__(copy, "W", W)
        object.__setattr__(copy, "alpha", self.alpha)
        object.__setattr__(copy, "betas", self.betas)
        return copy


def pattern_signature(pattern: Pattern) -> str:
    """Short human-readable signature, e.g. ``P(W=3600, n=2, m=[3, 3])``."""
    return (
        f"P(W={pattern.W:g}, n={pattern.n}, "
        f"m={list(pattern.m)})"
    )
