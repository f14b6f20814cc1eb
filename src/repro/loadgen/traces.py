"""Deterministic arrival-trace generation.

A *trace* is a list of :class:`TraceEvent`: an arrival offset (seconds
from trace start), a protocol-schema scenario point, and a request
class label for per-class latency reporting.  Three built-in arrival
shapes cover the interesting regimes:

* ``constant`` -- equally spaced arrivals at the requested rate: the
  steady-state shape.
* ``poisson`` -- exponential inter-arrivals (memoryless noise), the
  canonical open-system model.
* ``bursty`` -- a base Poisson process modulated by shock-and-decay
  intensity spikes (cf. cascading-failure traffic simulators): shocks
  arrive as their own Poisson process and each multiplies the
  instantaneous rate, decaying exponentially.  Sampled by Ogata
  thinning, so the burst structure is exact, not binned.

Every generator draws from one ``numpy`` ``default_rng(seed)``: the
same ``(shape, rate, duration, seed, mix)`` inputs yield the identical
timestamp sequence and the identical point sequence, which is what
makes the replay harness itself testable.  The point *mix* assigns
each arrival a scenario point -- small Monte-Carlo simulate points
with per-event seeds derived from the trace seed (so replayed records
are bit-identical to solo ``repro simulate`` runs), an optional
analytic-point fraction, and an optional duplicate fraction that
re-issues earlier points to exercise the daemon's coalescing/cache
path exactly as real traffic with repeated queries would.

Traces persist as JSONL (one event per line) via
:func:`save_trace`/:func:`load_trace`, so a recorded trace replays
byte-for-byte across sessions and machines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

import numpy as np

from repro.io import read_jsonl, write_jsonl

#: Built-in arrival shapes, in the order the benchmarks sweep them.
TRACE_SHAPES = ("constant", "poisson", "bursty")

#: Pattern families the default mix cycles through (Table-1 names).
MIX_KINDS = ("PD", "PDV", "PDM", "PDMV*", "PDMV")

#: Platforms the default mix cycles through (catalog names).
MIX_PLATFORMS = ("hera", "atlas", "coastal")

#: Monte-Carlo size of one mixed simulate point.  Deliberately small:
#: a load test measures the *service* under an arrival process, and
#: small points keep a single engine call from dwarfing the batching
#: behaviour being measured.
MIX_N_PATTERNS = 4
MIX_N_RUNS = 2


@dataclass(frozen=True)
class TraceEvent:
    """One arrival: when, what to evaluate, and its reporting class."""

    #: Arrival offset in seconds from trace start.
    t: float
    #: Protocol-schema scenario point (what ``POST /v1/evaluate`` takes).
    point: Mapping[str, Any]
    #: Reporting class (``"simulate"`` / ``"analytic"`` / ``"repeat"``).
    request_class: str = "simulate"

    def to_dict(self) -> Dict[str, Any]:
        """JSONL-friendly dict; the persisted trace line."""
        return {
            "t": float(self.t),
            "class": self.request_class,
            "point": dict(self.point),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            t=float(data["t"]),
            point=dict(data["point"]),
            request_class=str(data.get("class", "simulate")),
        )


@dataclass(frozen=True)
class PointMix:
    """How arrivals map to scenario points.

    Attributes
    ----------
    analytic_fraction:
        Fraction of arrivals evaluated on the analytic tier (no
        Monte-Carlo; near-instant, exercises the mixed-batch path).
    duplicate_fraction:
        Fraction of arrivals that re-issue a previously emitted point
        verbatim -- the coalescing/cache-hit traffic class.
    n_patterns, n_runs:
        Monte-Carlo size of each simulate point.
    """

    analytic_fraction: float = 0.0
    duplicate_fraction: float = 0.0
    n_patterns: int = MIX_N_PATTERNS
    n_runs: int = MIX_N_RUNS
    kinds: Sequence[str] = field(default=MIX_KINDS)
    platforms: Sequence[str] = field(default=MIX_PLATFORMS)

    def __post_init__(self) -> None:
        for name in ("analytic_fraction", "duplicate_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.analytic_fraction + self.duplicate_fraction > 1.0:
            raise ValueError(
                "analytic_fraction + duplicate_fraction must not exceed 1"
            )
        if self.n_patterns < 1 or self.n_runs < 1:
            raise ValueError(
                "mix needs positive n_patterns and n_runs, got "
                f"{self.n_patterns}x{self.n_runs}"
            )


def _arrival_times(
    shape: str,
    rate: float,
    duration_s: float,
    rng: np.random.Generator,
    *,
    shock_rate: float,
    shock_factor: float,
    shock_decay_s: float,
) -> np.ndarray:
    """Arrival offsets in ``[0, duration_s)`` for one shape."""
    if shape == "constant":
        n = max(1, int(round(rate * duration_s)))
        return np.arange(n, dtype=float) / rate
    if shape == "poisson":
        # Exponential inter-arrivals; draw a safety margin past the
        # horizon, then truncate.  The draw count depends only on
        # (rate, duration), so the stream is reproducible.
        n_draw = max(16, int(rate * duration_s * 2) + 64)
        gaps = rng.exponential(1.0 / rate, size=n_draw)
        times = np.cumsum(gaps)
        return times[times < duration_s]
    if shape == "bursty":
        # Shock-and-decay intensity: lam(t) = rate * (1 + sum_j
        # shock_factor * exp(-(t - s_j)/decay)) for shock times s_j,
        # sampled exactly by Ogata thinning under the envelope
        # rate * (1 + n_shocks * shock_factor).
        n_draw = max(4, int(shock_rate * duration_s * 2) + 16)
        shock_gaps = rng.exponential(1.0 / shock_rate, size=n_draw)
        shocks = np.cumsum(shock_gaps)
        shocks = shocks[shocks < duration_s]
        lam_max = rate * (1.0 + max(1, len(shocks)) * shock_factor)
        times: List[float] = []
        t = 0.0
        while True:
            t += float(rng.exponential(1.0 / lam_max))
            if t >= duration_s:
                break
            decay = np.exp(-(t - shocks[shocks <= t]) / shock_decay_s)
            lam_t = rate * (1.0 + shock_factor * float(decay.sum()))
            if rng.random() <= lam_t / lam_max:
                times.append(t)
        return np.asarray(times, dtype=float)
    raise ValueError(
        f"unknown trace shape {shape!r}; available: "
        f"{', '.join(TRACE_SHAPES)}"
    )


def make_trace(
    shape: str,
    *,
    rate: float,
    duration_s: float,
    seed: int,
    mix: Optional[PointMix] = None,
    shock_rate: float = 0.5,
    shock_factor: float = 8.0,
    shock_decay_s: float = 0.5,
) -> List[TraceEvent]:
    """Generate a deterministic arrival trace.

    Parameters
    ----------
    shape:
        One of :data:`TRACE_SHAPES`.
    rate:
        Mean arrival rate (requests/second); for ``bursty`` this is the
        quiet-phase base rate.
    duration_s:
        Trace horizon; every arrival lands in ``[0, duration_s)``.
    seed:
        Seeds both the arrival process and the point mix.  Same inputs,
        same trace -- timestamps *and* points.
    mix:
        Point mix; default is all-simulate, no duplicates.
    shock_rate, shock_factor, shock_decay_s:
        Bursty-shape knobs: shocks/second, instantaneous rate
        multiplier per shock, and the exponential decay constant.
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    mix = mix if mix is not None else PointMix()
    rng = np.random.default_rng(seed)
    times = _arrival_times(
        shape,
        rate,
        duration_s,
        rng,
        shock_rate=shock_rate,
        shock_factor=shock_factor,
        shock_decay_s=shock_decay_s,
    )
    # Per-event point seeds are derived from the trace seed, not the
    # arrival process, so the "same points" contract is explicit:
    # event i of any same-seed trace shape evaluates the same work.
    base_seed = int(
        np.random.SeedSequence(seed).generate_state(1, np.uint64)[0]
        % np.uint64(2**31)
    )
    events: List[TraceEvent] = []
    emitted: List[TraceEvent] = []
    for i, t in enumerate(times):
        draw = rng.random()
        if emitted and draw < mix.duplicate_fraction:
            repeat_of = emitted[int(rng.integers(len(emitted)))]
            events.append(
                TraceEvent(float(t), dict(repeat_of.point), "repeat")
            )
            continue
        kind = mix.kinds[i % len(mix.kinds)]
        platform = mix.platforms[i % len(mix.platforms)]
        if draw < mix.duplicate_fraction + mix.analytic_fraction:
            point: Dict[str, Any] = {
                "mode": "simulate",
                "kind": kind,
                "platform": platform,
                "engine": "analytic",
            }
            event = TraceEvent(float(t), point, "analytic")
        else:
            point = {
                "mode": "simulate",
                "kind": kind,
                "platform": platform,
                "n_patterns": int(mix.n_patterns),
                "n_runs": int(mix.n_runs),
                "seed": base_seed + i,
            }
            event = TraceEvent(float(t), point, "simulate")
        events.append(event)
        emitted.append(event)
    return events


def save_trace(events: Iterable[TraceEvent], path: str) -> str:
    """Persist a trace as JSONL (one event per line)."""
    write_jsonl((e.to_dict() for e in events), path, append=False)
    return path


def load_trace(path: str) -> List[TraceEvent]:
    """Load a JSONL trace written by :func:`save_trace`."""
    return [TraceEvent.from_dict(row) for row in read_jsonl(path)]
