"""Timed spans, and the thread-local sink that carries them across layers.

A :class:`Span` is one timed operation, ``[t0, t1)`` on the
``time.perf_counter()`` clock plus metadata.  The daemon evaluates
batches on executor threads, which ``contextvars`` do not reach, so its
scheduler arms a :class:`BatchSink` on the evaluating thread
(:func:`run_with_sink`); the process pool (:mod:`repro.campaign.pool`)
reads it back (:func:`current_sink`) and reports its ``pack`` and
per-worker ``bucket`` spans there without knowing the daemon's types.
Stdlib only, so every layer can import it.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional


class Span:
    """One timed operation inside a request: ``[t0, t1)`` + metadata.

    Times are ``time.perf_counter()`` seconds; :meth:`to_dict`
    re-bases them onto the owning trace's start so the timeline reads
    as offsets.
    """

    __slots__ = ("name", "t0", "t1", "meta")

    def __init__(
        self,
        name: str,
        t0: float,
        t1: float,
        meta: Optional[Dict[str, Any]] = None,
    ):
        self.name = name
        self.t0 = t0
        self.t1 = t1
        self.meta = meta

    def to_dict(self, base: float) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "name": self.name,
            "start_ms": round(1e3 * (self.t0 - base), 4),
            "duration_ms": round(1e3 * (self.t1 - self.t0), 4),
        }
        if self.meta:
            doc.update(self.meta)
        return doc


class BatchSink:
    """Collects the pool's spans for one batch evaluation."""

    __slots__ = ("spans",)

    def __init__(self) -> None:
        self.spans: List[Span] = []

    def add(
        self,
        name: str,
        t0: float,
        t1: float,
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.spans.append(Span(name, t0, t1, meta))


_sink_local = threading.local()


def current_sink() -> Optional[BatchSink]:
    """The calling thread's active batch sink, if any."""
    return getattr(_sink_local, "sink", None)


def run_with_sink(
    sink: Optional[BatchSink],
    fn: Callable[..., Any],
    *args: Any,
) -> Any:
    """Run ``fn(*args)`` with ``sink`` armed as this thread's sink.

    The scheduler wraps batch evaluation in this so the pool, called
    on the same executor thread, can deposit per-bucket spans without
    any plumbing through the evaluate signature.
    """
    _sink_local.sink = sink
    try:
        return fn(*args)
    finally:
        _sink_local.sink = None
