"""Deterministic fault injection for the serving stack.

The paper this repository reproduces is about resilience patterns
against fail-stop and silent errors; this module applies the same
discipline to the service itself.  A :class:`FaultPlan` is a seeded,
fully deterministic schedule of failures -- *kill a fleet worker at
batch N*, *raise inside evaluation call N*, *delay evaluation call N by
S seconds*, *drop HTTP connection N before answering*, *hard-exit any
worker that evaluates seed S* -- threaded behind ``repro serve
--faults`` (or the ``REPRO_FAULTS`` environment variable) so tests,
benchmarks and the CI smoke can replay identical failure scenarios and
assert identical recoveries.

Plan grammar (comma-separated directives)::

    kill@N        kill one fleet worker process at fleet batch N
    raise@N       raise InjectedFault at evaluation call N
    delay@N:S     sleep S seconds before evaluation call N
    drop@N        close HTTP connection N without answering
    poison@SEED   worker hard-exits when a bucket contains a simulate
                  point with this seed (exercises bisection quarantine)
    crash-prewarm worker processes die during constructor warm-up
                  (exercises the fail-fast startup path)

``FaultPlan.parse`` also accepts the same schedule as a JSON object
(``{"kill": [2], "delay": {"3": 0.1}, ...}``).  Ordinals are 1-based
and counted by the :class:`FaultInjector`, whose counters surface under
``"faults"`` in ``GET /v1/stats``.

The raise/delay schedule has one path: the daemon wraps whichever
evaluate callable it installs, the process pool's or in-process
evaluation, with :func:`wrap_evaluate`.  The pool
(:class:`~repro.campaign.pool.EvalFleet`) reads the rest of the plan --
kills, poison seeds, warm-up crashes -- through its own
:class:`~repro.campaign.pool.ChaosHook`, which a
:class:`FaultInjector` satisfies.

Error taxonomy of the recovery machinery:

* :class:`InjectedFault` (here) -- a scheduled ``raise@N`` firing;
  handled by the scheduler's existing failed-batch isolation.
* :class:`~repro.campaign.pool.FleetUnavailableError` -- the pool's
  workers could not be (re)built; the scheduler's circuit breaker
  counts these and degrades to in-process evaluation.
* :class:`~repro.campaign.pool.PoisonPointError` -- a single point
  repeatedly crashed workers and was quarantined; surfaces as a
  per-point error record, never as a dead pool.
"""

from __future__ import annotations

import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, FrozenSet, Mapping, Optional

#: Environment variable consulted when no explicit plan is configured.
FAULTS_ENV = "REPRO_FAULTS"


class InjectedFault(RuntimeError):
    """A scheduled ``raise@N`` directive firing inside evaluation."""


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic failure schedule (see the module docstring)."""

    #: Fleet batch ordinals at which one worker is SIGKILLed.
    kill_batches: FrozenSet[int] = frozenset()
    #: Evaluation call ordinals at which :class:`InjectedFault` raises.
    raise_evals: FrozenSet[int] = frozenset()
    #: Evaluation call ordinal -> injected delay in seconds.
    delay_evals: Mapping[int, float] = field(default_factory=dict)
    #: HTTP request ordinals whose connection is dropped unanswered.
    drop_requests: FrozenSet[int] = frozenset()
    #: Simulate seeds whose evaluation hard-exits the worker process.
    poison_seeds: FrozenSet[int] = frozenset()
    #: Fleet workers die during constructor warm-up (fail-fast path).
    crash_prewarm: bool = False

    @property
    def enabled(self) -> bool:
        return bool(
            self.kill_batches
            or self.raise_evals
            or self.delay_evals
            or self.drop_requests
            or self.poison_seeds
            or self.crash_prewarm
        )

    def describe(self) -> str:
        """The canonical compact spec string for this plan."""
        parts = []
        parts += [f"kill@{n}" for n in sorted(self.kill_batches)]
        parts += [f"raise@{n}" for n in sorted(self.raise_evals)]
        parts += [
            f"delay@{n}:{self.delay_evals[n]:g}"
            for n in sorted(self.delay_evals)
        ]
        parts += [f"drop@{n}" for n in sorted(self.drop_requests)]
        parts += [f"poison@{s}" for s in sorted(self.poison_seeds)]
        if self.crash_prewarm:
            parts.append("crash-prewarm")
        return ",".join(parts)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a compact directive string or a JSON schedule."""
        spec = (spec or "").strip()
        if not spec:
            return cls()
        if spec.startswith("{"):
            return cls._from_json(spec)
        kill, raises, drops, poison = set(), set(), set(), set()
        delays: Dict[int, float] = {}
        crash_prewarm = False
        for raw in spec.split(","):
            token = raw.strip()
            if not token:
                continue
            if token == "crash-prewarm":
                crash_prewarm = True
                continue
            name, sep, arg = token.partition("@")
            if not sep:
                raise ValueError(
                    f"invalid fault directive {token!r}: expected "
                    "NAME@ARG (e.g. kill@2, delay@3:0.1) or "
                    "crash-prewarm"
                )
            try:
                if name == "kill":
                    kill.add(cls._ordinal(arg))
                elif name == "raise":
                    raises.add(cls._ordinal(arg))
                elif name == "drop":
                    drops.add(cls._ordinal(arg))
                elif name == "poison":
                    poison.add(int(arg))
                elif name == "delay":
                    at, sep2, seconds = arg.partition(":")
                    if not sep2:
                        raise ValueError("expected delay@N:SECONDS")
                    delay_s = float(seconds)
                    if delay_s < 0:
                        raise ValueError("delay must be >= 0")
                    delays[cls._ordinal(at)] = delay_s
                else:
                    raise ValueError(
                        "unknown directive name "
                        f"{name!r} (kill/raise/delay/drop/poison)"
                    )
            except ValueError as exc:
                raise ValueError(
                    f"invalid fault directive {token!r}: {exc}"
                ) from None
        return cls(
            kill_batches=frozenset(kill),
            raise_evals=frozenset(raises),
            delay_evals=delays,
            drop_requests=frozenset(drops),
            poison_seeds=frozenset(poison),
            crash_prewarm=crash_prewarm,
        )

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> "FaultPlan":
        """The plan configured via ``REPRO_FAULTS`` (empty when unset)."""
        env = os.environ if environ is None else environ
        return cls.parse(env.get(FAULTS_ENV, ""))

    @staticmethod
    def _ordinal(arg: str) -> int:
        n = int(arg)
        if n < 1:
            raise ValueError("ordinals are 1-based")
        return n

    @classmethod
    def _from_json(cls, spec: str) -> "FaultPlan":
        try:
            data = json.loads(spec)
        except ValueError as exc:
            raise ValueError(f"invalid JSON fault plan: {exc}") from None
        if not isinstance(data, dict):
            raise ValueError("JSON fault plan must be an object")
        known = {"kill", "raise", "delay", "drop", "poison",
                 "crash_prewarm"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown fault plan keys {sorted(unknown)}; "
                f"expected a subset of {sorted(known)}"
            )
        return cls(
            kill_batches=frozenset(int(n) for n in data.get("kill", [])),
            raise_evals=frozenset(int(n) for n in data.get("raise", [])),
            delay_evals={
                int(k): float(v)
                for k, v in dict(data.get("delay", {})).items()
            },
            drop_requests=frozenset(int(n) for n in data.get("drop", [])),
            poison_seeds=frozenset(
                int(s) for s in data.get("poison", [])
            ),
            crash_prewarm=bool(data.get("crash_prewarm", False)),
        )


@dataclass(frozen=True)
class EvalFault:
    """The injections due for one evaluation call."""

    ordinal: int
    raise_now: bool = False
    delay_s: float = 0.0


@dataclass(frozen=True)
class BatchFault:
    """The injections due for one fleet batch."""

    ordinal: int
    kill: bool = False


class FaultInjector:
    """Thread-safe ordinal counters driving one :class:`FaultPlan`.

    One injector spans the whole service: the fleet asks it before each
    batch, the evaluate wrapper before each engine call, the HTTP
    server before answering each request.  Every injected fault is
    counted, and :meth:`stats` is the ``"faults"`` section of
    ``GET /v1/stats`` -- so a chaos run can assert not just that the
    service survived, but that the scheduled faults actually fired.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._eval_calls = 0
        self._fleet_batches = 0
        self._requests = 0
        self._counters: Dict[str, int] = {
            "kills_injected": 0,
            "raises_injected": 0,
            "delays_injected": 0,
            "drops_injected": 0,
        }

    # -- schedule queries (each advances its ordinal) -------------------------
    def eval_call(self) -> EvalFault:
        """Advance the evaluation ordinal; report what fires now."""
        with self._lock:
            self._eval_calls += 1
            n = self._eval_calls
            raise_now = n in self.plan.raise_evals
            delay_s = float(self.plan.delay_evals.get(n, 0.0))
            if raise_now:
                self._counters["raises_injected"] += 1
            if delay_s > 0:
                self._counters["delays_injected"] += 1
        return EvalFault(ordinal=n, raise_now=raise_now, delay_s=delay_s)

    def fleet_batch(self) -> BatchFault:
        """Advance the fleet-batch ordinal; report what fires now."""
        with self._lock:
            self._fleet_batches += 1
            n = self._fleet_batches
            kill = n in self.plan.kill_batches
            if kill:
                self._counters["kills_injected"] += 1
        return BatchFault(ordinal=n, kill=kill)

    def drop_request(self) -> bool:
        """Advance the request ordinal; whether to drop the connection."""
        with self._lock:
            self._requests += 1
            drop = self._requests in self.plan.drop_requests
            if drop:
                self._counters["drops_injected"] += 1
        return drop

    # -- introspection --------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """The ``"faults"`` section of ``GET /v1/stats``."""
        with self._lock:
            counters = dict(self._counters)
            ordinals = {
                "eval_calls": self._eval_calls,
                "fleet_batches": self._fleet_batches,
                "requests": self._requests,
            }
        return {
            "plan": self.plan.describe(),
            "counters": counters,
            "ordinals": ordinals,
        }


def wrap_evaluate(
    evaluate: Callable[..., Any], injector: FaultInjector
) -> Callable[..., Any]:
    """Apply an injector's raise/delay schedule to an evaluate callable.

    The daemon wraps the callable it installs, process pool or
    in-process, so one evaluation ordinal counts every batch it sends.
    """
    import time

    def faulty_evaluate(points):
        fault = injector.eval_call()
        if fault.delay_s > 0:
            time.sleep(fault.delay_s)
        if fault.raise_now:
            raise InjectedFault(
                f"injected evaluation failure "
                f"(eval call {fault.ordinal})"
            )
        return evaluate(points)

    return faulty_evaluate
