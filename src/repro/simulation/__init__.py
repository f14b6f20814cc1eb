"""Monte-Carlo simulation of resilience patterns.

Reproduces the paper's simulator (Section 6.1): errors are injected from
exponential distributions (rates ``lambda_f`` and ``lambda_s``); fail-stop
errors may strike during computations, verifications, checkpoints and
recoveries, while silent errors strike computations only.  The simulator
executes a configurable number of patterns per run and averages counters
over many runs.
"""

from repro.simulation.events import OpOutcome, OperationKind
from repro.simulation.model import SEMANTICS_VERSION, OpSchedule
from repro.simulation.stats import (
    COUNTER_FIELDS,
    SimulationStats,
    aggregate_stats,
)
from repro.simulation.trace import OpOutcomeKind, TraceRecord, TraceRecorder
from repro.simulation.engine import PatternSimulator
from repro.simulation.dispatch import (
    ENGINE_CHOICES,
    EngineTier,
    run_stats,
    select_engine,
)
from repro.simulation.runner import (
    MonteCarloResult,
    run_monte_carlo,
    simulate_optimal_pattern,
    simulate_pattern_overhead,
)
from repro.simulation.fast_pd import (
    PdBatchResult,
    pd_overhead_batch,
    simulate_pd_batch,
)

__all__ = [
    "OperationKind",
    "OpOutcome",
    "SEMANTICS_VERSION",
    "OpSchedule",
    "COUNTER_FIELDS",
    "SimulationStats",
    "aggregate_stats",
    "OpOutcomeKind",
    "TraceRecord",
    "TraceRecorder",
    "PatternSimulator",
    "ENGINE_CHOICES",
    "EngineTier",
    "run_stats",
    "select_engine",
    "MonteCarloResult",
    "run_monte_carlo",
    "simulate_optimal_pattern",
    "simulate_pattern_overhead",
    "PdBatchResult",
    "simulate_pd_batch",
    "pd_overhead_batch",
]
