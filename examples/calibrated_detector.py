#!/usr/bin/env python
"""Calibrating a real partial detector and feeding it into the model.

The paper parameterises partial verifications by an assumed ``(V, r)``
pair.  Here we close the loop with a concrete implementation:

1. build two data-analytics detectors (spatial smoothness and time-series
   extrapolation) over a live heat-equation field;
2. *measure* their recall empirically by injecting random bit flips;
3. rank the calibrated detectors (plus the paper's assumed one) by the
   accuracy-to-cost criterion of Section 2.3;
4. optimise the PDMV pattern with the selected detector and compare the
   resulting overhead against the paper's defaults.

Run: ``python examples/calibrated_detector.py``
"""

import numpy as np

from repro.application.analytics import (
    SpatialSmoothnessDetector,
    TimeSeriesDetector,
    measure_recall,
)
from repro.application.heat import Heat1D
from repro.core.builders import PatternKind
from repro.core.formulas import optimal_pattern
from repro.io import format_table
from repro.platforms.catalog import hera
from repro.verification.detectors import PartialDetector
from repro.verification.portfolio import optimize_with_portfolio, portfolio_report


def make_field():
    """A representative mid-run solver state."""
    h = Heat1D(n=512)
    h.step(100)
    return np.array(h.field)


def calibrate_time_series(rng, trials=300):
    """Measure the time-series detector's recall on stepped states."""
    caught = 0
    for _ in range(trials):
        det = TimeSeriesDetector()
        h = Heat1D(n=512)
        h.step(100)
        det.observe(h.field)
        h.step(1)
        det.observe(h.field)
        h.step(1)
        state = np.array(h.field)
        from repro.application.sdc import flip_random_bit

        flip_random_bit(state, rng)
        if det.check(state):
            caught += 1
    return caught / trials


def main() -> None:
    rng = np.random.default_rng(2016)
    platform = hera()

    # --- 1-2. calibrate the detectors --------------------------------------
    spatial = SpatialSmoothnessDetector()
    spatial_meas = measure_recall(spatial.check, make_field, rng, trials=300)
    ts_recall = calibrate_time_series(rng)

    print("Measured detector quality (300 random bit-flip injections):")
    print(f"  spatial smoothness:   recall {spatial_meas.recall:.2f}, "
          f"false positives {spatial_meas.false_positive_rate:.2f}")
    print(f"  time-series predict:  recall {ts_recall:.2f}")
    print()

    # --- 3. rank a portfolio ------------------------------------------------
    # Costs: touching the whole dataset once ~ V*/50; the spatial check is
    # a single vectorised pass, the time-series check needs history reads.
    portfolio = [
        spatial_meas.as_detector(cost=platform.V_star / 50, name="spatial"),
        PartialDetector(platform.V_star / 30, max(ts_recall, 1e-6),
                        name="time-series"),
        PartialDetector(platform.V, platform.r, name="paper-assumed"),
    ]
    rows = portfolio_report(PatternKind.PDMV, platform, portfolio)
    print(format_table(rows, title="Detector portfolio on Hera (PDMV)"))
    print()

    # --- 4. deploy the winner ----------------------------------------------
    choice = optimize_with_portfolio(PatternKind.PDMV, platform, portfolio)
    base = optimal_pattern(PatternKind.PDMV, platform)
    print(f"Selected detector: {choice.detector.name} "
          f"(cost {choice.detector.cost:.3f}s, recall {choice.detector.recall:.2f})")
    print(f"  PDMV with selected detector: H* = {100 * choice.optimal.H_star:.2f}% "
          f"(m* = {choice.optimal.m})")
    print(f"  PDMV with paper defaults:    H* = {100 * base.H_star:.2f}% "
          f"(m* = {base.m})")


if __name__ == "__main__":
    main()
