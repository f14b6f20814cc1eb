"""``repro serve`` with the per-layer clocks of :mod:`layers` installed.

Usage: ``python serve_traced.py LAYERS_JSON SPOOL_DIR serve [flags]``.
Runs the daemon exactly as ``python -m repro serve`` would.  On SIGUSR1
it writes the layer totals so far -- its own plus those its fleet
workers spool to ``SPOOL_DIR`` -- to ``LAYERS_JSON``, so a benchmark can
take the difference of two snapshots around the interval it measures.
"""

import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402


def main() -> int:
    out_path, spool, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    import repro.cli
    import repro.service.server  # noqa: F401  (bind aliases first)

    clock = layers.LayerClock(spool)
    missing = layers.install(clock)

    def write_snapshot(signum, frame) -> None:
        with open(f"{out_path}.tmp", "w") as fh:
            json.dump({**clock.collect(), "missing": missing}, fh)
        os.replace(f"{out_path}.tmp", out_path)

    signal.signal(signal.SIGUSR1, write_snapshot)
    return repro.cli.main(argv)


if __name__ == "__main__":
    sys.exit(main())
