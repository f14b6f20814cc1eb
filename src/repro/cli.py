"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    repro-patterns table1 --platform hera
    repro-patterns table1 --platform hera --numeric --engine analytic
    repro-patterns table2 --engine analytic
    repro-patterns fig6 --runs 50 --patterns 100
    repro-patterns fig7 --runs 20
    repro-patterns fig7 --engine analytic --paper-nodes
    repro-patterns fig8 --runs 20
    repro-patterns fig9 --sweep f
    repro-patterns fig9 --grid
    repro-patterns campaign run --scenario optimal_pattern_surface \
        --engine analytic
    repro-patterns campaign run --scenario platform_catalog \
        --cache-dir .repro-cache --journal fig6.jsonl --workers 8
    repro-patterns campaign run --scenario error_rate_sweep \
        --engine packed --pack-rows 500000
    repro-patterns campaign resume --scenario platform_catalog \
        --journal fig6.jsonl
    repro-patterns campaign cache --cache-dir .repro-cache
    repro-patterns campaign cache --cache-dir .repro-cache \
        --prune-older-than 30 --dry-run
    repro-patterns campaign cache --cache-dir .repro-cache \
        --prune-version semantics=1 --dry-run
    repro-patterns serve --cache-dir .repro-cache --jobs-dir .repro-jobs
    repro-patterns query --pattern PDMV --platform hera
    repro-patterns query --points points.json --json out.json
    repro-patterns submit --scenario platform_catalog --client alice
    repro-patterns jobs
    repro-patterns results --job j0123456789ab --json records.json
    repro-patterns serve --batch-window-ms 0 --cache-dir .repro-cache
    repro-patterns loadtest --shape bursty --rate 40 --duration 5
    repro-patterns loadtest --trace trace.jsonl --assert-p99-ms 250

Every command accepts ``--csv PATH`` / ``--json PATH`` to persist the rows
and ``--full`` to use the paper-scale Monte-Carlo sizes (1000 patterns x
1000 runs -- hours of CPU).
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.fig6 import render_fig6, run_fig6
from repro.experiments.fig7 import (
    PAPER_NODE_COUNTS,
    render_weak_scaling,
    run_weak_scaling,
)
from repro.experiments.fig8 import FIG8_C_D, render_fig8, run_fig8
from repro.experiments.fig9 import (
    PAPER_FACTORS,
    render_error_rate_sweep,
    run_error_rate_grid,
    run_error_rate_sweep,
)
from repro.io import format_table, write_csv, write_json
from repro.platforms.catalog import get_platform, platform_names


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--csv", help="write rows to a CSV file")
    parser.add_argument("--json", help="write rows to a JSON file")
    parser.add_argument("--seed", type=int, default=None, help="root RNG seed")
    parser.add_argument(
        "--patterns", type=int, default=None, help="patterns per run"
    )
    parser.add_argument("--runs", type=int, default=None, help="Monte-Carlo runs")
    parser.add_argument(
        "--full",
        action="store_true",
        help="paper-scale campaign (1000 patterns x 1000 runs; very slow)",
    )


def _add_engine(parser: argparse.ArgumentParser) -> None:
    from repro.simulation.dispatch import ENGINE_CHOICES

    parser.add_argument(
        "--engine",
        default="auto",
        choices=list(ENGINE_CHOICES),
        help="simulation engine tier (default: fastest covering tier)",
    )


def _add_daemon_address(parser: argparse.ArgumentParser) -> None:
    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    parser.add_argument("--host", default=DEFAULT_HOST, help="daemon address")
    parser.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="daemon port"
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0,
        help="request timeout in seconds",
    )


def _mc_sizes(args: argparse.Namespace, default_patterns: int, default_runs: int):
    if args.full:
        return 1000, 1000
    return (
        args.patterns if args.patterns is not None else default_patterns,
        args.runs if args.runs is not None else default_runs,
    )


def _emit(rows: List[Dict[str, Any]], text: str, args: argparse.Namespace) -> None:
    print(text)
    if args.csv:
        write_csv(rows, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.json:
        write_json(rows, args.json)
        print(f"wrote {args.json}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-patterns",
        description="Optimal resilience patterns: tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1 optima on one platform")
    p.add_argument(
        "--platform",
        default="hera",
        choices=platform_names(),
        help="catalog platform",
    )
    p.add_argument(
        "--numeric",
        action="store_true",
        help="also compute the numerically optimal period (slow)",
    )
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser("table2", help="platform parameter catalog")
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser("fig6", help="patterns on the four real platforms")
    _add_common(p)

    p = sub.add_parser("fig7", help="weak scaling, C_D = 300")
    p.add_argument(
        "--paper-nodes",
        action="store_true",
        help="sweep the full 2^8..2^18 node range",
    )
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser("fig8", help="weak scaling, C_D = 90")
    p.add_argument("--paper-nodes", action="store_true")
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser(
        "optimize", help="Table-1 optima for a custom platform"
    )
    p.add_argument("--lambda-f", type=float, required=True,
                   help="fail-stop error rate (1/s)")
    p.add_argument("--lambda-s", type=float, required=True,
                   help="silent error rate (1/s)")
    p.add_argument("--cd", type=float, required=True,
                   help="disk checkpoint cost (s)")
    p.add_argument("--cm", type=float, required=True,
                   help="memory checkpoint cost (s)")
    p.add_argument("--v-star", type=float, default=None,
                   help="guaranteed verification cost (default: C_M)")
    p.add_argument("--v", type=float, default=None,
                   help="partial verification cost (default: V*/100)")
    p.add_argument("--recall", type=float, default=0.8,
                   help="partial verification recall")
    _add_common(p)

    p = sub.add_parser(
        "simulate", help="Monte-Carlo one pattern family on one platform"
    )
    p.add_argument(
        "--platform", default="hera", choices=platform_names()
    )
    p.add_argument(
        "--pattern",
        default="PDMV",
        choices=["PD", "PDV*", "PDV", "PDM", "PDMV*", "PDMV"],
    )
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser(
        "makespan", help="expected makespan of a job under each pattern"
    )
    p.add_argument(
        "--platform", default="hera", choices=platform_names()
    )
    p.add_argument(
        "--base-hours", type=float, default=100.0,
        help="failure-free job duration in hours",
    )
    _add_common(p)

    p = sub.add_parser(
        "trace", help="trace one simulated pattern execution"
    )
    p.add_argument("--platform", default="hera", choices=platform_names())
    p.add_argument(
        "--pattern",
        default="PDMV",
        choices=["PD", "PDV*", "PDV", "PDM", "PDMV*", "PDMV"],
    )
    p.add_argument("--n-patterns", type=int, default=1,
                   help="patterns to trace")
    p.add_argument("--limit", type=int, default=60,
                   help="max records to print")
    p.add_argument(
        "--scale", type=int, default=None,
        help="weak-scale the platform to this many nodes first",
    )
    _add_common(p)

    p = sub.add_parser(
        "accuracy", help="first-order vs exact model across scales"
    )
    p.add_argument(
        "--simulate", action="store_true",
        help="also Monte-Carlo simulate each point (slower)",
    )
    _add_common(p)

    p = sub.add_parser(
        "campaign",
        help="declarative scenario campaigns (cached, chunked, resumable)",
    )
    p.add_argument(
        "action",
        choices=["run", "resume", "cache"],
        help="run/resume a campaign, or inspect a result cache",
    )
    p.add_argument("--spec", help="JSON campaign spec file")
    p.add_argument(
        "--scenario",
        help="registered scenario name (alternative to --spec)",
    )
    p.add_argument(
        "--set",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter (VALUE parsed as JSON, else string); "
        "repeatable",
    )
    p.add_argument("--name", help="campaign name (default: scenario name)")
    p.add_argument("--cache-dir", help="content-addressed result cache")
    p.add_argument(
        "--journal", help="JSONL journal (enables streaming + resume)"
    )
    p.add_argument(
        "--workers", type=int, default=None,
        help="process count (default: all cores)",
    )
    p.add_argument(
        "--pack-rows", type=int, default=None,
        help="row budget (n_runs x n_patterns summed) per packed "
        "mega-batch (default: 1000000)",
    )
    p.add_argument(
        "--clear", action="store_true",
        help="with 'cache': delete every entry",
    )
    p.add_argument(
        "--prune-older-than", type=float, default=None, metavar="DAYS",
        help="with 'cache': evict entries older than DAYS days "
        "(entries are content-addressed and recomputable, so age-based "
        "eviction is always safe)",
    )
    p.add_argument(
        "--prune-version", default=None, metavar="LABEL",
        help="with 'cache': evict entries of one engine generation "
        "(a version label from the cache stats, e.g. 'semantics=1', "
        "'analytic=1', 'packed=1', or 'legacy' for pre-stamp entries)",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="with --prune-older-than/--prune-version: report what "
        "would be evicted without removing anything",
    )
    _add_engine(p)
    _add_common(p)

    from repro.service.protocol import DEFAULT_HOST, DEFAULT_PORT

    p = sub.add_parser(
        "serve",
        help="run the online evaluation daemon (request micro-batching, "
        "tiered result cache)",
    )
    p.add_argument("--host", default=DEFAULT_HOST, help="bind address")
    p.add_argument(
        "--port", type=int, default=DEFAULT_PORT,
        help=f"listen port (default {DEFAULT_PORT}; 0 picks an "
        "ephemeral port)",
    )
    p.add_argument(
        "--batch-window-ms", type=float, default=None,
        help="micro-batch collection window in ms (default 5; 0 "
        "batches when busy: a batch is whatever queued while the "
        "previous one evaluated)",
    )
    p.add_argument(
        "--pack-rows", type=int, default=None,
        help="row budget (n_runs x n_patterns summed) per evaluation "
        "batch (default: 1000000)",
    )
    p.add_argument(
        "--mem-entries", type=int, default=None,
        help="in-memory LRU result tier size (default: 4096 entries)",
    )
    p.add_argument(
        "--cache-dir",
        help="on-disk result cache shared with batch campaigns",
    )
    p.add_argument(
        "--port-file",
        help="write the bound port here once listening (for scripts "
        "starting a --port 0 daemon)",
    )
    p.add_argument(
        "--jobs-dir",
        help="persistence root for submitted campaign jobs (journals + "
        "specs; jobs resume across daemon restarts). Without it jobs "
        "work but do not survive a restart",
    )
    p.add_argument(
        "--job-inflight", type=int, default=None,
        help="concurrently dispatched job buckets across all jobs "
        "(default: 2)",
    )
    p.add_argument(
        "--eval-procs", type=int, default=None, metavar="N",
        help="resident evaluation worker processes; scheduler batches "
        "fan out across them in row-budgeted buckets with records "
        "bit-identical to in-process evaluation (default: 0, "
        "in-process)",
    )
    p.add_argument(
        "--rate-rows-per-s", type=float, default=None, metavar="ROWS",
        help="per-client admission rate in Monte-Carlo rows/s "
        "(token bucket; over-rate requests get 429 + Retry-After). "
        "Default: no admission control",
    )
    p.add_argument(
        "--burst-rows", type=int, default=None, metavar="ROWS",
        help="per-client burst capacity in rows (default: 2 seconds "
        "of --rate-rows-per-s)",
    )
    p.add_argument(
        "--queue-rows", type=int, default=None, metavar="ROWS",
        help="global cap on admitted-but-unanswered rows; beyond it "
        "requests are shed with 503 (default: unbounded)",
    )
    p.add_argument(
        "--job-ttl-days", type=float, default=None, metavar="DAYS",
        help="garbage-collect finished jobs in --jobs-dir this many "
        "days after completion (queued/running jobs are never "
        "collected; default: keep forever)",
    )
    p.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="deterministic fault-injection plan for chaos testing, "
        "e.g. 'kill@2,drop@1,delay@3:0.1' (kill a fleet worker at "
        "batch 2, drop connection 1, delay eval call 3 by 0.1s); "
        "also honours the REPRO_FAULTS environment variable. "
        "Injection counters appear under 'faults' in /v1/stats",
    )
    p.add_argument(
        "--drain-grace-s", type=float, default=None, metavar="S",
        help="graceful-drain budget on SIGTERM/SIGINT: how long to "
        "wait for in-flight requests before force-closing their "
        "connections (default 10)",
    )
    p.add_argument(
        "--no-obs", action="store_true",
        help="disable observability entirely (request tracing, "
        "GET /metrics, GET /v1/trace); the default keeps it on",
    )
    p.add_argument(
        "--log-json", action="store_true",
        help="structured JSON logging to stderr: one object per line "
        "with trace IDs (requests, admission rejections, job "
        "lifecycle)",
    )
    p.add_argument(
        "--slow-request-ms", type=float, default=None, metavar="MS",
        help="log a slow_request event for requests at or above this "
        "server-side latency (works without --log-json)",
    )
    p.add_argument(
        "--record-trace", default=None, metavar="FILE",
        help="journal every admitted /v1/evaluate arrival to FILE as "
        "a replayable arrival trace (JSONL; replay it with "
        "'repro loadtest --trace FILE')",
    )
    p.add_argument(
        "--trace-buffer", type=int, default=None, metavar="N",
        help="completed request traces kept for GET /v1/trace "
        "(default 256)",
    )

    p = sub.add_parser(
        "query", help="query a running evaluation daemon"
    )
    p.add_argument("--host", default=DEFAULT_HOST, help="daemon address")
    p.add_argument(
        "--port", type=int, default=DEFAULT_PORT, help="daemon port"
    )
    p.add_argument(
        "--timeout", type=float, default=300.0,
        help="request timeout in seconds",
    )
    p.add_argument(
        "--points",
        help="JSON file with a list of scenario points (mixed batches); "
        "alternative to --pattern/--platform",
    )
    p.add_argument(
        "--pattern",
        default="PDMV",
        choices=["PD", "PDV*", "PDV", "PDM", "PDMV*", "PDMV"],
    )
    p.add_argument(
        "--platform", default="hera", choices=platform_names()
    )
    p.add_argument(
        "--health", action="store_true",
        help="print the daemon's health document and exit",
    )
    p.add_argument(
        "--stats", action="store_true",
        help="print the daemon's stats document and exit",
    )
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser(
        "submit",
        help="submit a campaign spec to a running daemon as a "
        "background job",
    )
    _add_daemon_address(p)
    p.add_argument("--spec", help="JSON campaign spec file")
    p.add_argument(
        "--scenario",
        help="registered scenario name (alternative to --spec)",
    )
    p.add_argument(
        "--set",
        dest="params",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="scenario parameter (VALUE parsed as JSON, else string); "
        "repeatable",
    )
    p.add_argument("--name", help="campaign name (default: scenario name)")
    p.add_argument(
        "--client", default=None,
        help="client identity for fair-share scheduling "
        "(default: anonymous)",
    )
    p.add_argument(
        "--wait", action="store_true",
        help="stream the job's records to completion and print the "
        "campaign table (like a local 'campaign run')",
    )
    _add_engine(p)
    _add_common(p)

    p = sub.add_parser(
        "jobs", help="list (or inspect) a daemon's campaign jobs"
    )
    _add_daemon_address(p)
    p.add_argument(
        "--job", default=None, metavar="ID",
        help="print one job's full document as JSON instead of the list",
    )
    p.add_argument(
        "--client", default=None,
        help="only this client's jobs",
    )
    p.add_argument(
        "--cancel", default=None, metavar="ID",
        help="cancel a job (idempotent on finished jobs)",
    )
    p.add_argument(
        "--prune", type=float, default=None, metavar="DAYS",
        help="offline cleanup: delete terminal job dirs under "
        "--jobs-dir older than DAYS days (no daemon needed; running "
        "jobs are never touched)",
    )
    p.add_argument(
        "--jobs-dir", default=None,
        help="jobs directory for --prune (the daemon's --jobs-dir)",
    )
    p.add_argument(
        "--dry-run", action="store_true",
        help="with --prune: list what would be deleted, delete nothing",
    )
    p.add_argument("--csv", help="write rows to a CSV file")
    p.add_argument("--json", help="write rows to a JSON file")

    p = sub.add_parser(
        "results",
        help="stream a campaign job's records from a daemon",
    )
    _add_daemon_address(p)
    p.add_argument(
        "--job", required=True, metavar="ID", help="job to stream"
    )
    p.add_argument(
        "--offset", type=int, default=0,
        help="start streaming from this point index (default 0)",
    )
    p.add_argument(
        "--no-follow", action="store_true",
        help="return only the records finished right now instead of "
        "polling to completion",
    )
    p.add_argument("--csv", help="write rows to a CSV file")
    p.add_argument("--json", help="write rows to a JSON file")

    from repro.loadgen.traces import TRACE_SHAPES

    p = sub.add_parser(
        "loadtest",
        help="replay an arrival trace against a daemon and report "
        "latency SLOs (p50/p95/p99, throughput)",
    )
    _add_daemon_address(p)
    p.add_argument(
        "--trace", default=None,
        help="JSONL arrival trace to replay (from --save-trace or "
        "repro.loadgen.traces); alternative to --shape",
    )
    p.add_argument(
        "--shape", default="poisson", choices=list(TRACE_SHAPES),
        help="generated arrival process (default: poisson)",
    )
    p.add_argument(
        "--rate", type=float, default=50.0,
        help="mean arrival rate in requests/s (bursty: quiet-phase "
        "base rate; default 50)",
    )
    p.add_argument(
        "--duration", type=float, default=5.0,
        help="trace horizon in seconds (default 5)",
    )
    p.add_argument(
        "--seed", type=int, default=20160601,
        help="trace seed: same shape/rate/duration/seed => identical "
        "request schedule and points (default 20160601)",
    )
    p.add_argument(
        "--point-patterns", type=int, default=None, metavar="N",
        help="patterns per simulate point in the generated mix "
        "(default 4)",
    )
    p.add_argument(
        "--point-runs", type=int, default=None, metavar="N",
        help="runs per pattern in the generated mix (default 2)",
    )
    p.add_argument(
        "--analytic-fraction", type=float, default=0.0,
        help="fraction of arrivals evaluated on the analytic tier",
    )
    p.add_argument(
        "--duplicate-fraction", type=float, default=0.0,
        help="fraction of arrivals re-issuing an earlier point "
        "(exercises coalescing/cache)",
    )
    p.add_argument(
        "--mode", default="open", choices=["open", "closed"],
        help="open: fire at trace timestamps (SLO discipline); "
        "closed: fixed worker pool back-to-back (saturation)",
    )
    p.add_argument(
        "--concurrency", type=int, default=32,
        help="client pool size (default 32)",
    )
    p.add_argument(
        "--warmup", type=int, default=None, metavar="N",
        help="drop the first N completions from every latency/"
        "throughput figure (default: 5%% of the trace)",
    )
    p.add_argument(
        "--save-trace", default=None, metavar="PATH",
        help="also write the replayed trace as JSONL (recorded traces "
        "replay byte-for-byte)",
    )
    p.add_argument(
        "--assert-p99-ms", type=float, default=None, metavar="MS",
        help="exit 1 unless the measured p99 latency is <= MS "
        "(the CI SLO gate)",
    )
    p.add_argument(
        "--assert-throughput-rps", type=float, default=None,
        metavar="RPS",
        help="exit 1 unless measured throughput is >= RPS",
    )
    p.add_argument(
        "--hedge-ms", type=float, default=None, metavar="MS",
        help="hedge requests: duplicate any request still unanswered "
        "after MS milliseconds on a second connection, first answer "
        "wins (server-side coalescing makes the loser nearly free)",
    )
    p.add_argument(
        "--hedge-percentile", type=float, default=None, metavar="P",
        help="adaptive hedging: hedge past the P-th percentile of the "
        "latencies observed so far in this replay (mutually exclusive "
        "with --hedge-ms)",
    )
    p.add_argument(
        "--slowest", type=int, default=None, metavar="N",
        help="report the N slowest requests with their daemon trace "
        "IDs (look each one up via GET /v1/trace/<id>)",
    )
    p.add_argument(
        "--json", help="write the full SLO report to a JSON file"
    )

    p = sub.add_parser("fig9", help="error-rate sweeps at 100k nodes")
    p.add_argument(
        "--sweep",
        choices=["f", "s"],
        help="1-D sweep over lambda_f (9d-g) or lambda_s (9h-k)",
    )
    p.add_argument(
        "--grid",
        action="store_true",
        help="2-D overhead surface (9a-c)",
    )
    p.add_argument(
        "--paper-factors",
        action="store_true",
        help="use the full 0.2..2.0 factor grid",
    )
    _add_common(p)

    return parser


def _parse_param_overrides(pairs: Sequence[str]) -> Dict[str, Any]:
    """Parse repeated ``--set KEY=VALUE`` flags; VALUE is JSON when valid."""
    import json

    params: Dict[str, Any] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(
                f"invalid --set {pair!r}: expected KEY=VALUE"
            )
        key, raw = pair.split("=", 1)
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _build_campaign_spec(args: argparse.Namespace):
    """Assemble a CampaignSpec from the shared campaign/submit flags.

    ``--spec``/``--scenario``/``--set``/``--name`` pick the campaign;
    ``--patterns``/``--runs``/``--full``/``--seed``/``--engine`` apply
    the usual Monte-Carlo overrides -- identically for a local
    ``campaign run`` and a daemon-side ``submit``, which is what makes
    the two produce bit-identical records.
    """
    from dataclasses import replace

    from repro.campaign.registry import scenario_names
    from repro.campaign.spec import CampaignSpec

    overrides = _parse_param_overrides(args.params)
    if args.spec:
        try:
            spec = CampaignSpec.from_json_file(args.spec)
        except (OSError, ValueError, KeyError) as exc:
            raise SystemExit(
                f"cannot load campaign spec {args.spec!r}: {exc}"
            )
        if overrides:
            spec = replace(spec, params={**spec.params, **overrides})
    elif args.scenario:
        spec = CampaignSpec(
            name=args.name or args.scenario,
            scenario=args.scenario,
            params=overrides,
        )
    else:
        raise SystemExit(
            f"{args.command} requires --spec or --scenario"
        )
    if spec.scenario not in scenario_names():
        raise SystemExit(
            f"unknown scenario {spec.scenario!r}; "
            f"available: {', '.join(scenario_names())}"
        )

    n_pat, n_runs = _mc_sizes(args, spec.n_patterns, spec.n_runs)
    spec = replace(spec, n_patterns=n_pat, n_runs=n_runs)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    if args.engine != "auto":
        spec = replace(spec, engine=args.engine)
    return spec


def _cmd_campaign(args: argparse.Namespace) -> int:
    """The ``campaign`` subcommand: run / resume / cache."""
    from repro.campaign.cache import ResultCache
    from repro.campaign.executor import run_campaign
    from repro.campaign.report import (
        render_cache_stats,
        render_campaign,
        rows_from_records,
    )

    if args.action == "cache":
        if not args.cache_dir:
            raise SystemExit("campaign cache requires --cache-dir")
        exclusive = [
            args.clear,
            args.prune_older_than is not None,
            args.prune_version is not None,
        ]
        if sum(exclusive) > 1:
            raise SystemExit(
                "--clear, --prune-older-than and --prune-version are "
                "mutually exclusive"
            )
        if args.dry_run and not (exclusive[1] or exclusive[2]):
            raise SystemExit(
                "--dry-run requires --prune-older-than or --prune-version"
            )
        cache = ResultCache(args.cache_dir)
        if args.clear:
            removed = cache.clear()
            print(f"cleared {removed} cache entries", file=sys.stderr)
        if args.prune_older_than is not None:
            try:
                report = cache.prune_older_than(
                    args.prune_older_than, dry_run=args.dry_run
                )
            except ValueError as exc:
                raise SystemExit(f"--prune-older-than: {exc}")
            verb = "would evict" if report.dry_run else "evicted"
            print(
                f"{verb} {report.n_pruned} of {report.n_examined} "
                f"entries ({report.bytes_pruned} bytes) older than "
                f"{args.prune_older_than:g} days",
                file=sys.stderr,
            )
        if args.prune_version is not None:
            try:
                report = cache.prune_version(
                    args.prune_version, dry_run=args.dry_run
                )
            except ValueError as exc:
                raise SystemExit(f"--prune-version: {exc}")
            verb = "would evict" if report.dry_run else "evicted"
            print(
                f"{verb} {report.n_pruned} of {report.n_examined} "
                f"entries ({report.bytes_pruned} bytes) labelled "
                f"{args.prune_version!r}",
                file=sys.stderr,
            )
        print(render_cache_stats(cache))
        return 0

    spec = _build_campaign_spec(args)

    if args.action == "resume":
        if not args.journal:
            raise SystemExit("campaign resume requires --journal")
        import os

        if not os.path.exists(args.journal):
            raise SystemExit(
                f"cannot resume: journal {args.journal!r} does not exist"
            )

    from repro.campaign.executor import CampaignConfigError

    try:
        result = run_campaign(
            spec,
            cache=args.cache_dir,
            journal_path=args.journal,
            n_workers=args.workers,
            pack_rows=args.pack_rows,
        )
    except CampaignConfigError as exc:
        # Flag mistakes get a one-line message; computation errors keep
        # their traceback.
        raise SystemExit(f"campaign configuration error: {exc}")
    if result.n_journal_corrupt:
        print(
            f"note: skipped {result.n_journal_corrupt} corrupt/truncated "
            "journal line(s); the affected points were recomputed",
            file=sys.stderr,
        )
    # Normalise over the union of record keys: heterogeneous scenarios
    # (e.g. sweeps with anchor points) must not lose columns in the
    # table/CSV just because the first record lacks them.
    _emit(rows_from_records(result.records), render_campaign(result), args)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: run the evaluation daemon."""
    from repro.campaign.pool import FleetUnavailableError
    from repro.service.server import ServiceConfig, run_service

    config = ServiceConfig(host=args.host, port=args.port)
    if args.batch_window_ms is not None:
        config.batch_window_ms = args.batch_window_ms
    if args.pack_rows is not None:
        config.pack_rows = args.pack_rows
    if args.mem_entries is not None:
        config.mem_entries = args.mem_entries
    config.cache_dir = args.cache_dir
    config.port_file = args.port_file
    config.jobs_dir = args.jobs_dir
    if args.job_inflight is not None:
        config.job_inflight = args.job_inflight
    if args.eval_procs is not None:
        config.eval_procs = args.eval_procs
    config.rate_rows_per_s = args.rate_rows_per_s
    config.burst_rows = args.burst_rows
    if args.queue_rows is not None:
        config.queue_rows = args.queue_rows
    config.job_ttl_days = args.job_ttl_days
    config.faults = args.faults
    if args.drain_grace_s is not None:
        config.drain_grace_s = args.drain_grace_s
    config.observability = not args.no_obs
    config.log_json = args.log_json
    config.slow_request_ms = args.slow_request_ms
    config.record_trace = args.record_trace
    if args.trace_buffer is not None:
        config.trace_buffer = args.trace_buffer
    if args.no_obs and (
        args.log_json
        or args.slow_request_ms is not None
        or args.record_trace is not None
        or args.trace_buffer is not None
    ):
        raise SystemExit(
            "--no-obs conflicts with --log-json/--slow-request-ms/"
            "--record-trace/--trace-buffer (they all need the "
            "observability subsystem)"
        )
    if args.port < 0:
        raise SystemExit(f"--port must be >= 0, got {args.port}")
    if (
        args.burst_rows is not None or args.queue_rows is not None
    ) and args.rate_rows_per_s is None:
        raise SystemExit(
            "--burst-rows/--queue-rows require --rate-rows-per-s "
            "(they configure admission control)"
        )

    def announce(_scheduler, server) -> None:
        fleet = (
            f"fleet {config.eval_procs} procs"
            if config.eval_procs
            else "in-process"
        )
        admission = (
            f"admission {config.rate_rows_per_s:g} rows/s"
            if config.rate_rows_per_s is not None
            else "admission off"
        )
        print(
            f"repro service listening on "
            f"http://{server.host}:{server.port} "
            f"(window {config.batch_window_ms:g} ms, "
            f"pack-rows {config.pack_rows}, "
            f"{fleet}, {admission}, "
            f"cache {config.cache_dir or 'memory-only'}, "
            f"jobs {config.jobs_dir or 'memory-only'})",
            file=sys.stderr,
            flush=True,
        )

    try:
        return run_service(config, ready=announce)
    except ValueError as exc:
        # Range constraints live with the scheduler/cache constructors
        # (one source of truth); surface them as one-line flag errors.
        raise SystemExit(f"serve configuration error: {exc}")
    except FleetUnavailableError as exc:
        # A worker died during constructor warm-up: fail fast with the
        # cause instead of hanging at the first batch.
        raise SystemExit(f"serve startup failed: {exc}")


def _cmd_query(args: argparse.Namespace) -> int:
    """The ``query`` subcommand: evaluate points on a running daemon."""
    import json

    from repro.campaign.report import rows_from_records
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.health:
            print(json.dumps(client.health(), indent=2))
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        if args.points:
            try:
                with open(args.points) as fh:
                    data = json.load(fh)
            except (OSError, ValueError) as exc:
                raise SystemExit(
                    f"cannot load points file {args.points!r}: {exc}"
                )
            points = data if isinstance(data, list) else [data]
            title = (
                f"{len(points)} point(s) from {args.points} via "
                f"{args.host}:{args.port}"
            )
        else:
            n_pat, n_runs = _mc_sizes(args, 100, 50)
            point: Dict[str, Any] = {
                "mode": "simulate",
                "kind": args.pattern,
                "platform": args.platform,
                "engine": args.engine,
                "n_patterns": n_pat,
                "n_runs": n_runs,
                "seed": args.seed if args.seed is not None else 20160601,
            }
            points = [point]
            title = (
                f"{args.pattern} on {args.platform} via "
                f"{args.host}:{args.port}"
            )
        result = client.evaluate(points)
        rows = rows_from_records(result.records)
        _emit(rows, format_table(rows, title=title), args)
        return 0
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")
    finally:
        client.close()


def _cmd_submit(args: argparse.Namespace) -> int:
    """The ``submit`` subcommand: run a campaign as a daemon-side job."""
    from repro.campaign.report import rows_from_records
    from repro.service.client import ServiceClient, ServiceError

    spec = _build_campaign_spec(args)
    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        doc = client.submit_campaign(spec, client=args.client)
        print(
            f"submitted job {doc['id']} ({doc['name']}: "
            f"{doc['progress']['points']} points, state {doc['state']})",
            file=sys.stderr,
        )
        if not args.wait:
            print(doc["id"])
            return 0
        records = list(client.iter_results(doc["id"]))
        final = client.job(doc["id"])
        rows = rows_from_records(records)
        _emit(
            rows,
            format_table(
                rows,
                title=f"job {doc['id']} ({final['state']}) -- "
                f"{spec.name} via {args.host}:{args.port}",
            ),
            args,
        )
        return 0 if final["state"] == "done" else 1
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")
    finally:
        client.close()


def _cmd_jobs(args: argparse.Namespace) -> int:
    """The ``jobs`` subcommand: list/inspect/cancel/prune daemon jobs."""
    import json

    from repro.service.client import ServiceClient, ServiceError

    if args.prune is not None:
        # Offline path: walks the jobs dir directly, no daemon needed.
        from repro.service.jobs.store import JobStore

        if not args.jobs_dir:
            raise SystemExit("--prune requires --jobs-dir")
        if args.prune < 0:
            raise SystemExit(
                f"--prune must be >= 0 days, got {args.prune}"
            )
        store = JobStore(args.jobs_dir)
        pruned = store.prune(args.prune, dry_run=args.dry_run)
        verb = "would delete" if args.dry_run else "deleted"
        for job_id, state in pruned:
            print(f"{verb} {job_id} ({state})")
        print(
            f"{verb} {len(pruned)} terminal job(s) older than "
            f"{args.prune:g} day(s) under {store.root}",
            file=sys.stderr,
        )
        return 0

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.cancel:
            doc = client.cancel_job(args.cancel)
            print(
                f"job {doc['id']} is now {doc['state']}", file=sys.stderr
            )
            return 0
        if args.job:
            print(json.dumps(client.job(args.job), indent=2))
            return 0
        docs = client.jobs(client=args.client)
        rows = [
            {
                "id": d["id"],
                "name": d["name"],
                "scenario": d["scenario"],
                "client": d["client"],
                "state": d["state"],
                "points": d["progress"]["points"],
                "done": d["progress"]["done"],
                "failed": d["progress"]["failed"],
            }
            for d in docs
        ]
        _emit(
            rows,
            format_table(
                rows, title=f"jobs on {args.host}:{args.port}"
            ),
            args,
        )
        return 0
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")
    finally:
        client.close()


def _cmd_results(args: argparse.Namespace) -> int:
    """The ``results`` subcommand: stream a job's records."""
    from repro.campaign.report import rows_from_records
    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.host, args.port, timeout=args.timeout)
    try:
        if args.no_follow:
            records = []
            offset = args.offset
            while True:
                page = client.job_results(args.job, offset=offset)
                records.extend(page["records"])
                offset = page["next_offset"]
                if not page["records"]:
                    break
            state = page["state"]
        else:
            records = list(
                client.iter_results(args.job, offset=args.offset)
            )
            state = client.job(args.job)["state"]
        rows = rows_from_records(records)
        _emit(
            rows,
            format_table(
                rows,
                title=f"job {args.job} ({state}) -- "
                f"{len(records)} record(s) from offset {args.offset}",
            ),
            args,
        )
        return 0
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")
    finally:
        client.close()


def _render_latency(block: Dict[str, Any]) -> str:
    """One-line latency block for the loadtest report."""
    return (
        f"p50 {block['p50_ms']:8.2f} ms   "
        f"p95 {block['p95_ms']:8.2f} ms   "
        f"p99 {block['p99_ms']:8.2f} ms   "
        f"mean {block['mean_ms']:8.2f} ms   "
        f"ewma {block['ewma_ms']:8.2f} ms"
    )


def _cmd_loadtest(args: argparse.Namespace) -> int:
    """The ``loadtest`` subcommand: trace in, SLO report out."""
    from repro.loadgen.replay import WorkloadReplayer
    from repro.loadgen.traces import (
        PointMix,
        load_trace,
        make_trace,
        save_trace,
    )
    from repro.service.client import ServiceClient, ServiceError

    if args.trace:
        try:
            events = load_trace(args.trace)
        except OSError as exc:
            raise SystemExit(
                f"cannot load trace {args.trace!r}: {exc}"
            )
        if not events:
            raise SystemExit(f"trace {args.trace!r} has no events")
        source = args.trace
    else:
        try:
            mix = PointMix(
                analytic_fraction=args.analytic_fraction,
                duplicate_fraction=args.duplicate_fraction,
                n_patterns=(
                    args.point_patterns
                    if args.point_patterns is not None
                    else 4
                ),
                n_runs=(
                    args.point_runs
                    if args.point_runs is not None
                    else 2
                ),
            )
            events = make_trace(
                args.shape,
                rate=args.rate,
                duration_s=args.duration,
                seed=args.seed,
                mix=mix,
            )
        except ValueError as exc:
            raise SystemExit(f"loadtest configuration error: {exc}")
        source = (
            f"{args.shape} (rate {args.rate:g}/s, {args.duration:g}s, "
            f"seed {args.seed})"
        )
    if args.save_trace:
        save_trace(events, args.save_trace)
        print(
            f"wrote {len(events)} events to {args.save_trace}",
            file=sys.stderr,
        )
    warmup = (
        args.warmup
        if args.warmup is not None
        else max(1, len(events) // 20)
    )
    try:
        with ServiceClient(
            args.host, args.port, timeout=args.timeout
        ) as probe:
            probe.health()  # fail fast with a clear message
        replayer = WorkloadReplayer(
            args.host,
            args.port,
            mode=args.mode,
            concurrency=args.concurrency,
            timeout=args.timeout,
            hedge_after_s=(
                args.hedge_ms / 1e3
                if args.hedge_ms is not None
                else None
            ),
            hedge_percentile=args.hedge_percentile,
        )
        result = replayer.run(events)
    except (ServiceError, ValueError) as exc:
        raise SystemExit(f"service error: {exc}")
    report = result.report(warmup_drop=warmup)
    report["trace"] = source
    if args.slowest is not None:
        report["slowest"] = result.slowest(args.slowest)

    print(
        f"replayed {report['n_requests']} requests from {source} "
        f"({args.mode} loop, concurrency {args.concurrency}) in "
        f"{result.wall_s:.2f}s against {args.host}:{args.port}"
    )
    print(
        f"  measured {report['n_measured']} "
        f"({report['n_warmup_dropped']} warm-up dropped), "
        f"errors {report['n_errors']}, "
        f"throughput {report['throughput_rps']:.1f} req/s"
    )
    if report["n_hedged"] or report["n_connect_retries"]:
        print(
            f"  resilience hedged {report['n_hedged']} "
            f"(won {report['n_hedge_wins']}), "
            f"connect retries {report['n_connect_retries']}"
        )
    if report["latency"] is not None:
        print(f"  latency  {_render_latency(report['latency'])}")
        for name, block in report["classes"].items():
            print(
                f"  {name:>8s} n={block['n']:<5d} "
                f"{_render_latency(block)}"
            )
    if args.slowest is not None:
        print(f"  slowest {len(report['slowest'])} request(s):")
        for entry in report["slowest"]:
            trace_ref = (
                f"trace {entry['trace_id']}"
                if entry["trace_id"]
                else "no trace id (daemon obs off?)"
            )
            print(
                f"    #{entry['index']:<5d} {entry['class']:>8s} "
                f"{entry['latency_ms']:9.2f} ms  "
                f"status {entry['status']}  {trace_ref}"
            )
    if args.json:
        write_json(report, args.json)
        print(f"wrote {args.json}", file=sys.stderr)

    failures: List[str] = []
    asserting = (
        args.assert_p99_ms is not None
        or args.assert_throughput_rps is not None
    )
    if asserting and report["n_errors"]:
        failures.append(f"{report['n_errors']} request(s) failed")
    if args.assert_p99_ms is not None:
        p99 = (
            report["latency"]["p99_ms"]
            if report["latency"] is not None
            else float("inf")
        )
        verdict = "ok" if p99 <= args.assert_p99_ms else "FAIL"
        print(
            f"SLO p99 {p99:.2f} ms <= {args.assert_p99_ms:g} ms: "
            f"{verdict}"
        )
        if verdict == "FAIL":
            failures.append(
                f"p99 {p99:.2f} ms exceeds {args.assert_p99_ms:g} ms"
            )
    if args.assert_throughput_rps is not None:
        rps = report["throughput_rps"]
        verdict = (
            "ok" if rps >= args.assert_throughput_rps else "FAIL"
        )
        print(
            f"SLO throughput {rps:.1f} req/s >= "
            f"{args.assert_throughput_rps:g} req/s: {verdict}"
        )
        if verdict == "FAIL":
            failures.append(
                f"throughput {rps:.1f} req/s below "
                f"{args.assert_throughput_rps:g} req/s"
            )
    for failure in failures:
        print(f"SLO FAILURE: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "campaign":
        return _cmd_campaign(args)

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "query":
        return _cmd_query(args)

    if args.command == "submit":
        return _cmd_submit(args)

    if args.command == "jobs":
        return _cmd_jobs(args)

    if args.command == "results":
        return _cmd_results(args)

    if args.command == "loadtest":
        return _cmd_loadtest(args)

    if args.command == "table1":
        platform = get_platform(args.platform)
        from repro.experiments.table1 import run_table1

        rows = run_table1(
            platform, include_numeric=args.numeric, engine=args.engine
        )
        _emit(
            rows,
            format_table(
                rows, title=f"Table 1 -- optimal patterns on {platform.name}"
            ),
            args,
        )
        return 0

    if args.command == "table2":
        from repro.experiments.table2 import run_table2

        rows = run_table2(engine=args.engine)
        _emit(
            rows,
            format_table(rows, title="Table 2 -- platform parameters"),
            args,
        )
        return 0

    if args.command == "optimize":
        from repro.experiments.table1 import run_table1
        from repro.platforms.platform import Platform, default_costs

        platform = Platform(
            name="custom",
            nodes=1,
            lambda_f=args.lambda_f,
            lambda_s=args.lambda_s,
            costs=default_costs(
                C_D=args.cd,
                C_M=args.cm,
                V_star=args.v_star,
                V=args.v,
                r=args.recall,
            ),
        )
        rows = run_table1(platform)
        _emit(
            rows,
            format_table(
                rows, title=f"Table 1 -- optimal patterns on {platform.name}"
            ),
            args,
        )
        return 0

    if args.command == "simulate":
        from repro.campaign.executor import evaluate_point
        from repro.campaign.spec import ScenarioPoint, platform_to_dict

        n_pat, n_runs = _mc_sizes(args, 100, 50)
        rec = evaluate_point(
            ScenarioPoint(
                mode="simulate",
                kind=args.pattern,
                platform=platform_to_dict(get_platform(args.platform)),
                n_patterns=n_pat,
                n_runs=n_runs,
                seed=args.seed if args.seed is not None else 20160601,
                engine=args.engine,
            )
        )
        if args.engine == "analytic":
            fields = ["divergence", "H_numeric", "W*_hours", "n*", "m*"]
            title = (
                f"Analytic model: {rec['kind']} on {rec['platform_name']} "
                "(exact recursion, no sampling)"
            )
        else:
            fields = [
                "ci95_low", "ci95_high", "disk_ckpts_per_hour",
                "mem_ckpts_per_hour", "verifs_per_hour",
                "disk_recoveries_per_day", "mem_recoveries_per_day",
            ]
            title = (
                f"Simulation: {rec['kind']} on {rec['platform_name']} "
                f"({n_runs} runs x {n_pat} patterns)"
            )
        rows = [
            {
                "pattern": rec["kind"],
                "platform": rec["platform_name"],
                "engine": rec["engine"],
                "predicted": rec["predicted"],
                "simulated": rec["simulated"],
                **{f: rec[f] for f in fields},
            }
        ]
        _emit(rows, format_table(rows, title=title), args)
        return 0

    if args.command == "makespan":
        from repro.core.makespan import compare_makespans

        platform = get_platform(args.platform)
        rows = compare_makespans(platform, args.base_hours * 3600.0)
        _emit(
            rows,
            format_table(
                rows,
                title=f"Expected makespan of a {args.base_hours:g}h job "
                f"on {platform.name}",
            ),
            args,
        )
        return 0

    if args.command == "fig6":
        n_pat, n_runs = _mc_sizes(args, 100, 50)
        rows = run_fig6(
            n_patterns=n_pat,
            n_runs=n_runs,
            seed=args.seed if args.seed is not None else 20160523,
        )
        _emit(rows, render_fig6(rows), args)
        return 0

    if args.command in ("fig7", "fig8"):
        n_pat, n_runs = _mc_sizes(args, 50, 20)
        nodes = PAPER_NODE_COUNTS if args.paper_nodes else None
        if args.command == "fig7":
            rows = run_weak_scaling(
                nodes,
                n_patterns=n_pat,
                n_runs=n_runs,
                seed=args.seed if args.seed is not None else 20160607,
                engine=args.engine,
            )
            _emit(rows, render_weak_scaling(rows), args)
        else:
            rows = run_fig8(
                nodes,
                n_patterns=n_pat,
                n_runs=n_runs,
                seed=args.seed if args.seed is not None else 20160608,
                engine=args.engine,
            )
            _emit(rows, render_fig8(rows), args)
        return 0

    if args.command == "trace":
        import numpy as np

        from repro.core.builders import PatternKind
        from repro.core.formulas import optimal_pattern, simulation_costs
        from repro.platforms.scaling import scale_platform
        from repro.simulation.engine import PatternSimulator
        from repro.simulation.trace import TraceRecorder

        kind = next(k for k in PatternKind if k.value == args.pattern)
        platform = get_platform(args.platform)
        if args.scale is not None:
            platform = scale_platform(platform, args.scale)
        opt = optimal_pattern(kind, platform)
        recorder = TraceRecorder()
        sim = PatternSimulator(
            opt.pattern, simulation_costs(kind, platform), trace=recorder
        )
        rng = np.random.default_rng(
            args.seed if args.seed is not None else 20160615
        )
        stats = sim.run(args.n_patterns, rng)
        print(
            f"Traced {args.n_patterns} pattern(s) of {kind.value} on "
            f"{platform.name}: {len(recorder)} operations, "
            f"{stats.total_time:.0f}s simulated, "
            f"overhead {100 * stats.overhead:.1f}%"
        )
        print(recorder.render(limit=args.limit))
        return 0

    if args.command == "accuracy":
        from repro.analysis.accuracy import accuracy_sweep, render_accuracy_sweep

        n_pat, n_runs = _mc_sizes(args, 40, 15)
        rows = accuracy_sweep(
            simulate=args.simulate,
            n_patterns=n_pat,
            n_runs=n_runs,
            seed=args.seed if args.seed is not None else 20160612,
        )
        _emit(rows, render_accuracy_sweep(rows), args)
        return 0

    if args.command == "fig9":
        n_pat, n_runs = _mc_sizes(args, 20, 10)
        factors = PAPER_FACTORS if args.paper_factors else None
        if args.grid:
            rows = run_error_rate_grid(
                factors,
                n_patterns=n_pat,
                n_runs=n_runs,
                seed=args.seed if args.seed is not None else 20160609,
            )
            _emit(
                rows,
                format_table(
                    rows, title="Figure 9a-c -- overhead surfaces (100k nodes)"
                ),
                args,
            )
            return 0
        sweep = args.sweep or "f"
        rows = run_error_rate_sweep(
            sweep,
            factors,
            n_patterns=n_pat,
            n_runs=n_runs,
            seed=args.seed if args.seed is not None else 20160610,
        )
        _emit(rows, render_error_rate_sweep(rows), args)
        return 0

    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
