"""Campaign reporting: journals and caches to tables, CSV and JSON.

Bridges the campaign engine to the :mod:`repro.io` output stack:
assembled records become ASCII tables via ``format_table`` and persist
through ``write_csv`` / ``write_json`` / ``write_jsonl``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.campaign.cache import ResultCache
from repro.campaign.executor import CampaignResult
from repro.io import format_table, read_jsonl, write_csv, write_json


def union_columns(records: Sequence[Dict[str, Any]]) -> List[str]:
    """Every key appearing in any record, in first-seen order.

    Scenario records can be heterogeneous (e.g. a sweep's anchor points
    carry different labels than its sweep points); deriving columns from
    the first record alone would silently drop the sweep variable.
    """
    cols: Dict[str, None] = {}
    for record in records:
        for key in record:
            cols.setdefault(key, None)
    return list(cols)


def rows_from_records(
    records: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
) -> List[Dict[str, Any]]:
    """Project records onto a column list (missing values become None).

    With ``columns=None`` the union of all record keys is used, so
    heterogeneous records keep every column.
    """
    cols = list(columns) if columns is not None else union_columns(records)
    return [{c: r.get(c) for c in cols} for r in records]


def journal_records(path: str) -> Dict[str, Dict[str, Any]]:
    """Load a campaign journal as a ``key -> record`` mapping.

    Later lines win, so a journal appended across several resumed runs
    (possibly re-journaling cache hits) stays consistent.
    """
    out: Dict[str, Dict[str, Any]] = {}
    for line in read_jsonl(path):
        if isinstance(line, dict) and "key" in line:
            out[line["key"]] = line.get("record", {})
    return out


def write_campaign_outputs(
    records: Sequence[Dict[str, Any]],
    *,
    csv_path: Optional[str] = None,
    json_path: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Persist assembled records through :mod:`repro.io`."""
    rows = rows_from_records(records, columns)
    if csv_path:
        cols = (
            list(columns) if columns is not None else union_columns(records)
        )
        write_csv(rows, csv_path, columns=cols)
    if json_path:
        write_json(rows, json_path)


def render_campaign(
    result: CampaignResult,
    *,
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a finished campaign: provenance summary plus result table."""
    name = result.spec.name if result.spec is not None else "campaign"
    header = title if title is not None else f"Campaign {name!r}"
    summary = (
        f"{header}: {result.n_points} points "
        f"({result.n_computed} computed, {result.n_from_cache} from cache, "
        f"{result.n_from_journal} from journal)"
    )
    table = format_table(rows_from_records(result.records, columns))
    return f"{summary}\n{table}"


def cache_stats_rows(cache: ResultCache) -> List[Dict[str, Any]]:
    """One-row table describing a result cache's on-disk state.

    Version-label columns (``semantics=2``...) count entries per engine
    generation, so a long-lived cache shows at a glance how much of it
    a version bump has stranded (``--prune-version`` evicts exactly one
    label's entries).
    """
    stats = cache.stats()
    return [
        {
            "cache_dir": stats.root,
            "entries": stats.entries,
            "total_bytes": stats.total_bytes,
            "hits": stats.hits,
            "misses": stats.misses,
            "hit_rate": stats.hit_rate,
            **cache.version_counts(),
        }
    ]


def render_cache_stats(cache: ResultCache) -> str:
    """Render the cache stats as ASCII."""
    return format_table(cache_stats_rows(cache), title="Result cache")
