"""Row output: CSV, JSON and append-friendly JSONL files, and ASCII
tables.

Rows are lists of flat dicts -- experiment rows, campaign records,
journal lines, load-generator traces.
"""

from __future__ import annotations

import csv
import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def write_csv(
    rows: Sequence[Dict[str, Any]],
    path: str,
    *,
    columns: Optional[Sequence[str]] = None,
) -> None:
    """Write rows of dicts to a CSV file (creating parent directories).

    An empty ``rows`` is allowed when explicit ``columns`` are given: the
    file then contains just the header (useful for campaigns that may
    legitimately produce zero rows for a slice).
    """
    if not rows and columns is None:
        raise ValueError(
            "refusing to write an empty CSV without explicit columns"
        )
    cols = list(columns) if columns is not None else list(rows[0].keys())
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols, extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


def write_json(data: Any, path: str, *, indent: int = 2) -> None:
    """Write any JSON-serialisable object (creating parent directories)."""
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=indent, sort_keys=False, default=_coerce)
        fh.write("\n")


def write_jsonl(
    records: Iterable[Dict[str, Any]],
    path: str,
    *,
    append: bool = True,
) -> int:
    """Write records one-JSON-object-per-line (creating parent dirs).

    Append mode is the default: JSONL is the campaign journal format, and
    journals grow incrementally across resumed runs.  Every record is
    flushed as it is written so a killed process loses at most the line
    being written.  Returns the number of records written.
    """
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    count = 0
    with open(path, "a" if append else "w") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=False, default=_coerce))
            fh.write("\n")
            fh.flush()
            count += 1
    return count


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Read a JSONL file, skipping blank and corrupt lines.

    A truncated final line (the signature of a killed writer) is silently
    dropped rather than aborting the read -- resuming a campaign from a
    journal must tolerate exactly that failure mode.  Use
    :func:`scan_jsonl` to also learn how many lines were dropped.
    """
    records, _ = scan_jsonl(path)
    return records


def scan_jsonl(path: str) -> "Tuple[List[Dict[str, Any]], int]":
    """Read a JSONL file tolerantly, reporting dropped lines.

    Returns ``(records, n_corrupt)``: blank lines are ignored, and lines
    that are not a JSON object -- invalid JSON (e.g. the half-written
    last line of a killed process), bytes that are not UTF-8, or JSON
    of another type -- are *counted* and skipped.  Campaign resume
    surfaces the count so an interrupted run is visible rather than
    silent.
    """
    records: List[Dict[str, Any]] = []
    n_corrupt = 0
    with open(path, "rb") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:  # JSONDecodeError and UnicodeDecodeError
                record = None
            if isinstance(record, dict):
                records.append(record)
            else:
                n_corrupt += 1
    return records, n_corrupt


def _coerce(obj: Any) -> Any:
    """Fallback encoder for NumPy scalars and similar."""
    if hasattr(obj, "tolist"):  # NumPy arrays and scalars
        return obj.tolist()
    if hasattr(obj, "item"):
        return obj.item()
    return str(obj)


def fmt(value: Any, precision: int = 4) -> str:
    """Format one cell: floats to fixed precision, ints plain, None as '-'."""
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if value != 0 and (abs(value) >= 1e5 or abs(value) < 10 ** (-precision)):
            return f"{value:.{precision}g}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Dict[str, Any]],
    columns: Optional[Sequence[str]] = None,
    *,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render rows of dicts as a fixed-width ASCII table.

    Parameters
    ----------
    rows:
        The data; missing keys render as '-'.
    columns:
        Column order; defaults to the keys of the first row.
    precision:
        Float precision.
    title:
        Optional heading line.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    cols = list(columns) if columns is not None else list(rows[0].keys())
    cells = [[fmt(row.get(c), precision) for c in cols] for row in rows]
    widths = [
        max(len(c), *(len(line[i]) for line in cells)) for i, c in enumerate(cols)
    ]
    sep = "  "
    header = sep.join(c.ljust(w) for c, w in zip(cols, widths))
    rule = sep.join("-" * w for w in widths)
    body = "\n".join(
        sep.join(v.rjust(w) if _num_like(v) else v.ljust(w) for v, w in zip(line, widths))
        for line in cells
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, rule, body])
    return "\n".join(parts)


def _num_like(s: str) -> bool:
    """True when a rendered cell looks numeric (right-align it)."""
    try:
        float(s)
        return True
    except ValueError:
        return s in ("inf", "-inf", "nan", "-")
