"""Delimited output with lossless rationals.

Exact values travel as a pair of columns: the reduced "num/den" string (or a
plain integer) and a 6-decimal rendering for human scans.  Each row carries
its own columns: the header is the first row's keys in order, and every row
must have the same keys.  Rows end with ``provenance()``, so the timestamp is
the last column and byte-comparison of reruns can slice it off.
"""

from __future__ import annotations

import csv
import io
import json
from datetime import datetime, timezone
from fractions import Fraction

from ._version import __version__
from .montecarlo import RNG_FAMILY

FLOAT_DECIMALS = 6


def format_exact(value: Fraction | int) -> str:
    return str(Fraction(value))


def format_decimal(value) -> str:
    return f"{float(value):.{FLOAT_DECIMALS}f}"


def exact_cells(name: str, value: Fraction | int) -> list[tuple[str, str]]:
    """The dual num/den + decimal encoding as two adjacent columns."""
    return [(name, format_exact(value)), (f"{name}_decimal", format_decimal(value))]


def _encode_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_exact(value)
    if isinstance(value, float):
        return format_decimal(value)
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _encode_json(value):
    if isinstance(value, Fraction):
        return format_exact(value)
    if isinstance(value, tuple):
        return [_encode_json(v) for v in value]
    if isinstance(value, list):
        return [_encode_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode_json(v) for k, v in value.items()}
    return value


def _columns(rows: list[dict]) -> list[str]:
    """The shared key order of ``rows``; raises unless every row has it."""
    if not rows:
        raise ValueError("no rows to emit")
    columns = list(rows[0])
    for index, row in enumerate(rows):
        if list(row) != columns:
            raise ValueError(f"row {index} has columns {list(row)}, expected {columns}")
    return columns


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_columns(rows))
    for row in rows:
        writer.writerow([_encode_cell(value) for value in row.values()])
    return buf.getvalue()


def render_json_lines(rows: list[dict]) -> str:
    _columns(rows)
    out = [json.dumps(_encode_json(row), separators=(",", ":")) for row in rows]
    return "\n".join(out) + "\n"


def emit_table(rows: list[dict], fmt: str = "csv", path: str | None = None) -> str:
    """Render rows and optionally write them; returns the rendered text."""
    if fmt == "csv":
        text = render_csv(rows)
    elif fmt == "json":
        text = render_json_lines(rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def provenance(with_timestamp: bool = True) -> dict:
    out = {"version": __version__, "rng": RNG_FAMILY}
    if with_timestamp:
        out["timestamp"] = datetime.now(timezone.utc).isoformat()
    return out
