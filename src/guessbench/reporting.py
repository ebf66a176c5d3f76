"""Delimited output with lossless rationals.

Exact values travel as a pair of columns: the reduced "num/den" string (or a
plain integer) and a 6-decimal rendering for human scans.  Each row carries
its own columns: the header is the first row's keys in order, and every row
must have the same keys.  Rows end with ``provenance()``, so the timestamp is
the last column and byte-comparison of reruns can slice it off.  A report is
encoded a block of rows at a time (``emit_table``), so its text is never
held whole.
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


# JSON rows and CSV container cells; Fractions become "num/den" strings
_encode_json = json.JSONEncoder(separators=(",", ":"), default=format_exact).encode

# CSV cell encoders by exact type; any other type (a subclass, a numpy
# scalar) takes the entry of its first base class that has one, or str.
_ENCODE_CELL = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    Fraction: format_exact,
    float: format_decimal,
    int: str,
    str: str,
    list: _encode_json,
    tuple: _encode_json,
    dict: _encode_json,
}


def _encode_inherited(value) -> str:
    for base in type(value).__mro__:
        if base in _ENCODE_CELL:
            return _ENCODE_CELL[base](value)
    return str(value)


def emit_table(
    rows: list[dict], fmt: str = "csv", columns: list[str] | None = None, start: int = 0
) -> str:
    """The text of ``rows`` as CSV or JSON lines.

    With no ``columns`` the rows start a table: its columns are the first
    row's keys, and CSV text begins with them as the header.  Otherwise the
    rows continue a table with those columns, and ``start`` is the index of
    ``rows[0]`` in it, so a report can be written a block of rows at a time.
    Every row must have exactly the table's columns, in order.
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"unknown format {fmt!r}")
    header = columns is None
    if header:
        if not rows:
            raise ValueError("no rows to emit")
        columns = list(rows[0])
    for index, row in enumerate(rows, start):
        if list(row) != columns:
            raise ValueError(f"row {index} has columns {list(row)}, expected {columns}")
    if fmt == "json":
        return "".join(_encode_json(row) + "\n" for row in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    if header:
        writer.writerow(columns)
    encode = _ENCODE_CELL.get
    writer.writerows(
        [encode(type(value), _encode_inherited)(value) for value in row.values()] for row in rows
    )
    return buf.getvalue()


def provenance() -> dict:
    return {
        "version": __version__,
        "rng": RNG_FAMILY,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
