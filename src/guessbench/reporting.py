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


_JSON_PROBE = '{"a":[1,-2.5,null,true,"\\u00e9\\n"],"b":["1/3"],"c":{}}'


def _json_encoder():
    """The encode of a compact JSONEncoder whose default writes Fractions
    as "num/den", with the C encoder it builds on every call built once.
    ``c_make_encoder`` is not public API, so where it is missing, takes
    other arguments or encodes a probe otherwise, the public encode is
    returned."""
    encoder = json.JSONEncoder(separators=(",", ":"), default=format_exact)
    markers: dict = {}
    try:
        from json.encoder import c_make_encoder, encode_basestring_ascii

        iterencode = c_make_encoder(
            markers, encoder.default, encode_basestring_ascii, None, ":", ",", False, False, True
        )
    except (ImportError, TypeError):
        return encoder.encode

    def encode(value) -> str:
        try:
            return "".join(iterencode(value, 0))
        finally:
            # a failed encode leaves its containers in the circular check
            markers.clear()

    try:
        probe = encode({"a": [1, -2.5, None, True, "é\n"], "b": (Fraction(1, 3),), "c": {}})
    except (TypeError, ValueError):
        probe = None
    return encode if probe == _JSON_PROBE else encoder.encode


# JSON rows and CSV container cells; Fractions become "num/den" strings
_encode_json = _json_encoder()

# CSV cell encoders by exact type; any other type (a subclass, a numpy
# scalar) takes the entry of its first base class that has one, or str.
# The float entry is format_decimal without its float() call.
_ENCODE_CELL = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    Fraction: format_exact,
    float: f"{{:.{FLOAT_DECIMALS}f}}".format,
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


def _encode_cell(value) -> str:
    return _ENCODE_CELL.get(type(value), _encode_inherited)(value)


def _encode_column(column: tuple):
    """The CSV cells of one column of a block.  A column of one exact type
    that has an entry maps that entry over it, and a str column passes
    through; any other column encodes cell by cell."""
    kinds = set(map(type, column))
    if len(kinds) == 1:
        (kind,) = kinds
        if kind is str:
            return column
        if kind in _ENCODE_CELL:
            return map(_ENCODE_CELL[kind], column)
    return map(_encode_cell, column)


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
    # encoded a column at a time, so each column looks up its encoder once;
    # rows with no columns have no column to zip, so they are written as is
    cells = [_encode_column(column) for column in zip(*[row.values() for row in rows])]
    writer.writerows(zip(*cells) if columns else rows)
    return buf.getvalue()


def provenance() -> dict:
    return {
        "version": __version__,
        "rng": RNG_FAMILY,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
