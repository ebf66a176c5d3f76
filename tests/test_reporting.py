import enum
import json
import json.encoder
from fractions import Fraction

import numpy as np
import pytest

from guessbench import reporting
from guessbench.reporting import (
    emit_table,
    exact_cells,
    format_decimal,
    format_exact,
    provenance,
)
from oracles import render_csv, render_json_lines

REFERENCE = {"csv": render_csv, "json": render_json_lines}


def emit_in_blocks(rows, fmt, size):
    """The text of ``rows`` encoded ``size`` rows per emit_table call."""
    text = emit_table(rows[:size], fmt)
    columns = list(rows[0])
    for start in range(size, len(rows), size):
        text += emit_table(rows[start : start + size], fmt, columns, start)
    return text


def test_exact_formatting_round_trip():
    assert format_exact(Fraction(17, 6)) == "17/6"
    assert format_exact(Fraction(2)) == "2"
    assert format_exact(3) == "3"
    for value in (Fraction(5, 3), Fraction(0), Fraction(-7, 2)):
        assert Fraction(format_exact(value)) == value


def test_format_decimal():
    assert format_decimal(Fraction(17, 6)) == "2.833333"
    assert format_decimal(1.5) == "1.500000"
    assert format_decimal(2) == "2.000000"


def test_exact_cells_dual_encoding():
    assert exact_cells("value", Fraction(17, 6)) == [
        ("value", "17/6"),
        ("value_decimal", "2.833333"),
    ]


def test_render_csv_cell_encoding():
    rows = [
        {
            "frac": Fraction(1, 3),
            "flag": True,
            "off": False,
            "nothing": None,
            "items": [1, 2],
            "text": "plain",
        }
    ]
    text = emit_table(rows)
    lines = text.splitlines()
    assert lines[0] == "frac,flag,off,nothing,items,text"
    assert lines[1] == '1/3,true,false,,"[1,2]",plain'
    assert text.endswith("\n")
    assert "\r" not in text


class Level(enum.IntEnum):
    LOW = 1


# Cells of every type the encoder keys on, and subclasses that take a base
# class's entry: a bool next to the equal int, Fractions, None, nested
# containers, strings that need CSV quoting, floats.
EDGE_ROWS = [
    {"a": True, "b": 1, "c": Fraction(1, 3), "d": None, "e": [[1, [2, 3]], {"k": [4]}],
     "f": 'say "hi", then go', "g": 0.1},
    {"a": False, "b": 0, "c": Fraction(4), "d": (1, "x"), "e": {"n": None, "t": True},
     "f": "comma,inside", "g": 1e-7},
    {"a": Level.LOW, "b": -12, "c": Fraction(-7, 2), "d": "", "e": [],
     "f": "line\nbreak", "g": np.float64(2.5)},
    {"a": 1.0, "b": 10**30, "c": 3, "d": [None, False], "e": {},
     "f": "", "g": float("inf")},
]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cells_match_the_reference_renderers(fmt):
    assert emit_table(EDGE_ROWS, fmt) == REFERENCE[fmt](EDGE_ROWS)
    for size in (1, 3):
        assert emit_in_blocks(EDGE_ROWS, fmt, size) == REFERENCE[fmt](EDGE_ROWS)
    numpy_int = [{"a": np.int64(7), "b": np.bool_(True)}]
    if fmt == "csv":
        assert emit_table(numpy_int) == render_csv(numpy_int) == "a,b\n7,True\n"


class Verdict(str, enum.Enum):
    PASS = "PASS"


def mixed_column_rows(count):
    """Rows whose every column but "same" mixes types somewhere: a float
    column that turns None (as the tail grid's lhs does where the dominance
    rows begin), float next to np.float64, str next to a str-Enum, int next
    to bool, and a column that is all None."""
    rows = []
    for i in range(count):
        rows.append({
            "lhs": 0.125 * i if i < count - 2 else None,
            "rhs": np.float64(i / 7) if i % 5 == 2 else i / 7,
            "verdict": Verdict.PASS if i % 4 == 3 else "PASS",
            "k": bool(i % 2) if i % 6 == 1 else i,
            "nothing": None,
            "same": "x",
        })
    return rows


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("size", [1, 3, 512])
def test_mixed_columns_match_the_reference_renderers(fmt, size):
    # long enough that the 512-row blocks hold both pure and mixed columns
    rows = mixed_column_rows(1030)
    assert emit_in_blocks(rows, fmt, size) == REFERENCE[fmt](rows)
    # a block holding only the mixed tail and one holding only the pure head
    for part in (rows[-3:], rows[:2]):
        assert emit_in_blocks(part, fmt, size) == REFERENCE[fmt](part)


def test_rows_without_columns_write_empty_lines():
    assert emit_table([{}, {}]) == render_csv([{}, {}]) == "\n\n\n"
    assert emit_table([{}], "csv", [], 3) == "\n"


def test_json_encoder_falls_back_to_the_public_encoder(monkeypatch):
    # no C encoder, and one whose arguments mean something else, so that
    # it fails the probe
    for fake in (None, lambda *args: lambda value, level: "?"):
        with monkeypatch.context() as patch:
            patch.setattr(json.encoder, "c_make_encoder", fake)
            public = reporting._json_encoder()
        assert isinstance(public.__self__, json.JSONEncoder)
    for row in EDGE_ROWS + mixed_column_rows(4):
        assert reporting._encode_json(row) == public(row)
        for value in row.values():
            assert reporting._encode_json(value) == public(value)


def test_json_encoder_recovers_after_a_failed_encode():
    # the same containers encode once the fault is gone, so nothing of the
    # failed calls is left in the circular check
    encode = reporting._json_encoder()
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular"):
        encode(loop)
    loop.clear()
    assert encode(loop) == "[]"
    bad = [[1], {"k": object()}]
    with pytest.raises(TypeError):
        encode(bad)
    bad.pop()
    assert encode(bad) == "[[1]]"


def test_header_follows_row_key_order():
    rows = [{"b": 2, "a": 1, **provenance()}, {"b": 3, "a": 4, **provenance()}]
    columns = ["b", "a", "version", "rng", "timestamp"]
    assert emit_table(rows).splitlines()[0] == ",".join(columns)
    for line in emit_table(rows, "json").splitlines():
        assert list(json.loads(line)) == columns


def test_render_json_lines():
    rows = [{"a": Fraction(1, 2), "b": [1, 2], "c": None}, {"a": 1, "b": "x", "c": True}]
    text = emit_table(rows, "json")
    parsed = [json.loads(line) for line in text.splitlines()]
    assert parsed[0] == {"a": "1/2", "b": [1, 2], "c": None}
    assert parsed[1] == {"a": 1, "b": "x", "c": True}


def test_emit_table_validation_across_blocks():
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="no rows"):
            emit_table([], fmt=fmt)
        # same keys in another order, a missing key, an extra key
        for second in ({"b": 2, "a": 1}, {"a": 1}, {"a": 1, "b": 2, "c": 3}):
            with pytest.raises(ValueError, match="row 1 has columns"):
                emit_table([{"a": 1, "b": 2}, second], fmt=fmt)
            # a later block is checked against the first block's columns,
            # and its rows are numbered from its start
            with pytest.raises(ValueError, match="row 8 has columns"):
                emit_table([{"a": 1, "b": 2}, second], fmt, ["a", "b"], 7)
    # only the first block writes the header
    assert emit_table([{"a": 1, "b": 2}], "csv") == "a,b\n1,2\n"
    assert emit_table([{"a": 1, "b": 2}], "csv", ["a", "b"], 5) == "1,2\n"
    with pytest.raises(ValueError):
        emit_table([{"a": 1}], fmt="xml")


def test_provenance_fields():
    stamp = provenance()
    assert set(stamp) == {"version", "rng", "timestamp"}
    assert stamp["rng"] == "philox4x64-r2"
