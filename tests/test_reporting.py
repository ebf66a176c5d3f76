import json
from fractions import Fraction

import pytest

from guessbench.reporting import (
    emit_table,
    exact_cells,
    format_decimal,
    format_exact,
    provenance,
    render_csv,
    render_json_lines,
)


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
    text = render_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "frac,flag,off,nothing,items,text"
    assert lines[1] == '1/3,true,false,,"[1,2]",plain'
    assert text.endswith("\n")
    assert "\r" not in text


def test_header_follows_row_key_order():
    rows = [{"b": 2, "a": 1, **provenance()}, {"b": 3, "a": 4, **provenance()}]
    columns = ["b", "a", "version", "rng", "timestamp"]
    assert render_csv(rows).splitlines()[0] == ",".join(columns)
    for line in render_json_lines(rows).splitlines():
        assert list(json.loads(line)) == columns


def test_render_json_lines():
    rows = [{"a": Fraction(1, 2), "b": [1, 2], "c": None}, {"a": 1, "b": "x", "c": True}]
    text = render_json_lines(rows)
    parsed = [json.loads(line) for line in text.splitlines()]
    assert parsed[0] == {"a": "1/2", "b": [1, 2], "c": None}
    assert parsed[1] == {"a": 1, "b": "x", "c": True}


def test_emit_table_validation_and_path(tmp_path):
    for fmt in ("csv", "json"):
        with pytest.raises(ValueError, match="no rows"):
            emit_table([], fmt=fmt)
        # same keys in another order, a missing key, an extra key
        for second in ({"b": 2, "a": 1}, {"a": 1}, {"a": 1, "b": 2, "c": 3}):
            with pytest.raises(ValueError, match="row 1 has columns"):
                emit_table([{"a": 1, "b": 2}, second], fmt=fmt)
    with pytest.raises(ValueError):
        emit_table([{"a": 1}], fmt="xml")
    target = tmp_path / "out.csv"
    text = emit_table([{"a": 1}], fmt="csv", path=str(target))
    assert target.read_text() == text


def test_provenance_fields():
    stamp = provenance()
    assert set(stamp) == {"version", "rng", "timestamp"}
    assert stamp["rng"] == "philox4x64-r2"
    assert set(provenance(with_timestamp=False)) == {"version", "rng"}
