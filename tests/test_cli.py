import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

import guessbench.bounds as bounds
import guessbench.cli as cli
import guessbench.exact as exact
from guessbench.cli import (
    CONFIG_ENV,
    SUBCOMMANDS,
    UsageError,
    _COMMANDS,
    _build_parser,
    _flags,
    main,
    merge_config,
    parse_config_text,
)
from guessbench.exact import PointwiseReport
from oracles import render_csv, render_json_lines


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(text.splitlines()))


REPO_ROOT = Path(__file__).resolve().parent.parent
PROVENANCE = ["version", "rng", "timestamp"]
SIMULATE_COLUMNS = [
    "m", "n", "model", "strategy", "trials", "seed", "workers",
    "mean", "sd", "se", "min", "max",
]


def test_subcommand_catalog():
    assert SUBCOMMANDS == (
        "exact-value",
        "optimal",
        "simulate",
        "verify-pointwise",
        "verify-bounds",
        "tj",
        "persistence",
        "lstat",
        "table",
    )


def test_parse_config_text_errors():
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config_text("depth=3\n")
    with pytest.raises(UsageError, match="not key=value"):
        parse_config_text("just words\n")
    with pytest.raises(UsageError, match="needs a number"):
        parse_config_text("trials=lots\n")
    assert parse_config_text("# comment\n\nm=3\n") == {"m": 3}


def test_merge_config_precedence_and_choices():
    config = merge_config("simulate", {"m": 2, "n": 5}, {"m": 3, "seed": None})
    assert config.m == 3
    assert config.n == 5
    assert config.seed == 0
    with pytest.raises(UsageError, match="sense"):
        merge_config("optimal", {}, {"sense": "sideways"})
    with pytest.raises(UsageError, match="model"):
        merge_config("optimal", {"model": "telepathy"}, {})


def test_usage_errors_exit_2(capsys):
    assert run_cli(capsys, "exact-value", "-n", "3", "--strategy", "partial-mle")[0] == 2
    assert run_cli(capsys, "exact-value", "-m", "1", "-n", "3")[0] == 2
    assert run_cli(capsys, "optimal", "-m", "1", "-n", "3")[0] == 2
    assert run_cli(capsys, "nonsense")[0] == 2
    code, _, err = run_cli(
        capsys, "exact-value", "-m", "1", "-n", "3", "--strategy", "who-knows"
    )
    assert code == 2
    assert "unknown strategy" in err
    # enumerating a randomized strategy is a usage-level mistake
    code, _, err = run_cli(
        capsys, "exact-value", "-m", "2", "-n", "2", "--strategy", "partial-uniform"
    )
    assert code == 2
    assert "randomized" in err


def test_optimal_outputs(capsys):
    code, out, _ = run_cli(capsys, "optimal", "-m", "1", "-n", "3", "--model", "complete")
    assert code == 0
    header, row = read_csv(out)
    assert header[-1] == "timestamp"
    data = dict(zip(header, row))
    assert data["value"] == "11/6"
    assert data["value_decimal"] == "1.833333"

    code, out, _ = run_cli(capsys, "optimal", "-m", "1", "-n", "2", "--model", "partial")
    assert dict(zip(*read_csv(out)))["value"] == "3/2"

    code, out, _ = run_cli(capsys, "optimal", "-m", "2", "-n", "9", "--model", "none")
    assert dict(zip(*read_csv(out)))["value"] == "2"

    code, out, _ = run_cli(
        capsys, "optimal", "-m", "1", "-n", "3", "--model", "complete", "--sense", "min"
    )
    assert dict(zip(*read_csv(out)))["value"] == "1/3"


def test_optimal_fails_fast_past_state_limit(capsys):
    # C(1502, 2) - 1 = 1,127,250 partial states at least, so no search starts
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "optimal", "-m", "1", "-n", "1500", "--model", "partial")
    assert time.perf_counter() - start < 10
    assert code == 2
    assert out == ""
    assert "more than 400000 partial states" in err
    assert "state_limit" in err


@pytest.mark.parametrize("model", ["none"])
def test_optimal_rejects_state_limit_it_does_not_read(capsys, model):
    code, out, err = run_cli(
        capsys, "optimal", "-m", "2", "-n", "2", "--model", model, "--state-limit", "1"
    )
    assert code == 2
    assert out == ""
    assert f"--state-limit is read only with --model partial or complete, not {model}" in err


def test_optimal_complete_refuses_past_the_state_limit(capsys):
    # C(450, 50) complete-feedback states: refused before the sweep starts
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "optimal", "-m", "400", "-n", "50", "--model", "complete")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "more than 400000 complete-feedback states" in err
    # (2,3) has C(5, 3) = 10 states: a limit of 10 solves it, 9 refuses it
    code, out, err = run_cli(capsys, "optimal", "-m", "2", "-n", "3", "--model", "complete",
                             "--state-limit", "10")
    assert code == 0, err
    assert dict(zip(*read_csv(out)))["value"] == "101/30"
    code, out, err = run_cli(capsys, "optimal", "-m", "2", "-n", "3", "--model", "complete",
                             "--state-limit", "9")
    assert code == 2
    assert out == ""
    assert "more than 9 complete-feedback states" in err


def test_workers_must_be_positive(capsys):
    for workers in ("0", "-3"):
        code, out, err = run_cli(
            capsys, "simulate", "-m", "2", "-n", "3", "--strategy", "nofb-cyclic",
            "--trials", "10", "--workers", workers,
        )
        assert code == 2
        assert out == ""
        assert f"--workers must be at least 1, got {workers}" in err
    with pytest.raises(UsageError, match="--workers"):
        merge_config("simulate", {"workers": 0}, {})


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify-pointwise", "--max-total", "0"), "--max-total must be at least 1, got 0"),
        (("optimal", "-m", "2", "-n", "2", "--model", "partial", "--state-limit", "0"),
         "--state-limit must be at least 1, got 0"),
        (("optimal", "-m", "2", "-n", "2", "--model", "partial", "--state-limit", "-5"),
         "--state-limit must be at least 1, got -5"),
        (("simulate", "-m", "2", "-n", "3", "--strategy", "nofb-cyclic", "--trials", "10",
          "--seed", "-1"), "--seed must be at least 0, got -1"),
    ],
)
def test_limits_and_seed_must_be_in_range(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_limits_and_seed_reject_config_values():
    cases = (("lstat", "max_total", 0), ("table", "state_limit", 0), ("lstat", "seed", -1))
    for subcommand, key, value in cases:
        with pytest.raises(UsageError, match="--" + key.replace("_", "-")):
            merge_config(subcommand, {key: value}, {})
        # the lowest accepted value is used as given, not replaced by a default
        config = merge_config(subcommand, {key: value + 1}, {})
        assert getattr(config, key) == value + 1


def test_exact_value_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "exact-value", "-m", "2", "-n", "2", "--strategy", "complete-greedy-max"
    )
    assert code == 0
    assert dict(zip(*read_csv(out)))["value"] == "17/6"
    # one type: a single shuffle, enumerated without recursion
    code, out, _ = run_cli(
        capsys, "exact-value", "-m", "1200", "-n", "1", "--strategy", "complete-greedy-max"
    )
    assert code == 0
    assert dict(zip(*read_csv(out)))["value"] == "1200"


def test_simulate_rerun_identical_minus_timestamp(tmp_path, capsys):
    args = [
        "simulate", "-m", "2", "-n", "3", "--strategy", "partial-mle",
        "--trials", "400", "--seed", "12",
    ]
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(first))[0] == 0
    assert run_cli(capsys, *args, "--out", str(second))[0] == 0

    rows_a = read_csv(first.read_text())
    rows_b = read_csv(second.read_text())
    assert rows_a[0] == rows_b[0]
    assert rows_a[0][-1] == "timestamp"
    assert [r[:-1] for r in rows_a] == [r[:-1] for r in rows_b]
    data = dict(zip(rows_a[0], rows_a[1]))
    assert data["trials"] == "400"
    assert 0.0 <= float(data["mean"]) <= 6.0


def test_simulate_stdout_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "simulate", "-m", "2", "-n", "2", "--strategy", "nofb-cyclic",
        "--trials", "300", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out.splitlines()[0])
    assert list(payload) == SIMULATE_COLUMNS + ["histogram"] + PROVENANCE
    assert payload["trials"] == 300
    assert isinstance(payload["histogram"], list)
    assert sum(count for _, count in payload["histogram"]) == 300


def test_tj_exact_column(capsys):
    code, out, _ = run_cli(
        capsys, "tj", "-m", "2", "-n", "2", "-j", "2", "--trials", "500", "--seed", "3"
    )
    assert code == 0
    rows = read_csv(out)
    data = [dict(zip(rows[0], r)) for r in rows[1:]]
    assert {d["t"] for d in data} == {"2", "3"}
    by_t = {d["t"]: d for d in data}
    assert by_t["2"]["survival_exact"] == "2/3"
    assert by_t["3"]["survival_exact"] == "0"
    assert sum(int(d["count"]) for d in data) == 500


def test_decks_past_int16_types_simulate(capsys):
    # 40,000 types do not fit the int16 deck word; the sampler widens it
    code, out, _ = run_cli(
        capsys, "simulate", "-m", "1", "-n", "40000", "--strategy", "nofb-constant",
        "--trials", "1",
    )
    assert code == 0
    data = dict(zip(*read_csv(out)))
    assert data["mean"] == "1.000000"
    code, out, _ = run_cli(capsys, "tj", "-m", "1", "-n", "40000", "-j", "1", "--trials", "1")
    assert code == 0
    rows = read_csv(out)
    assert [dict(zip(rows[0], r))["t"] for r in rows[1:]] == ["1"]


def test_persistence_subcommand(capsys):
    code, out, _ = run_cli(capsys, "persistence", "-m", "2", "-n", "2")
    assert code == 0
    data = dict(zip(*read_csv(out)))
    assert data["violations"] == "0"
    assert data["holds"] == "true"


def test_persistence_report_lists_each_violation(capsys, monkeypatch):
    violation = exact.PersistenceViolation(
        ((2, 0), (2, 1)), (2, 1), ((2, 0), (2, 2)), ((2, 0),)
    )
    monkeypatch.setattr(exact, "probe_persistence", lambda spec, state_limit: [violation])
    code, out, err = run_cli(capsys, "persistence", "-m", "2", "-n", "2")
    assert code == 0, err
    header, summary, listed = read_csv(out)
    assert header[:7] == ["m", "n", "violations", "holds", "state", "guess",
                          "successor_optimal"]
    assert summary[:7] == ["2", "2", "1", "false", "", "", ""]
    assert listed[:7] == ["2", "2", "1", "false", "[[2,0],[2,1]]", "[2,1]", "[[2,0]]"]
    code, out, err = run_cli(capsys, "persistence", "-m", "2", "-n", "2", "--format", "json")
    assert code == 0, err
    summary, listed = (json.loads(line) for line in out.splitlines())
    common = {"m": 2, "n": 2, "violations": 1, "holds": False}
    assert summary.items() >= {**common, "state": None, "guess": None,
                               "successor_optimal": None}.items()
    assert listed.items() >= {**common, "state": [[2, 0], [2, 1]], "guess": [2, 1],
                              "successor_optimal": [[2, 0]]}.items()


def test_lstat_exact_cells(capsys):
    for argv, mean_exact in [(("-m", "1", "-n", "2", "--trials", "400"), "3/2"),
                             (("-m", "1200", "-n", "1", "--trials", "10"), "1")]:
        code, out, _ = run_cli(capsys, "lstat", *argv)
        assert code == 0
        assert dict(zip(*read_csv(out)))["mean_exact"] == mean_exact
    code, out, _ = run_cli(
        capsys, "lstat", "-m", "4", "-n", "13", "--trials", "50", "--seed", "1"
    )
    assert code == 0
    assert "mean_exact" not in read_csv(out)[0]


def test_verify_pointwise_subcommand(capsys):
    code, out, _ = run_cli(capsys, "verify-pointwise", "--max-total", "5")
    assert code == 0
    data = dict(zip(*read_csv(out)))
    assert data["verdict"] == "PASS"
    assert data["max_ratio"] == "1"
    assert int(data["states_checked"]) > 0


def test_verify_bounds_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "verify-bounds", "--max-total", "12", "--trials", "300"
    )
    assert code == 0
    rows = read_csv(out)
    verdicts = {dict(zip(rows[0], r))["verdict"] for r in rows[1:]}
    assert "FAIL" not in verdicts
    assert "PASS" in verdicts


def strip_provenance(text, fmt):
    """The report without its trailing version, rng and timestamp cells."""
    if fmt == "csv":
        return "".join(line.rsplit(",", 3)[0] + "\n" for line in text.splitlines())
    return "".join(line[: line.rindex(',"version":')] + "}\n" for line in text.splitlines())


@pytest.mark.parametrize("fmt,digest", [
    ("csv", "2d4830c684e778a082f8e5cf147515af249a54754cc976aa58f2046b394785cb"),
    ("json", "25f19795782bd3564e7430ed16f4875454b06fb481681c7abdc9879a70eecf81"),
])
def test_verify_bounds_report_bytes_pinned(capsys, fmt, digest):
    # every row of the report, grid, simulated and dominance alike
    code, out, err = run_cli(capsys, "verify-bounds", "--max-total", "20", "--trials", "2000",
                             "--seed", "0", "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(strip_provenance(out, fmt).encode()).hexdigest() == digest


@pytest.mark.parametrize("fmt,digest", [
    ("csv", "58afb354a1152ac20149630c6f6fefc06029d2143dd6f906a313078bf91f6a91"),
    ("json", "7d81e83eef5c764d613488a15a67a4305181e0a54fc0bf153f38fcce031e2178"),
])
def test_verify_bounds_60_report_bytes_pinned(capsys, fmt, digest):
    # the benchmark's tail grid: 39,844 grid rows, every block of the
    # column encoder, and the grid/dominance boundary where lhs turns None
    code, out, err = run_cli(capsys, "verify-bounds", "--max-total", "60", "--trials", "10000",
                             "--seed", "0", "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(strip_provenance(out, fmt).encode()).hexdigest() == digest


@pytest.mark.parametrize("argv,fmt,digest", [
    (("verify-pointwise", "--max-total", "8"), "csv",
     "a9ee1cec090e47f1551ffd600a9656e1ea858a7b7d890d09653d34360946b144"),
    (("verify-pointwise", "--max-total", "8", "--format", "json"), "json",
     "82dbad9943f71da116e7990406f97d297e85caeddecbf5264fa2c9ab4f48a7e2"),
    (("exact-value", "-m", "2", "-n", "5", "--strategy", "complete-greedy-max"), "csv",
     "0694b03777ff173f0461fb42b17318557c4d087ceb10d930686856616dbfb58f"),
])
def test_exact_sweep_report_bytes_pinned(capsys, argv, fmt, digest):
    # taken from the ordered grid walk and the next-permutation enumeration
    # that the multiset walk and the shuffle blocks replaced
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert hashlib.sha256(strip_provenance(out, fmt).encode()).hexdigest() == digest


@pytest.mark.parametrize("sid", ["partial-mle", "partial-min-mle"])
def test_simulate_refuses_partial_mle_past_its_card_limit(capsys, sid):
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "simulate", "-m", "400", "-n", "50", "--strategy", sid, "--trials", "2000"
    )
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert f"{sid} plays at most 200 cards (m*n), got 20000" in err


def test_verify_pointwise_refuses_a_grid_past_the_state_limit(capsys):
    # the multisets are counted per total, so none is listed before the refusal
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "verify-pointwise", "--max-total", "40")
    assert time.perf_counter() - started < 0.5
    assert code == 2
    assert out == ""
    assert f"more than {exact.DEFAULT_STATE_LIMIT} pair multisets" in err
    assert "454598 with at most 16 cards" in err


def test_failing_dominance_row_names_its_witness(capsys, monkeypatch):
    # all mass on two hits in the first two draws of (1,6): Binomial(2, 1/2)
    # reaches 2 with chance 1/4 only, so the envelope fails at k = 2
    pmf = bounds.first_third_pmf

    def patched(spec, strategy):
        if (spec.multiplicity, spec.num_types, strategy.label()) == (1, 6, "partial-mle"):
            return {2: Fraction(1)}
        return pmf(spec, strategy)

    monkeypatch.setattr(bounds, "first_third_pmf", patched)
    code, out, err = run_cli(capsys, "verify-bounds", "--max-total", "4", "--trials", "100")
    assert code == 1, err
    header, *body = read_csv(out)
    failed = [row for row in (dict(zip(header, cells)) for cells in body)
              if row["verdict"] == bounds.FAIL]
    assert len(failed) == 1
    assert failed[0]["bound"] == "first-third-dominance"
    assert json.loads(failed[0]["params"]) == {
        "m": 1, "n": 6, "strategy": "partial-mle", "prefix": 2
    }
    assert failed[0]["notes"] == "witness 2"


def test_table_subcommand(capsys):
    code, out, _ = run_cli(capsys, "table", "--m-grid", "1,2", "--n-grid", "2,3")
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 5
    data = [dict(zip(rows[0], r)) for r in rows[1:]]
    first = {(d["m"], d["n"]): d for d in data}
    assert first[("1", "2")]["partial_max"] == "3/2"
    assert first[("2", "2")]["complete_max"] == "17/6"
    assert first[("2", "3")]["nofb"] == "2"
    assert "m^(3/4)" in data[0]["asymptotic_error_forms"]
    # partial cells past m*n = 16 are solved, not left empty
    code, out, _ = run_cli(capsys, "table", "-m", "9", "-n", "2")
    assert code == 0
    row = dict(zip(*read_csv(out)))
    assert row["partial_max"] == row["complete_max"] == "272171/24310"


REPORT_HEADERS = [
    pytest.param(
        ["exact-value", "-m", "2", "-n", "2", "--strategy", "complete-greedy-max"],
        ["m", "n", "model", "strategy", "value", "value_decimal"],
        id="exact-value",
    ),
    pytest.param(
        ["optimal", "-m", "1", "-n", "3", "--model", "complete"],
        ["m", "n", "model", "sense", "value", "value_decimal"],
        id="optimal",
    ),
    pytest.param(
        ["simulate", "-m", "2", "-n", "2", "--strategy", "nofb-cyclic", "--trials", "50"],
        SIMULATE_COLUMNS,
        id="simulate",
    ),
    pytest.param(
        ["verify-pointwise", "--max-total", "4"],
        ["max_total", "states_checked", "max_ratio", "max_ratio_decimal",
         "witness_count", "witnesses", "verdict"],
        id="verify-pointwise",
    ),
    pytest.param(
        ["verify-bounds", "--max-total", "6", "--trials", "100"],
        ["bound", "params", "lhs", "lhs_radius", "rhs", "verdict", "notes"],
        id="verify-bounds",
    ),
    pytest.param(
        ["tj", "-m", "2", "-n", "2", "-j", "2", "--trials", "50"],
        ["m", "n", "j", "trials", "seed", "t", "count", "survival", "survival_se",
         "survival_exact", "survival_exact_decimal"],
        id="tj-j2-exact",
    ),
    pytest.param(
        ["tj", "-m", "3", "-n", "2", "-j", "3", "--trials", "50"],
        ["m", "n", "j", "trials", "seed", "t", "count", "survival", "survival_se"],
        id="tj-j3",
    ),
    pytest.param(
        ["persistence", "-m", "2", "-n", "2"],
        ["m", "n", "violations", "holds", "state", "guess", "successor_optimal"],
        id="persistence",
    ),
    pytest.param(
        ["lstat", "-m", "1", "-n", "2", "--trials", "40"],
        ["m", "n", "trials", "seed", "mean", "sd", "se", "mean_exact", "mean_exact_decimal"],
        id="lstat-exact",
    ),
    pytest.param(
        ["lstat", "-m", "4", "-n", "13", "--trials", "20"],
        ["m", "n", "trials", "seed", "mean", "sd", "se"],
        id="lstat-no-exact",
    ),
    pytest.param(
        ["table", "-m", "1", "-n", "2"],
        ["m", "n", "shuffles", "nofb", "nofb_decimal",
         "partial_max", "partial_max_decimal", "partial_min", "partial_min_decimal",
         "complete_max", "complete_max_decimal", "complete_min", "complete_min_decimal",
         "asymptotic_error_forms"],
        id="table",
    ),
]


@pytest.mark.parametrize("argv,columns", REPORT_HEADERS)
def test_report_header(capsys, argv, columns):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    rows = read_csv(out)
    assert rows[0] == columns + PROVENANCE
    assert all(len(row) == len(rows[0]) for row in rows[1:])


@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [p.values[0] for p in REPORT_HEADERS],
                         ids=[p.id for p in REPORT_HEADERS])
def test_streamed_report_matches_reference_renderer(capsys, monkeypatch, argv, fmt, block_rows):
    # the rows run() hands to emit_table, stamped, rendered whole by the
    # earlier renderers, must give the streamed bytes
    if block_rows is not None:
        monkeypatch.setattr(cli, "_BLOCK_ROWS", block_rows)
    seen = []
    emit = cli.emit_table

    def recording(rows, *args):
        seen.extend(dict(row) for row in rows)
        return emit(rows, *args)

    monkeypatch.setattr(cli, "emit_table", recording)
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0, err
    reference = {"csv": render_csv, "json": render_json_lines}[fmt]
    assert out == reference(seen)


def test_report_memory_does_not_grow_with_rows():
    # verify-bounds at --max-total 40 has about 6x the rows of 20; streamed,
    # its allocation peak stays near the smaller run's
    def peak(max_total):
        argv = ["verify-bounds", "--max-total", str(max_total), "--trials", "100",
                "--out", os.devnull]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(bounds.single_tail_grid(40)) > 5 * len(bounds.single_tail_grid(20))
    # a first run fills what the process keeps (numpy, the dominance pmfs),
    # so both peaks measure one report
    main(["verify-bounds", "--max-total", "2", "--trials", "100", "--out", os.devnull])
    small, large = peak(20), peak(40)
    assert large < 1.5 * small, (small, large)


def test_verify_bounds_usage_error_writes_nothing(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "verify-bounds", "--trials", "0", "--out", str(target))
    assert code == 2
    assert out == ""
    assert "trials must be positive" in err
    assert not target.exists()
    code, out, _ = run_cli(capsys, "verify-bounds", "--trials", "0")
    assert (code, out) == (2, "")


def test_unwritable_out_exits_2(capsys, tmp_path):
    target = tmp_path / "missing" / "report.csv"
    code, out, err = run_cli(capsys, "optimal", "-m", "2", "-n", "2", "--model", "complete",
                             "--out", str(target))
    assert (code, out) == (2, "")
    assert "cannot write" in err


def test_closed_stdout_stops_quietly_with_status_141(tmp_path):
    # a reader that stops early, as `| head -1` does, closes the pipe while
    # the report, 431,069 bytes here, is still being written
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    argv = ["verify-bounds", "--max-total", "20", "--trials", "200"]
    with open(tmp_path / "stderr", "w+b") as err:
        proc = subprocess.Popen([sys.executable, "-m", "guessbench.cli", *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env)
        try:
            assert proc.stdout.readline().startswith(b"bound,params,")
            proc.stdout.close()
            assert proc.wait(timeout=120) == 141
        finally:
            proc.kill()
            proc.wait()
        err.seek(0)
        assert err.read() == b""


def test_fail_inside_grid_exits_1_after_every_row(capsys, monkeypatch, tmp_path):
    grid = bounds.single_tail_grid

    def failing_once(max_population):
        for index, report in enumerate(grid(max_population)):
            yield report._replace(verdict=bounds.FAIL) if index == 100 else report

    monkeypatch.setattr(cli, "_BLOCK_ROWS", 64)
    monkeypatch.setattr(bounds, "single_tail_grid", failing_once)
    target = tmp_path / "report.csv"
    code, out, err = run_cli(capsys, "verify-bounds", "--max-total", "12", "--trials", "100",
                             "--out", str(target))
    assert code == 1, err
    assert out == ""
    rows = read_csv(target.read_text())
    verdicts = [dict(zip(rows[0], row))["verdict"] for row in rows[1:]]
    assert len(verdicts) == len(grid(12)) + 2 + 45
    assert [i for i, v in enumerate(verdicts) if v == bounds.FAIL] == [100]


def test_verify_pointwise_exits_1_on_fail(capsys, monkeypatch):
    failing = PointwiseReport(max_ratio=Fraction(3, 2), witnesses=(), witness_count=0,
                              states_checked=1)
    monkeypatch.setattr(exact, "verify_pointwise", lambda max_total: failing)
    code, out, _ = run_cli(capsys, "verify-pointwise", "--max-total", "3")
    assert code == 1
    assert dict(zip(*read_csv(out)))["verdict"] == "FAIL"


def test_table_validates_every_cell_before_solving(capsys, monkeypatch):
    solved = []
    monkeypatch.setattr(exact, "_sweep_down", lambda spec, limit: solved.append(spec))
    code, out, err = run_cli(capsys, "table", "--m-grid", "10,0", "--n-grid", "3")
    assert code == 2
    assert out == ""
    assert "error:" in err
    assert solved == []


def test_table_refuses_a_shuffle_count_too_long_to_print(capsys, monkeypatch):
    # (400,50)'s shuffle count has more digits than the interpreter prints;
    # the deck is refused before any cell of the grid is solved
    solved = []
    monkeypatch.setattr(exact, "_sweep_down", lambda spec, limit: solved.append(spec))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--m-grid", "1,400", "-n", "50")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert "m=400, n=50" in err and str(sys.get_int_max_str_digits()) in err
    assert solved == []


@pytest.mark.parametrize(
    "argv, limit",
    [
        (["exact-value", "-m", "8000", "-n", "50", "--strategy", "nofb-cyclic"], "1000000"),
        (["exact-value", "-m", "2000", "-n", "50", "--strategy", "nofb-cyclic"], "1000000"),
        (["table", "-m", "20000", "-n", "50"], str(sys.get_int_max_str_digits())),
    ],
)
def test_huge_shuffle_counts_are_refused_at_once(capsys, argv, limit):
    # the exact count has millions of digits; the capped count stops early
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert out == ""
    assert limit in err and "limit" in err


def test_table_state_limit_flag(capsys):
    # (2,3) has C(5, 3) = 10 complete-feedback states and more partial ones
    code, out, err = run_cli(capsys, "table", "-m", "2", "-n", "3", "--state-limit", "10")
    assert code == 0, err
    row = dict(zip(*read_csv(out)))
    for sense in ("max", "min"):
        assert row[f"partial_{sense}"] == row[f"partial_{sense}_decimal"] == ""
    assert row["complete_max"] == "101/30"
    assert row["complete_min"] == "13/15"


def test_table_leaves_complete_cells_empty_past_the_state_limit(capsys):
    # C(24, 12) = 2,704,156 complete states at (12,12): every value cell
    # but nofb is left empty, and nothing is swept
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "-m", "12", "-n", "12")
    assert time.perf_counter() - start < 1
    assert code == 0, err
    row = dict(zip(*read_csv(out)))
    assert row["nofb"] == "12"
    for model in ("partial", "complete"):
        for sense in ("max", "min"):
            assert row[f"{model}_{sense}"] == row[f"{model}_{sense}_decimal"] == ""
    # (2,3) has C(5, 3) = 10 complete states
    for limit, complete_max in (("9", ""), ("10", "101/30")):
        code, out, err = run_cli(capsys, "table", "-m", "2", "-n", "3", "--state-limit", limit)
        assert code == 0, err
        assert dict(zip(*read_csv(out)))["complete_max"] == complete_max


def test_table_runs_one_down_pass_per_cell(capsys, monkeypatch):
    # both senses of a cell share its down pass, so a cell whose down pass
    # trips the state limit leaves both partial cells empty
    specs = []
    sweep_down = exact._sweep_down

    def recording(spec, state_limit):
        specs.append((spec.multiplicity, spec.num_types))
        return sweep_down(spec, state_limit)

    monkeypatch.setattr(exact, "_sweep_down", recording)
    code, out, err = run_cli(capsys, "table", "-m", "2", "-n", "7", "--state-limit", "500")
    assert code == 0, err
    row = dict(zip(*read_csv(out)))
    for sense in ("max", "min"):
        assert row[f"partial_{sense}"] == row[f"partial_{sense}_decimal"] == ""
    assert specs == [(2, 7)]
    specs.clear()
    code, out, err = run_cli(capsys, "table", "--m-grid", "1,2", "--n-grid", "2,3")
    assert code == 0, err
    assert specs == [(1, 2), (1, 3), (2, 2), (2, 3)]


def test_table_requires_grid(capsys):
    assert run_cli(capsys, "table")[0] == 2
    assert run_cli(capsys, "table", "--m-grid", "1,x", "--n-grid", "2")[0] == 2


@pytest.mark.parametrize(
    "argv, message",
    [
        (("-m", "9", "-n", "9", "--m-grid", "1", "--n-grid", "2"), "give -m or --m-grid, not both"),
        (("-m", "9", "--m-grid", "1", "--n-grid", "2"), "give -m or --m-grid, not both"),
        (("-n", "9", "--m-grid", "1", "--n-grid", "2"), "give -n or --n-grid, not both"),
    ],
)
def test_table_rejects_single_value_with_grid(capsys, argv, message):
    code, out, err = run_cli(capsys, "table", *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    config = tmp_path / "run.cfg"
    config.write_text("m=1\nn=3\nmodel=complete\n")
    code, out, _ = run_cli(capsys, "optimal", "--config", str(config))
    assert code == 0
    assert dict(zip(*read_csv(out)))["value"] == "11/6"

    # flags override the file
    code, out, _ = run_cli(capsys, "optimal", "--config", str(config), "-n", "2")
    assert dict(zip(*read_csv(out)))["value"] == "3/2"

    monkeypatch.setenv(CONFIG_ENV, str(config))
    code, out, _ = run_cli(capsys, "optimal")
    assert code == 0
    assert dict(zip(*read_csv(out)))["value"] == "11/6"

    monkeypatch.setenv(CONFIG_ENV, str(tmp_path / "missing.cfg"))
    assert run_cli(capsys, "optimal", "-m", "1", "-n", "2", "--model", "none")[0] == 2


def test_config_repeated_key_exits_2(tmp_path, capsys):
    config = tmp_path / "twice.cfg"
    config.write_text("m=2\nn=2\n# a later value does not override\nm=3\n")
    code, out, err = run_cli(capsys, "optimal", "--model", "complete", "--config", str(config))
    assert (code, out) == (2, "")
    assert "config key 'm' is given twice, on lines 1 and 4" in err


def test_config_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("m=1\nn=2\ndepth=4\n")
    code, _, err = run_cli(capsys, "optimal", "--config", str(config))
    assert code == 2
    assert "unknown config key" in err


# The RunConfig keys each subcommand reads; each also takes --out, --format
# and --config.
READS = {
    "exact-value": ("m", "n", "model", "strategy", "max_total"),
    "optimal": ("m", "n", "model", "sense", "state_limit"),
    "simulate": ("m", "n", "model", "strategy", "trials", "seed", "workers"),
    "verify-pointwise": ("max_total",),
    "verify-bounds": ("max_total", "trials", "seed"),
    "tj": ("m", "n", "j", "trials", "seed"),
    "persistence": ("m", "n", "state_limit"),
    "lstat": ("m", "n", "trials", "seed", "max_total"),
    "table": ("m", "n", "m_grid", "n_grid", "state_limit"),
}
SPELLINGS = {
    "m": ("-m", "--m"),
    "n": ("-n", "--n"),
    "j": ("-j", "--j"),
    "model": ("--model",),
    "strategy": ("--strategy",),
    "trials": ("--trials",),
    "seed": ("--seed",),
    "workers": ("--workers",),
    "sense": ("--sense",),
    "max_total": ("--max-total",),
    "m_grid": ("--m-grid",),
    "n_grid": ("--n-grid",),
    "state_limit": ("--state-limit",),
    "out": ("--out",),
    "format": ("--format",),
    "config": ("--config",),
}
# Keys several subcommands read; each of the others must reject them.
COMMON_KEYS = ("m", "n", "model", "strategy", "trials", "seed", "workers", "sense", "max_total")
UNREAD = [(name, key) for name, keys in READS.items() for key in COMMON_KEYS if key not in keys]


def test_each_subcommand_accepts_what_it_reads():
    assert {name: keys for name, (_, keys) in _COMMANDS.items()} == READS
    assert len(UNREAD) == 48
    parser = _build_parser()
    slots = 0
    for name, keys in READS.items():
        for key in keys + ("out", "format", "config"):
            for flag in SPELLINGS[key]:
                assert getattr(parser.parse_args([name, flag, "7"]), key) in (7, "7")
            slots += 1
    assert slots == 66


def test_readme_flag_table_matches_cli():
    rows = {}
    for line in (REPO_ROOT / "README.md").read_text().splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0] in SUBCOMMANDS:
            rows[cells[0]] = cells[2].replace("`", "").split()
    assert rows == {
        name: [_flags(key)[0] for key in keys] for name, (_, keys) in _COMMANDS.items()
    }


@pytest.mark.parametrize("subcommand,key", UNREAD, ids=[f"{s}:{k}" for s, k in UNREAD])
def test_unread_flag_exits_2(capsys, subcommand, key):
    for flag in SPELLINGS[key]:
        code, out, err = run_cli(capsys, subcommand, flag, "1")
        assert code == 2
        assert out == ""
        assert f"unrecognized arguments: {flag} 1" in err


def test_unread_config_key_exits_2(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_text("m=2\nn=3\nsense=min\n")
    code, out, err = run_cli(capsys, "persistence", "--config", str(config))
    assert code == 2
    assert out == ""
    assert "config key 'sense' is not read by persistence" in err
    with pytest.raises(UsageError, match="'trials' is not read by optimal"):
        merge_config("optimal", {"trials": 5}, {})
    # --out and --format go to every subcommand
    assert merge_config("persistence", {"format": "json", "out": "r.csv"}, {}).format == "json"


def test_unread_strategy_parameter_exits_2(capsys):
    code, out, err = run_cli(
        capsys, "simulate", "-m", "2", "-n", "3",
        "--strategy", "partial-mle:card=2,phase=4", "--trials", "10",
    )
    assert code == 2
    assert out == ""
    assert "partial-mle does not read parameter card" in err


@pytest.mark.parametrize(
    "strategy,name",
    [
        ("nofb-constant:card=9", "card"),
        ("partial-uniform:seed=-1", "seed"),
        ("partial-two-phase:phase=abc", "phase"),
        ("nofb-constant:card=2,card=3", "card"),
        ("partial-two-phase:threshold=nan", "threshold"),
        ("partial-two-phase:threshold=inf", "threshold"),
        ("partial-two-phase:threshold=1e400", "threshold"),
    ],
)
def test_bad_strategy_value_exits_2_naming_it(capsys, strategy, name):
    code, out, err = run_cli(
        capsys, "simulate", "-m", "2", "-n", "3", "--strategy", strategy, "--trials", "10"
    )
    assert code == 2
    assert out == ""
    assert name in err


def test_lstat_enumerates_up_to_max_total(capsys, monkeypatch):
    limits = []
    enumerate_mean = exact.exact_chain_mean

    def recording(spec, limit=exact.DEFAULT_ENUM_LIMIT):
        limits.append(limit)
        return enumerate_mean(spec, limit)

    monkeypatch.setattr(exact, "exact_chain_mean", recording)
    for extra in (["--max-total", "10000000"], []):
        code, out, _ = run_cli(capsys, "lstat", "-m", "1", "-n", "2", "--trials", "10", *extra)
        assert code == 0
        assert dict(zip(*read_csv(out)))["mean_exact"] == "3/2"
    assert limits == [10_000_000, 10**4]


ENTRY_POINT_ARGS = ["optimal", "-m", "1", "-n", "3", "--model", "complete"]


def declared_script_text(text, name):
    """Find `name = "..."` in the `[project.scripts]` table of a pyproject
    text without a TOML parser (Python 3.10 has no tomllib)."""
    table = None
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            match = re.fullmatch(rf'{re.escape(name)}\s*=\s*"([^"]*)"', line)
            if match:
                return match.group(1)
    return None


def declared_script(name):
    text = (REPO_ROOT / "pyproject.toml").read_text()
    if sys.version_info < (3, 11):
        return declared_script_text(text, name)
    import tomllib

    return tomllib.loads(text).get("project", {}).get("scripts", {}).get(name)


def test_declared_script_text_matches_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = (REPO_ROOT / "pyproject.toml").read_text()
    scripts = tomllib.loads(text)["project"]["scripts"]
    assert declared_script_text(text, "guessbench") == scripts["guessbench"]
    assert declared_script_text("[project]\nguessbench = \"x:y\"\n", "guessbench") is None


def test_console_script_entry_point():
    # Runs the declared `module:attr` the way an installer's generated wrapper
    # does, so no install is needed; only the wrapper on PATH goes unchecked.
    reference = declared_script("guessbench")
    assert reference is not None, "pyproject.toml declares no guessbench script"
    module, sep, attr = reference.partition(":")
    assert sep and module and attr, f"not a module:attr reference: {reference!r}"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            *ENTRY_POINT_ARGS,
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "11/6" in result.stdout


@pytest.mark.skipif(
    shutil.which("guessbench") is None,
    reason="no guessbench script on PATH; it exists only after an install",
)
def test_installed_console_script():
    result = subprocess.run(
        ["guessbench", *ENTRY_POINT_ARGS],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0
    assert "11/6" in result.stdout
