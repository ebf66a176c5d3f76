import csv
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("model", ["complete", "none"])
def test_optimal_rejects_state_limit_it_does_not_read(capsys, model):
    code, out, err = run_cli(
        capsys, "optimal", "-m", "2", "-n", "2", "--model", model, "--state-limit", "1"
    )
    assert code == 2
    assert out == ""
    assert f"--state-limit is read only with --model partial, not {model}" in err


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


def test_table_state_limit_flag(capsys):
    code, out, err = run_cli(capsys, "table", "-m", "2", "-n", "3", "--state-limit", "9")
    assert code == 0, err
    row = dict(zip(*read_csv(out)))
    for sense in ("max", "min"):
        assert row[f"partial_{sense}"] == row[f"partial_{sense}_decimal"] == ""
    assert row["complete_max"] == "101/30"
    assert row["complete_min"] == "13/15"


def test_table_solves_one_sense_when_the_state_limit_trips(capsys, monkeypatch):
    # both senses expand the same states in the same order, so once the max
    # solve trips the limit the min solve would too, and is not run
    senses = []
    solve = exact.solve_partial

    def recording(spec, sense="max", **kwargs):
        senses.append(sense)
        return solve(spec, sense, **kwargs)

    monkeypatch.setattr(exact, "solve_partial", recording)
    code, out, err = run_cli(capsys, "table", "-m", "2", "-n", "7", "--state-limit", "500")
    assert code == 0, err
    row = dict(zip(*read_csv(out)))
    for sense in ("max", "min"):
        assert row[f"partial_{sense}"] == row[f"partial_{sense}_decimal"] == ""
    assert senses == ["max"]
    senses.clear()
    code, out, err = run_cli(capsys, "table", "-m", "2", "-n", "3")
    assert code == 0, err
    assert senses == ["max", "min"]


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
