import csv
import json
import os
import random
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from guessbench.cli import (
    CONFIG_ENV,
    RunConfig,
    SUBCOMMANDS,
    UsageError,
    emit_config,
    main,
    merge_config,
    parse_config,
    parse_config_text,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(text.splitlines()))


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


def test_config_round_trip_fuzz():
    rng = random.Random(4)
    for _ in range(25):
        config = RunConfig(
            m=rng.choice([None, rng.randint(1, 9)]),
            n=rng.choice([None, rng.randint(1, 9)]),
            model=rng.choice([None, "none", "partial", "complete"]),
            strategy=rng.choice([None, "partial-mle", "nofb-constant:card=2"]),
            trials=rng.randint(1, 10**6),
            seed=rng.randint(0, 2**31),
            workers=rng.randint(1, 8),
            sense=rng.choice(["max", "min"]),
            max_total=rng.choice([None, rng.randint(1, 100)]),
            j=rng.randint(1, 5),
            out=rng.choice([None, "report.csv"]),
            format=rng.choice(["csv", "json"]),
        )
        assert parse_config(emit_config(config)) == config


def test_parse_config_text_errors():
    with pytest.raises(UsageError, match="unknown config key"):
        parse_config_text("depth=3\n")
    with pytest.raises(UsageError, match="not key=value"):
        parse_config_text("just words\n")
    with pytest.raises(UsageError, match="needs a number"):
        parse_config_text("trials=lots\n")
    assert parse_config_text("# comment\n\nm=3\n") == {"m": 3}


def test_merge_config_precedence_and_choices():
    config = merge_config({"m": 2, "n": 5}, {"m": 3, "seed": None})
    assert config.m == 3
    assert config.n == 5
    assert config.seed == 0
    with pytest.raises(UsageError, match="sense"):
        merge_config({}, {"sense": "sideways"})
    with pytest.raises(UsageError, match="model"):
        merge_config({"model": "telepathy"}, {})


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
        merge_config({"workers": 0}, {})


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
    for key, value in (("max_total", 0), ("state_limit", 0), ("seed", -1)):
        with pytest.raises(UsageError, match="--" + key.replace("_", "-")):
            merge_config({key: value}, {})
    # the lowest accepted values are used as given, not replaced by defaults
    config = merge_config({"max_total": 1, "state_limit": 1, "seed": 0}, {})
    assert (config.max_total, config.state_limit, config.seed) == (1, 1, 0)


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


def test_table_requires_grid(capsys):
    assert run_cli(capsys, "table")[0] == 2
    assert run_cli(capsys, "table", "--m-grid", "1,x", "--n-grid", "2")[0] == 2


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


REPO_ROOT = Path(__file__).resolve().parent.parent
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
