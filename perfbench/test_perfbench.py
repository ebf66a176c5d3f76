"""Tests of the benchmark's correctness gate, tracer and metric assembly.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import importlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, all_jobs  # noqa: E402

from guessbench import cli  # noqa: E402


def report(capsys, *argv: str) -> str:
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def replace_cell(text: str, column: str, row: int, new: str) -> str:
    header, rows = gate._rows(text)
    rows[row][header.index(column)] = new
    return gate._render(header, rows)


def test_changed_fraction_digit_fails(capsys):
    text = report(capsys, "optimal", "-m", "2", "-n", "3", "--model", "partial")
    pin = gate.fingerprint("optimal", 0, text)
    value = gate._rows(text)[1][0][4]
    digit = "1" if value[0] != "1" else "2"
    changed = replace_cell(text, "value", 0, digit + value[1:])
    assert gate.check("optimal", 0, text, pin, default_seed=True) == []
    assert gate.check("optimal", 0, changed, pin, default_seed=True)
    assert gate.check("optimal", 0, changed, pin, default_seed=False)
    assert gate.check("optimal", 2, text, pin, default_seed=True)


def test_changed_histogram_under_same_rng_fails(capsys):
    text = report(capsys, "tj", "-m", "2", "-n", "10", "-j", "2", "--trials", "2000",
                  "--seed", "0")
    pin = gate.fingerprint("tj", 0, text)
    counts = [int(row[6]) for row in gate._rows(text)[1]]
    # move one game between two bins: trial count and mean barely change
    changed = replace_cell(text, "count", 0, str(counts[0] - 1))
    changed = replace_cell(changed, "count", 1, str(counts[1] + 1))
    assert gate.check("tj", 0, changed, pin, default_seed=True)


def test_rng_bump_passes_within_four_standard_errors(capsys):
    text = report(capsys, "simulate", "-m", "2", "-n", "3", "--strategy", "complete-greedy-max",
                  "--trials", "2000", "--seed", "0")
    pin = gate.fingerprint("simulate", 0, text)
    (estimate,) = pin["estimates"]
    bumped = replace_cell(text, "rng", 0, "philox4x64-v2")

    def with_mean(shift_se: float) -> str:
        mean = estimate["mean"] + shift_se * estimate["se"]
        return replace_cell(bumped, "mean", 0, f"{mean:.6f}")

    assert gate.check("simulate", 0, with_mean(1.0), pin, default_seed=True) == []
    assert gate.check("simulate", 0, with_mean(-5.0), pin, default_seed=True) == []
    assert gate.check("simulate", 0, with_mean(6.0), pin, default_seed=True)
    assert gate.check("simulate", 0, replace_cell(bumped, "trials", 0, "1999"), pin,
                      default_seed=True)


@pytest.mark.parametrize("argv", [
    ("simulate", "-m", "3", "-n", "4", "--strategy", "partial-mle", "--trials", "400"),
    ("lstat", "-m", "2", "-n", "4", "--trials", "3000"),
    ("tj", "-m", "2", "-n", "20", "-j", "2", "--trials", "3000"),
    ("verify-bounds", "--max-total", "8", "--trials", "2000"),
])
def test_other_seed_passes_on_estimates(capsys, argv):
    pin = gate.fingerprint(argv[0], 0, report(capsys, *argv, "--seed", "0"))
    other = report(capsys, *argv, "--seed", "7")
    assert gate.check(argv[0], 0, other, pin, default_seed=False) == []
    assert gate.check(argv[0], 0, other, pin, default_seed=True)


def test_verify_bounds_exact_row_still_pinned_at_other_seed(capsys):
    argv = ("verify-bounds", "--max-total", "8", "--trials", "2000")
    pin = gate.fingerprint("verify-bounds", 0, report(capsys, *argv, "--seed", "0"))
    other = report(capsys, *argv, "--seed", "7")
    assert gate.check("verify-bounds", 0, replace_cell(other, "rhs", 3, "9.999999"), pin,
                      default_seed=False)


def test_pins_cover_every_job():
    pins = json.loads(run.PINNED.read_text())
    assert set(pins) == {job.name for job in all_jobs()}
    for job in all_jobs():
        assert pins[job.name]["exit"] == 0
        simulated = job.games > 0 or job.subcommand == "verify-bounds"
        assert bool(pins[job.name]["estimates"]) == simulated


def test_self_time_subtracts_direct_children():
    ticks = iter(range(100))
    t = tracer.Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("inner", lambda: None)
    outer = t.wrap("outer", lambda: (inner(), inner()))
    outer()
    summary = t.summary()
    assert summary["inner"] == {"calls": 2, "s": 2.0, "self_s": 2.0}
    # outer spans ticks 0..5 and its children cover 2 of them
    assert summary["outer"] == {"calls": 1, "s": 5.0, "self_s": 3.0}


@pytest.fixture
def restore_package():
    names = ["guessbench"] + [f"guessbench.{m}" for m in tracer.MODULES]
    modules = [importlib.import_module(n) for n in names]
    saved = [dict(vars(m)) for m in modules]
    kernels = importlib.import_module("guessbench.montecarlo")._KERNELS
    saved_kernels = dict(kernels)
    yield
    for mod, snapshot in zip(modules, saved):
        vars(mod).update(snapshot)
    kernels.update(saved_kernels)


def test_install_rebinds_directly_imported_names(restore_package, capsys):
    from guessbench import bounds, combinatorics, exact, montecarlo, strategies

    originals = {
        "count": combinatorics._count,
        "lcf": combinatorics.last_card_fraction,
        "make": strategies.make_strategy,
        "ftd": exact.first_third_distribution,
        "emit": cli.emit_table,
    }
    kernels = dict(montecarlo._KERNELS)
    t = tracer.install()
    for mod in (exact, strategies):
        assert mod._count is combinatorics._count is not originals["count"]
    assert exact.last_card_fraction is combinatorics.last_card_fraction is not originals["lcf"]
    for mod in (exact, montecarlo):
        assert mod.make_strategy is strategies.make_strategy is not originals["make"]
    assert bounds.first_third_distribution is exact.first_third_distribution
    assert bounds.first_third_distribution is not originals["ftd"]
    assert cli.emit_table is not originals["emit"]
    assert all(montecarlo._KERNELS[k] is not v for k, v in kernels.items())

    assert cli.main(["optimal", "-m", "2", "-n", "3", "--model", "partial"]) == 0
    capsys.readouterr()
    summary = t.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["exact.solve_partial"]["calls"] == 1
    assert summary["combinatorics.count"]["calls"] > 0
    assert t.counters["exact.solve_partial.states"] > 0
    assert t.counters["reporting.rows"] == 1


def _fake_record(job, traced: bool) -> dict:
    record = {"job": job.name, "exit": 0, "wall_s": 1.5, "peak_rss_mb": 90.0,
              "setup_s": 0.25, "main_s": 1.0, "games": job.games, "count_hits": 3,
              "count_misses": 1, "count_size": 1, "dist_cache_size": 2}
    if traced:
        record["wall_s"] = 2.0
        record["spans"] = {span: {"calls": 4, "s": 0.5, "self_s": 0.25}
                           for _, _, span in tracer.TARGETS}
        record["spans"]["montecarlo.kernel"] = {"calls": 4, "s": 0.5, "self_s": 0.5}
        record["counters"] = {"montecarlo.games": job.games, "reporting.rows": 1}
    return record


def test_every_named_metric_is_reported_for_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for workload in WORKLOADS.values():
        untraced = [[_fake_record(job, False) for job in workload.jobs]] * 2
        traced = [[_fake_record(job, True) for job in workload.jobs]]
        assert set(run.end_to_end_metrics(untraced)) == set(run.END_TO_END)
        layers = run.per_layer_metrics(untraced, traced)
        assert set(layers) == set(run.PER_LAYER)
        for job in workload.jobs:
            assert layers[f"cli.job.{job.name}.s"] == 1.5
        assert layers["trace.overhead_s"] == pytest.approx(0.5 * len(workload.jobs))
        assert layers["combinatorics.count.hit_ratio"] == 0.75
        simulates = any(job.games for job in workload.jobs)
        assert (layers["montecarlo.games_per_s"] > 0) == simulates


def test_pool_averages_estimates_and_needs_agreeing_fixed_parts(capsys):
    argv = ("lstat", "-m", "2", "-n", "4", "--trials", "3000")
    pins = [gate.fingerprint("lstat", 0, report(capsys, *argv, "--seed", str(s))) for s in (0, 1)]
    pooled = gate.pool(pins)
    (a,), (b,) = pins[0]["estimates"], pins[1]["estimates"]
    assert pooled["sha256"] == pins[0]["sha256"]
    (estimate,) = pooled["estimates"]
    assert estimate["trials"] == 3000
    assert estimate["mean"] == pytest.approx((a["mean"] + b["mean"]) / 2)
    assert estimate["se"] == pytest.approx(math.hypot(a["se"], b["se"]) / 2)
    with pytest.raises(ValueError):
        gate.pool([pins[0], {**pins[1], "fixed_sha256": "0" * 64}])
