"""Command-line front door: flat key=value configs, nine subcommands, and
delimited reports.

Each subcommand accepts only the flags and config-file keys it reads, as
listed in ``_COMMANDS``.  Precedence is flags over config file over
defaults.  The config path itself comes from --config or the
GUESSBENCH_CONFIG environment variable.  Exit codes: 0 success, 1 some
row's verdict is FAIL, 2 usage errors, 141 (128 + SIGPIPE) stdout closed
before the report ended.

A report is written as it is built, a block of rows at a time.  Every
handler does all that can fail before it returns its rows, so a run that
exits 2 prints nothing and creates no --out file.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import chain, islice

from . import bounds, exact, montecarlo
from .core import DeckSpec, FeedbackModel
from .combinatorics import shuffle_count
from .reporting import emit_table, exact_cells, provenance
from .strategies import parse_strategy

CONFIG_ENV = "GUESSBENCH_CONFIG"

# Two recorded growth rates for the second-order error term of the
# partial-feedback optimum at large m; metadata only, asserted nowhere.
ASYMPTOTIC_ERROR_FORMS = ("m^(3/4) * log(m)^(1/4)", "m^(3/4) * log(m)")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    m: int | None = None
    n: int | None = None
    model: str | None = None
    strategy: str | None = None
    trials: int = 10_000
    seed: int = 0
    workers: int = 1
    sense: str = "max"
    max_total: int | None = None
    j: int = 2
    m_grid: str | None = None
    n_grid: str | None = None
    state_limit: int | None = None
    out: str | None = None
    format: str = "csv"


_KEYS = {f.name for f in fields(RunConfig)}
_INT_KEYS = {"m", "n", "trials", "seed", "workers", "max_total", "j", "state_limit"}
_CHOICES = {
    "sense": ("max", "min"),
    "format": ("csv", "json"),
    "model": ("none", "partial", "complete"),
}
# Smallest accepted value of each bounded integer key; unset keys keep
# their subcommand's default.
_LOWEST = {"workers": 1, "max_total": 1, "state_limit": 1, "seed": 0}


def _convert(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
    except ValueError:
        raise UsageError(f"config key {key} needs a number, got {raw!r}") from None
    return raw


def parse_config_text(text: str) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped."""
    values: dict = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise UsageError(f"config line {lineno} is not key=value: {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _KEYS:
            raise UsageError(f"unknown config key {key!r}")
        if key in lines:
            raise UsageError(
                f"config key {key!r} is given twice, on lines {lines[key]} and {lineno}"
            )
        lines[key] = lineno
        values[key] = _convert(key, raw.strip())
    return values


def merge_config(subcommand: str, file_values: dict, flag_values: dict) -> RunConfig:
    """Flag values over config-file values over defaults; a file key that
    ``subcommand`` does not read is a usage error."""
    reads = _COMMANDS[subcommand][1] + _SHARED_KEYS
    for key in file_values:
        if key not in reads:
            raise UsageError(f"config key {key!r} is not read by {subcommand}")
    merged = dict(file_values)
    merged.update({k: v for k, v in flag_values.items() if v is not None})
    config = RunConfig(**merged)
    for key, allowed in _CHOICES.items():
        value = getattr(config, key)
        if value is not None and value not in allowed:
            raise UsageError(f"{key} must be one of {'|'.join(allowed)}, got {value!r}")
    for key, lowest in _LOWEST.items():
        value = getattr(config, key)
        if value is not None and value < lowest:
            raise UsageError(f"{_flags(key)[-1]} must be at least {lowest}, got {value}")
    return config


def _or_default(value: int | None, default: int) -> int:
    return default if value is None else value


def _require_spec(config: RunConfig) -> DeckSpec:
    if config.m is None or config.n is None:
        raise UsageError("--m and --n are required")
    try:
        return DeckSpec(config.m, config.n)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _model_or_none(config: RunConfig) -> FeedbackModel | None:
    return None if config.model is None else FeedbackModel(config.model)


def _require_strategy(config: RunConfig):
    if config.strategy is None:
        raise UsageError("--strategy is required")
    return parse_strategy(config.strategy)


def _parse_grid(config: RunConfig, key: str) -> list[int]:
    """The values of ``key`` from its ``<key>_grid`` list or its single flag,
    never both."""
    text, single = getattr(config, key + "_grid"), getattr(config, key)
    flag, single_flag = _flags(key + "_grid")[0], _flags(key)[0]
    if text is None:
        if single is None:
            raise UsageError(f"{flag} is required")
        return [single]
    if single is not None:
        raise UsageError(f"give {single_flag} or {flag}, not both")
    try:
        values = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"{flag} must be a comma-separated integer list") from None
    if not values:
        raise UsageError(f"{flag} is empty")
    return values


# ===== subcommand handlers: an iterable of rows =====
# Each row lists its columns in report order; run() appends provenance().


def _cmd_exact_value(config: RunConfig):
    spec = _require_spec(config)
    sspec = _require_strategy(config)
    model = _model_or_none(config) or sspec.native_model
    value = exact.exact_value(
        spec, sspec, model=model, limit=_or_default(config.max_total, exact.DEFAULT_ENUM_LIMIT)
    )
    row = {
        "m": spec.multiplicity,
        "n": spec.num_types,
        "model": model.value,
        "strategy": sspec.label(),
        **dict(exact_cells("value", value)),
    }
    return [row]


def _cmd_optimal(config: RunConfig):
    spec = _require_spec(config)
    if config.model is None:
        raise UsageError("--model is required (none|partial|complete)")
    if config.state_limit is not None and config.model == "none":
        raise UsageError("--state-limit is read only with --model partial or complete, not none")
    state_limit = _or_default(config.state_limit, exact.DEFAULT_STATE_LIMIT)
    if config.model == "complete":
        value = exact.optimal_complete(spec, config.sense, state_limit)
    elif config.model == "partial":
        value = exact.optimal_partial(spec, config.sense, state_limit=state_limit)
    else:
        # with no feedback every fixed guess sequence scores m in expectation
        value = Fraction(spec.multiplicity)
    row = {
        "m": spec.multiplicity,
        "n": spec.num_types,
        "model": config.model,
        "sense": config.sense,
        **dict(exact_cells("value", value)),
    }
    return [row]


def _cmd_simulate(config: RunConfig):
    spec = _require_spec(config)
    sspec = _require_strategy(config)
    model = _model_or_none(config) or sspec.native_model
    summary = montecarlo.estimate_value(
        spec, model, sspec, config.trials, config.seed, config.workers
    )
    row = {
        "m": spec.multiplicity,
        "n": spec.num_types,
        "model": model.value,
        "strategy": sspec.label(),
        "trials": summary.trials,
        "seed": config.seed,
        "workers": config.workers,
        "mean": summary.mean,
        "sd": summary.sd,
        "se": summary.se,
        "min": summary.min,
        "max": summary.max,
    }
    if config.format == "json":
        row["histogram"] = [list(item) for item in summary.histogram]
    return [row]


def _cmd_verify_pointwise(config: RunConfig):
    max_total = _or_default(config.max_total, 8)
    report = exact.verify_pointwise(max_total)
    row = {
        "max_total": max_total,
        "states_checked": report.states_checked,
        **dict(exact_cells("max_ratio", report.max_ratio)),
        "witness_count": report.witness_count,
        "witnesses": [
            [list(state.remaining), list(state.forbidden), card]
            for state, card in report.witnesses
        ],
        "verdict": "PASS" if report.passed else "FAIL",
    }
    return [row]


def _bound_report_row(report: bounds.BoundReport) -> dict:
    bound, params, rhs, lhs, lhs_radius, verdict, notes = report
    return {
        "bound": bound,
        "params": dict(params),
        "lhs": lhs,
        "lhs_radius": lhs_radius,
        "rhs": rhs,
        "verdict": verdict,
        "notes": notes,
    }


def _cmd_verify_bounds(config: RunConfig):
    # the simulated and dominance reports are built before any row is
    # written, since they can fail (--trials 0); only the grid is lazy
    simulated = [
        bounds.empirical_maximal(0.5, 1.0, 16, 256, config.trials, config.seed),
        bounds.hyp_tail_report(30, 4, 1.0, (8, 30), config.trials, config.seed),
    ]
    dominance = bounds.first_third_dominance_reports(size_limit=720)
    grid = bounds.single_tail_grid(_or_default(config.max_total, 60))
    return map(_bound_report_row, chain(grid, simulated, dominance))


def _cmd_tj(config: RunConfig):
    spec = _require_spec(config)
    estimate = montecarlo.estimate_repeat_time(spec, config.j, config.trials, config.seed)
    rows = []
    for t, count in estimate.histogram:
        row = {
            "m": spec.multiplicity,
            "n": spec.num_types,
            "j": config.j,
            "trials": config.trials,
            "seed": config.seed,
            "t": t,
            "count": count,
            "survival": estimate.survival(t),
            "survival_se": estimate.survival_se(t),
        }
        if config.j == 2:
            exact_surv = montecarlo.exact_distinct_prefix_probability(spec, t)
            row.update(exact_cells("survival_exact", exact_surv))
        rows.append(row)
    return rows


def _cmd_persistence(config: RunConfig):
    spec = _require_spec(config)
    violations = exact.probe_persistence(
        spec, state_limit=_or_default(config.state_limit, exact.DEFAULT_STATE_LIMIT)
    )

    def row(state=None, guess=None, successor_optimal=None) -> dict:
        return {
            "m": spec.multiplicity,
            "n": spec.num_types,
            "violations": len(violations),
            "holds": not violations,
            "state": state,
            "guess": guess,
            "successor_optimal": successor_optimal,
        }

    # a summary row, then one row per violation
    return [row()] + [
        row([list(p) for p in v.state], list(v.guess), [list(p) for p in v.successor_optimal])
        for v in violations
    ]


def _cmd_lstat(config: RunConfig):
    spec = _require_spec(config)
    summary = montecarlo.estimate_chain(spec, config.trials, config.seed)
    row = {
        "m": spec.multiplicity,
        "n": spec.num_types,
        "trials": config.trials,
        "seed": config.seed,
        "mean": summary.mean,
        "sd": summary.sd,
        "se": summary.se,
    }
    enum_limit = _or_default(config.max_total, 10**4)
    if shuffle_count(spec, enum_limit) is not None:
        row.update(exact_cells("mean_exact", exact.exact_chain_mean(spec, enum_limit)))
    return [row]


def _cmd_table(config: RunConfig):
    m_values = _parse_grid(config, "m")
    n_values = _parse_grid(config, "n")
    state_limit = _or_default(config.state_limit, exact.DEFAULT_STATE_LIMIT)
    try:
        specs = [DeckSpec(m, n) for m in m_values for n in n_values]
    except ValueError as err:
        raise UsageError(str(err)) from None
    # the interpreter writes no int of more digits in decimal (0: no limit)
    digits = sys.get_int_max_str_digits()
    shuffles = [shuffle_count(spec, 10**digits - 1 if digits else None) for spec in specs]
    for spec, count in zip(specs, shuffles):
        if count is None:
            raise UsageError(
                f"the shuffle count of deck m={spec.multiplicity}, n={spec.num_types} has more"
                f" than {digits} digits, the limit sys.get_int_max_str_digits() sets on"
                " printing an int"
            )
    rows = []
    for spec, count in zip(specs, shuffles):
        m, n = spec.multiplicity, spec.num_types
        row = {"m": m, "n": n, "shuffles": count}
        row.update(exact_cells("nofb", Fraction(m)))
        # a cell past the state limit is left empty in both senses
        values = exact.partial_values_or_none(spec, state_limit)
        cells = {f"partial_{sense}": value for sense, value in values.items()}
        try:
            for sense in ("max", "min"):
                cells[f"complete_{sense}"] = exact.optimal_complete(spec, sense, state_limit)
        except RuntimeError:
            cells["complete_max"] = cells["complete_min"] = None
        for name, value in cells.items():
            if value is None:
                row[name] = row[f"{name}_decimal"] = None
            else:
                row.update(exact_cells(name, value))
        row["asymptotic_error_forms"] = list(ASYMPTOTIC_ERROR_FORMS)
        rows.append(row)
    return rows


# Per subcommand, its handler and the RunConfig keys it reads.  Its flags,
# the config-file keys it accepts and SUBCOMMANDS all come from this table;
# every subcommand also takes _SHARED_KEYS and --config.
_COMMANDS = {
    "exact-value": (_cmd_exact_value, ("m", "n", "model", "strategy", "max_total")),
    "optimal": (_cmd_optimal, ("m", "n", "model", "sense", "state_limit")),
    "simulate": (_cmd_simulate, ("m", "n", "model", "strategy", "trials", "seed", "workers")),
    "verify-pointwise": (_cmd_verify_pointwise, ("max_total",)),
    "verify-bounds": (_cmd_verify_bounds, ("max_total", "trials", "seed")),
    "tj": (_cmd_tj, ("m", "n", "j", "trials", "seed")),
    "persistence": (_cmd_persistence, ("m", "n", "state_limit")),
    "lstat": (_cmd_lstat, ("m", "n", "trials", "seed", "max_total")),
    "table": (_cmd_table, ("m", "n", "m_grid", "n_grid", "state_limit")),
}
_SHARED_KEYS = ("out", "format")
SUBCOMMANDS = tuple(_COMMANDS)


def _flags(key: str) -> tuple[str, ...]:
    """Flag spellings of a config key: -m/--m for one letter, else --max-total."""
    long = "--" + key.replace("_", "-")
    return ("-" + key, long) if len(key) == 1 else (long,)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guessbench",
        description="Exact values, simulations, and bound checks for card-guessing games.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, reads) in _COMMANDS.items():
        # no abbreviations: --m must not stand for --max-total where -m is not read
        sp = sub.add_parser(name, allow_abbrev=False)
        for key in reads + _SHARED_KEYS:
            sp.add_argument(*_flags(key), dest=key, type=int if key in _INT_KEYS else str)
        sp.add_argument("--config", dest="config")
    return parser


# Rows per emit_table call: a report's text is held one block at a time.
# (emit_table returns each block's text rather than writing it, so
# perfbench's tracer can count rows and bytes from its arguments and result.)
_BLOCK_ROWS = 512


def run(config: RunConfig, subcommand: str) -> int:
    """Write the subcommand's report; returns 1 if some row's verdict is
    FAIL, 141 if stdout closed before the report ended, else 0."""
    if subcommand not in _COMMANDS:
        raise UsageError(f"unknown subcommand {subcommand!r}")
    rows = iter(_COMMANDS[subcommand][0](config))
    stamp = provenance()
    failed = False
    columns, start = None, 0
    try:
        sink = nullcontext(sys.stdout) if config.out is None else open(config.out, "w")
    except OSError as err:
        raise UsageError(f"cannot write {config.out}: {err}") from None
    try:
        with sink as out:
            block = list(islice(rows, _BLOCK_ROWS))
            while block or columns is None:
                for row in block:
                    row.update(stamp)
                    failed = failed or row.get("verdict") == bounds.FAIL
                out.write(emit_table(block, config.format, columns, start))
                columns = columns or list(block[0])
                start += len(block)
                block = list(islice(rows, _BLOCK_ROWS))
            out.flush()
    except BrokenPipeError:
        # the reader is gone: what stdout still buffers goes to devnull, so
        # the interpreter's exit flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        config_path = args.config or os.environ.get(CONFIG_ENV)
        file_values: dict = {}
        if config_path:
            try:
                with open(config_path) as fh:
                    file_values = parse_config_text(fh.read())
            except OSError as err:
                raise UsageError(f"cannot read config {config_path}: {err}") from None
        flag_values = {key: value for key, value in vars(args).items() if key in _KEYS}
        config = merge_config(args.subcommand, file_values, flag_values)
        return run(config, args.subcommand)
    except (UsageError, ValueError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
