"""Correctness gate: every job's exit code and report against pins taken at
the commit that defined the benchmark.

Reports are compared with the provenance columns (version, rng, timestamp)
removed.  At the default seed and an unchanged `rng` value the rest must
match byte for byte.  Otherwise the simulated parts of a report cannot
match, so the gate compares what does not depend on the random stream byte
for byte, and each simulated estimate passes only with the exact trial count
and a mean within 4 combined standard errors of the pinned mean (pooled over
several seeds, see `pool`).  That lets a change that deliberately alters the
random stream, and bumps `rng`, pass.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

PROVENANCE = ("version", "rng", "timestamp")
SE_MULTIPLIER = 4.0

# Columns of simulation reports that depend on the seed or the random stream.
_RANDOM_COLUMNS = {
    "simulate": ("seed", "mean", "sd", "se", "min", "max"),
    "lstat": ("seed", "mean", "sd", "se"),
    "tj": ("seed", "t", "count", "survival", "survival_se",
           "survival_exact", "survival_exact_decimal"),
}


def _rows(text: str) -> tuple[list[str], list[list[str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    return header, list(reader)


def _render(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _drop(header, rows, columns):
    keep = [i for i, c in enumerate(header) if c not in columns]
    return [header[i] for i in keep], [[row[i] for i in keep] for row in rows]


def _estimate(trials: int, mean: float, se: float) -> dict:
    return {"trials": trials, "mean": mean, "se": se}


def _histogram_estimate(trials: int, hist: list[tuple[int, int]]) -> dict:
    mean = sum(t * c for t, c in hist) / trials
    var = sum(c * (t - mean) ** 2 for t, c in hist) / max(trials - 1, 1)
    return _estimate(trials, mean, math.sqrt(var / trials))


def split(subcommand: str, header: list[str], rows: list[list[str]]) -> tuple[str, list[dict]]:
    """The part of a provenance-free report that no random draw touches, as
    text, and the report's simulated estimates."""
    col = {c: i for i, c in enumerate(header)}
    if subcommand in ("simulate", "lstat"):
        row = rows[0]
        estimates = [_estimate(int(row[col["trials"]]), float(row[col["mean"]]),
                               float(row[col["se"]]))]
    elif subcommand == "tj":
        hist = [(int(r[col["t"]]), int(r[col["count"]])) for r in rows]
        estimates = [_histogram_estimate(int(rows[0][col["trials"]]), hist)]
    elif subcommand == "verify-bounds":
        fixed, estimates = [], []
        for row in rows:
            params = json.loads(row[col["params"]])
            if "trials" not in params:
                fixed.append(row)
                continue
            trials, freq = params.pop("trials"), float(row[col["lhs"]])
            params.pop("seed")
            estimates.append(_estimate(trials, freq, math.sqrt(freq * (1 - freq) / trials)))
            row = list(row)
            row[col["params"]] = json.dumps(params, separators=(",", ":"))
            row[col["lhs"]] = row[col["lhs_radius"]] = ""
            fixed.append(row)
        return _render(header, fixed), estimates
    else:
        return _render(header, rows), []
    header, rows = _drop(header, rows, _RANDOM_COLUMNS[subcommand])
    unique = [list(r) for r in dict.fromkeys(tuple(r) for r in rows)]
    return _render(header, unique), estimates


def fingerprint(subcommand: str, code: int, report: str) -> dict:
    """What the gate pins for one job."""
    header, rows = _rows(report)
    rng = {row[header.index("rng")] for row in rows} if "rng" in header else set()
    header, rows = _drop(header, rows, PROVENANCE)
    fixed, estimates = split(subcommand, header, rows)
    return {
        "exit": code,
        "rng": sorted(rng),
        "sha256": _digest(_render(header, rows)),
        "fixed_sha256": _digest(fixed),
        "estimates": estimates,
    }


def pool(fingerprints: list[dict]) -> dict:
    """The first fingerprint, with each estimate averaged over all of them.

    The fingerprints are one job's at several seeds, the default first.
    Pinning one seed's estimates would let a draw that happened to land
    3 SE out at the default seed turn later fair draws into failures; the
    pooled mean has a standard error shrunk by the square root of the seed
    count.  The runs must agree on everything no random draw touches.
    """
    first = fingerprints[0]
    for other in fingerprints[1:]:
        if (other["exit"], other["fixed_sha256"], len(other["estimates"])) != (
                first["exit"], first["fixed_sha256"], len(first["estimates"])):
            raise ValueError("runs at different seeds disagree outside their random parts")
    k = len(fingerprints)
    estimates = [
        _estimate(group[0]["trials"], sum(e["mean"] for e in group) / k,
                  math.sqrt(sum(e["se"] ** 2 for e in group)) / k)
        for group in zip(*(f["estimates"] for f in fingerprints))
    ]
    return {**first, "estimates": estimates, "seeds": k}


def within(estimate: dict, pinned: dict) -> bool:
    """Exact trial count and a mean within 4 combined standard errors."""
    if estimate["trials"] != pinned["trials"]:
        return False
    radius = SE_MULTIPLIER * math.hypot(estimate["se"], pinned["se"])
    return abs(estimate["mean"] - pinned["mean"]) <= radius


def check(subcommand: str, code: int, report: str, pinned: dict, default_seed: bool) -> list[str]:
    """Reasons the job fails the gate; empty when it passes."""
    if code != pinned["exit"]:
        return [f"exit code {code}, pinned {pinned['exit']}"]
    try:
        got = fingerprint(subcommand, code, report)
    except (StopIteration, KeyError, IndexError, ValueError) as err:
        return [f"unreadable report: {err!r}"]
    if default_seed and got["rng"] == pinned["rng"]:
        return [] if got["sha256"] == pinned["sha256"] else ["report differs from the pinned bytes"]
    problems = []
    if got["fixed_sha256"] != pinned["fixed_sha256"]:
        problems.append("non-random part of the report differs from the pinned bytes")
    if len(got["estimates"]) != len(pinned["estimates"]):
        problems.append("number of simulated estimates differs")
    for i, (est, pin) in enumerate(zip(got["estimates"], pinned["estimates"])):
        if not within(est, pin):
            problems.append(f"estimate {i}: {est} is not within {SE_MULTIPLIER:g} SE of {pin}")
    return problems
