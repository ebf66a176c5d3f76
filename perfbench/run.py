"""guessbench benchmark: fixed lists of CLI jobs, timed from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a guessbench checkout; the package is imported from
`src/`, nothing is installed.  Each job runs in a fresh interpreter, one at a
time, as a user's `guessbench ...` call does (see workloads.py for why).  A
run repeats the workload's job list until `--seconds` have passed, and every
job's exit code and report go through the correctness gate (gate.py).

With `--trace 0` the run reports the end-to-end metrics, medians over the
passes.  With `--trace 1` each pass runs the job list twice, untimed spans
off and then on (tracer.py), and the run reports the per-layer metrics plus
each job's untraced time and the tracing overhead.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The lines above it print every metric by name with its unit.  A
run record with host, versions, commit, seed and per-job times goes to
`.perfbench/results/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import gate
from workloads import DEFAULT_SEED, WORKLOADS, Job, all_jobs

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"
WORK_DIR = ".perfbench"
JOB_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics named "<span>.calls", "<span>.s" or "<span>.self_s" are
# read from the span summary; the others are derived in layer_metrics().
PER_LAYER = {
    "combinatorics.count.calls": "count",
    "combinatorics.count.s": "s",
    "combinatorics.count.hits": "count",
    "combinatorics.count.misses": "count",
    "combinatorics.count.hit_ratio": "ratio",
    "combinatorics.count.cache_size": "count",
    "combinatorics.last_card_fraction.calls": "count",
    "combinatorics.last_card_fraction.self_s": "s",
    "exact.solve_partial.calls": "count",
    "exact.solve_partial.self_s": "s",
    "exact.solve_partial.states": "count",
    "exact.optimal_complete.self_s": "s",
    "exact.probe_persistence.self_s": "s",
    "exact.exact_value.self_s": "s",
    "exact.exact_value.decks": "count",
    "exact.verify_pointwise.self_s": "s",
    "exact.verify_pointwise.states": "count",
    "exact.first_third_distribution.self_s": "s",
    "strategies.posterior_by_pair.calls": "count",
    "strategies.posterior_by_pair.self_s": "s",
    "strategies.dist_cache.size": "count",
    "strategies.dist_cache.hit_ratio": "ratio",
    "strategies.make_strategy.calls": "count",
    "montecarlo.estimate_value.self_s": "s",
    "montecarlo.kernel.s": "s",
    "montecarlo.kernel.calls": "count",
    "montecarlo.estimate_repeat_time.s": "s",
    "montecarlo.estimate_chain.s": "s",
    "montecarlo.games": "count",
    "montecarlo.games_per_s": "games/s",
    "bounds.single_tail_grid.s": "s",
    "bounds.single_tail_grid.reports": "count",
    "bounds.first_third_dominance_reports.s": "s",
    "bounds.empirical_maximal.s": "s",
    "bounds.hyp_tail_report.calls": "count",
    "bounds.hyp_tail_report.s": "s",
    "reporting.emit_table.s": "s",
    "reporting.rows": "count",
    "reporting.bytes": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    **{f"cli.job.{job.name}.s": "s" for job in all_jobs()},
}


class SetupError(Exception):
    pass


def _child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_job(root: Path, job: Job, seed: int, trace: bool, work: Path) -> tuple[dict, str]:
    """Run one job in a fresh interpreter; returns its record and its report."""
    out, sidecar = work / f"{job.name}.out", work / f"{job.name}.json"
    sidecar.unlink(missing_ok=True)
    env = _child_env(root)
    cmd = [sys.executable, str(HERE / "job.py"), str(sidecar), "1" if trace else "0", "--",
           *job.command(seed)]
    with open(out, "wb") as stdout, open(work / f"{job.name}.err", "wb") as stderr:
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, env=env, cwd=root)
        try:
            code = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            code = None  # the gate counts the job as failed
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        exited = time.monotonic()
    record = {"job": job.name, "exit": code, "wall_s": exited - spawned}
    if sidecar.exists():
        inside = json.loads(sidecar.read_text())
        record.update(
            setup_s=inside.pop("imported") - spawned,
            main_s=inside.pop("main_end") - inside.pop("main_start"),
            **inside,
        )
    report = out.read_text()
    out.unlink()
    return record, report


def run_pass(root, workload, seed, trace, work, pinned, failures) -> list[dict]:
    records = []
    for job in workload.jobs:
        record, report = run_job(root, job, seed, trace, work)
        problems = gate.check(job.subcommand, record["exit"], report, pinned[job.name],
                              seed == DEFAULT_SEED)
        if "main_s" not in record:
            problems.append("job recorded nothing; see " + str(work / f"{job.name}.err"))
        if problems:
            failures.append(f"{job.name}: {'; '.join(problems)}")
        record["games"] = job.games
        records.append(record)
        print(f"  {job.name:36s} {record['wall_s']:8.3f} s  "
              f"{'FAIL ' + '; '.join(problems) if problems else 'ok'}", file=sys.stderr)
    return records


def job_walls(passes: list[list[dict]]) -> dict[str, list[float]]:
    walls: dict[str, list[float]] = {}
    for p in passes:
        for r in p:
            walls.setdefault(r["job"], []).append(r["wall_s"])
    return walls


def end_to_end_metrics(passes: list[list[dict]]) -> dict[str, float]:
    # the host's speed drifts; a job's median over passes spread through the
    # run drops a pass that hit a slow or fast spell, which the median of
    # whole-pass sums would keep for every job in that pass
    return {
        "setup_s": statistics.median(r["setup_s"] for p in passes for r in p if "setup_s" in r),
        "wall_s": sum(statistics.median(w) for w in job_walls(passes).values()),
        "peak_rss_mb": statistics.median(
            max((r["peak_rss_mb"] for r in p if "peak_rss_mb" in r), default=0.0) for p in passes),
    }


def games_per_s(records: list[dict]) -> float:
    sims = [r for r in records if r["games"] and "main_s" in r]
    seconds = sum(r["main_s"] for r in sims)
    return sum(r["games"] for r in sims) / seconds if seconds else 0.0


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its jobs."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    for r in records:
        for name, entry in r.get("spans", {}).items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                acc[key] += value
        for name, value in r.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
    hits = sum(r.get("count_hits", 0) for r in records)
    misses = sum(r.get("count_misses", 0) for r in records)
    posterior_calls = spans.get("strategies.posterior_by_pair", {}).get("calls", 0)
    # every job is a fresh process with its own caches: the largest one
    # bounds memory, and every job's entries were computed once
    dist_sizes = [r.get("dist_cache_size", 0) for r in records]
    derived = {
        "combinatorics.count.hits": hits,
        "combinatorics.count.misses": misses,
        "combinatorics.count.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "combinatorics.count.cache_size": max(r.get("count_size", 0) for r in records),
        "strategies.dist_cache.size": max(dist_sizes),
        "strategies.dist_cache.hit_ratio":
            1 - sum(dist_sizes) / posterior_calls if posterior_calls else 0.0,
    }
    out = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif field in ("calls", "s", "self_s"):
            out[name] = spans.get(span, {}).get(field, 0)
        else:
            out[name] = counters.get(name, 0)
    return out


def per_layer_metrics(untraced: list[list[dict]], traced: list[list[dict]]) -> dict:
    layers = [layer_metrics(p) for p in traced]
    out = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    walls = job_walls(untraced)
    for job in all_jobs():
        runs = walls.get(job.name)
        out[f"cli.job.{job.name}.s"] = statistics.median(runs) if runs else 0.0
    out["montecarlo.games_per_s"] = statistics.median(games_per_s(p) for p in untraced)
    out["trace.overhead_s"] = (end_to_end_metrics(traced)["wall_s"]
                               - end_to_end_metrics(untraced)["wall_s"])
    return out


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "guessbench").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _numpy_version() -> str | None:
    try:
        return importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        return None


def prepare(root: Path) -> Path:
    """Check the checkout and compile the package; returns the scratch directory."""
    if not (root / "src" / "guessbench" / "cli.py").is_file():
        raise SetupError(f"no guessbench sources under {root / 'src'}; run from a checkout root")
    work = root / WORK_DIR / "tmp"
    work.mkdir(parents=True, exist_ok=True)
    # compile the package once so no timed job pays for writing bytecode
    warm = subprocess.run([sys.executable, "-c", "import guessbench.cli"], cwd=root,
                          env=_child_env(root), capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    if warm.returncode != 0:
        raise SetupError(f"cannot import guessbench.cli: {warm.stderr.strip()}")
    return work


def measure(root: Path, work: Path, pinned: dict, workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """One run of one workload; writes and returns its run record."""
    failures: list[str] = []
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    deadline = time.monotonic() + seconds
    while not untraced or time.monotonic() < deadline:
        untraced.append(run_pass(root, workload, seed, False, work, pinned, failures))
        if trace:
            traced.append(run_pass(root, workload, seed, True, work, pinned, failures))
    attempted = sum(len(p) for p in untraced + traced)
    if trace:
        metrics, units = per_layer_metrics(untraced, traced), PER_LAYER
    else:
        metrics, units = end_to_end_metrics(untraced), END_TO_END
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "passes": len(untraced),
        "host": {"nproc": os.cpu_count(), "python": platform.python_version(),
                 "numpy": _numpy_version(), "platform": platform.platform()},
        "git_commit": _git_commit(root),
        "source_sha256": _source_digest(root),
        "job_seconds": {f"cli.job.{name}.s": w for name, w in job_walls(untraced).items()},
        "games_per_s": statistics.median(games_per_s(p) for p in untraced),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "jobs": untraced + traced,
    }
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S%fZ")
    results = root / WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{seed}-trace{int(trace)}-{stamp}.json").write_text(
        json.dumps(record, indent=1))
    for name, value in metrics.items():
        print(f"{workload.name} {name} {value:.6g} {units[name]}")
    print(f"{workload.name} fail_ratio {record['fail_ratio']:.6g} ({len(failures)}/{attempted})")
    if not trace and any(j.games for j in workload.jobs):
        print(f"{workload.name} games_per_s {record['games_per_s']:.6g} games/s")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0, help="per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        work = prepare(root)
        pinned = json.loads(PINNED.read_text())
    except (SetupError, OSError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [measure(root, work, pinned, WORKLOADS[name], args.seed, args.seconds,
                       bool(args.trace)) for name in names]
    # with several workloads, metric names take the workload as a prefix
    metrics = {(f"{r['workload']}." if len(records) > 1 else "") + name: value
               for r in records for name, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
