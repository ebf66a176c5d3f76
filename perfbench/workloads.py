"""The benchmark's workloads: fixed lists of `guessbench` CLI jobs.

Each job runs in a fresh interpreter, one at a time, as a user's
`guessbench ...` call does.  The caches that matter (`combinatorics._count`,
an unbounded process-global `lru_cache`, and `strategies._DIST_CACHE`) live
for one process, so sharing a process between jobs would make the numbers
depend on job order: `optimal -m 3 -n 5 --sense min` run after `--sense max`
in one process makes no new `_count` misses, and 23,230 of them cold.  Both
the timed and the traced runs therefore keep one process per job.

No job passes `--workers`, so every job uses the program's default.  Jobs
marked `seeded` take `--seed` from the benchmark's seed argument.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    games: int = 0
    """Games the job simulates; 0 for jobs that simulate none."""
    seeded: bool = False

    def command(self, seed: int) -> list[str]:
        return list(self.argv) + (["--seed", str(seed)] if self.seeded else [])

    @property
    def subcommand(self) -> str:
        return self.argv[0]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple[Job, ...]


def _simulate(name: str, m: int, n: int, strategy: str, trials: int, *extra: str) -> Job:
    argv = ("simulate", "-m", str(m), "-n", str(n), "--strategy", strategy,
            "--trials", str(trials)) + extra
    return Job(name, argv, games=trials, seeded=True)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exact-dp",
            "dense sweep of the exact value DPs and the _count cache; no Monte Carlo",
            (
                Job("optimal-3x5-partial-max",
                    ("optimal", "-m", "3", "-n", "5", "--model", "partial", "--sense", "max")),
                Job("optimal-3x5-partial-min",
                    ("optimal", "-m", "3", "-n", "5", "--model", "partial", "--sense", "min")),
                Job("optimal-4x4-partial-max",
                    ("optimal", "-m", "4", "-n", "4", "--model", "partial", "--sense", "max")),
                Job("optimal-8x8-complete-max",
                    ("optimal", "-m", "8", "-n", "8", "--model", "complete", "--sense", "max")),
                Job("optimal-8x8-complete-min",
                    ("optimal", "-m", "8", "-n", "8", "--model", "complete", "--sense", "min")),
                Job("persistence-3x4", ("persistence", "-m", "3", "-n", "4")),
                Job("table-m1-4-n2-4", ("table", "--m-grid", "1,2,3,4", "--n-grid", "2,3,4")),
            ),
        ),
        Workload(
            "sim-vector",
            "vectorized kernels and deck sampling; never calls combinatorics, so DP "
            "and count-cache changes should leave it unchanged",
            (
                _simulate("simulate-4x13-greedy-max", 4, 13, "complete-greedy-max", 100_000),
                _simulate("simulate-4x13-ladder", 4, 13, "partial-ladder", 100_000),
                # deck sampling takes about 97 % of this job
                _simulate("simulate-400x50-two-phase", 400, 50, "partial-two-phase", 5_000),
                Job("tj-2x100-j2", ("tj", "-m", "2", "-n", "100", "-j", "2", "--trials", "20000"),
                    games=20_000, seeded=True),
                Job("lstat-4x13", ("lstat", "-m", "4", "-n", "13", "--trials", "100000"),
                    games=100_000, seeded=True),
            ),
        ),
        Workload(
            "sim-posterior",
            "generic play loop and the partial-mle posterior: sparse random-order "
            "_count lookups instead of a full sweep",
            (
                # _count misses dominate; about 57 % of posterior lookups hit
                _simulate("simulate-4x13-mle", 4, 13, "partial-mle", 600),
                # the play loop dominates; about 99 % of posterior lookups hit
                _simulate("simulate-3x6-mle", 3, 6, "partial-mle", 20_000),
                # generic loop without a posterior: the model is not the
                # strategy's native one, so the vectorized kernel is skipped
                _simulate("simulate-4x13-nofb-cyclic-partial", 4, 13, "nofb-cyclic", 20_000,
                          "--model", "partial"),
            ),
        ),
        Workload(
            "verify",
            "bound sweeps, pointwise verification and report rendering, which no "
            "other workload covers",
            (
                Job("verify-pointwise-8", ("verify-pointwise", "--max-total", "8")),
                # about 40k rows and 6.9 MB of CSV, so emit_table shows
                Job("verify-bounds-60",
                    ("verify-bounds", "--max-total", "60", "--trials", "10000"), seeded=True),
                # brute enumeration over 113,400 decks
                Job("exact-value-2x5-greedy-max",
                    ("exact-value", "-m", "2", "-n", "5", "--strategy", "complete-greedy-max")),
            ),
        ),
    )
}


def all_jobs() -> list[Job]:
    return [job for w in WORKLOADS.values() for job in w.jobs]
