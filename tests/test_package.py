import importlib
import os
import subprocess
import sys
from pathlib import Path

import guessbench

REPO_ROOT = Path(__file__).resolve().parent.parent

# Runs the exact subcommands in a fresh interpreter, then lists which of the
# modules that only array code needs got loaded.
EXACT_RUNS_SCRIPT = """
import sys

import guessbench
import guessbench.cli as cli

for argv in (
    ["optimal", "-m", "2", "-n", "3", "--model", "partial"],
    ["optimal", "-m", "2", "-n", "3", "--model", "complete"],
    ["table", "--m-grid", "1,2", "--n-grid", "2,3"],
    ["persistence", "-m", "2", "-n", "3"],
    ["verify-pointwise", "--max-total", "4"],
):
    assert cli.main(argv) == 0, argv
print([name for name in ("numpy", "concurrent.futures.process") if name in sys.modules])
"""


def test_public_names_resolve():
    names = guessbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(guessbench, name)]
    assert missing == []


def test_public_names_are_the_library_face_of_the_subcommands():
    # the surface grows only by a deliberate edit here
    assert sorted(guessbench.__all__) == sorted([
        "__version__", "DeckSpec", "FeedbackModel", "StrategyId", "StrategySpec",
        "parse_strategy", "exact_value", "optimal_complete", "optimal_partial",
        "probe_persistence", "verify_pointwise", "shuffle_count",
        "estimate_value", "estimate_repeat_time", "exact_distinct_prefix_probability",
        "estimate_chain", "exact_chain_mean",
    ])
    # internals stay importable from their own modules
    internals = {
        "combinatorics": ["ConstraintState"],
        "exact": ["PartialSolution", "PersistenceViolation", "PointwiseReport",
                  "enumerable_specs", "first_third_distribution", "solve_partial"],
        "montecarlo": ["StatSummary", "rng_stream"],
        "strategies": ["make_strategy"],
    }
    for module, names in internals.items():
        mod = importlib.import_module(f"guessbench.{module}")
        assert all(hasattr(mod, name) for name in names), module


def test_exact_subcommands_load_neither_numpy_nor_a_process_pool():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", EXACT_RUNS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
