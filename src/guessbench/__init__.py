"""Card-guessing games over fixed-multiplicity decks: exact optima under
three feedback models, seeded large-scale simulation, and numeric stress
tests for the tail bounds the asymptotics lean on."""

from ._version import __version__
from .combinatorics import ConstraintState, binomial_pmf, shuffle_count
from .core import DeckSpec, FeedbackModel
from .exact import (
    PartialSolution,
    PersistenceViolation,
    PointwiseReport,
    enumerable_specs,
    exact_chain_mean,
    exact_value,
    first_third_distribution,
    iter_shuffles,
    optimal_complete,
    optimal_partial,
    probe_persistence,
    solve_partial,
    verify_pointwise,
)
from .montecarlo import (
    RepeatTimeEstimate,
    StatSummary,
    estimate_chain,
    estimate_repeat_time,
    estimate_value,
    exact_distinct_prefix_probability,
    rng_stream,
)
from .strategies import (
    StrategyId,
    StrategySpec,
    compatible,
    make_strategy,
    parse_strategy,
)

__all__ = [
    "__version__",
    "ConstraintState",
    "DeckSpec",
    "FeedbackModel",
    "PartialSolution",
    "PersistenceViolation",
    "PointwiseReport",
    "RepeatTimeEstimate",
    "StatSummary",
    "StrategyId",
    "StrategySpec",
    "binomial_pmf",
    "compatible",
    "enumerable_specs",
    "estimate_chain",
    "estimate_repeat_time",
    "estimate_value",
    "exact_chain_mean",
    "exact_distinct_prefix_probability",
    "exact_value",
    "first_third_distribution",
    "iter_shuffles",
    "make_strategy",
    "optimal_complete",
    "optimal_partial",
    "parse_strategy",
    "probe_persistence",
    "rng_stream",
    "shuffle_count",
    "solve_partial",
    "verify_pointwise",
]
