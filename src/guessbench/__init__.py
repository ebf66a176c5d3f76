"""Card-guessing games over fixed-multiplicity decks: exact optima under
three feedback models, seeded large-scale simulation, and numeric stress
tests for the tail bounds the asymptotics lean on.

numpy is imported inside the functions that run array code (the strategy
kernels, the deck sampler, the enumerated score pmf and the simulated bound
checks), so the pure-integer exact engines start without it.

The names exported here are the library face of the nine subcommands and
the types needed to call them; every other name is imported from its
module."""

from ._version import __version__
from .combinatorics import shuffle_count
from .core import DeckSpec, FeedbackModel
from .exact import (
    exact_chain_mean,
    exact_value,
    optimal_complete,
    optimal_partial,
    probe_persistence,
    verify_pointwise,
)
from .montecarlo import (
    estimate_chain,
    estimate_repeat_time,
    estimate_value,
    exact_distinct_prefix_probability,
)
from .strategies import StrategyId, StrategySpec, parse_strategy

__all__ = [
    "__version__",
    "DeckSpec",
    "FeedbackModel",
    "StrategyId",
    "StrategySpec",
    "estimate_chain",
    "estimate_repeat_time",
    "estimate_value",
    "exact_chain_mean",
    "exact_distinct_prefix_probability",
    "exact_value",
    "optimal_complete",
    "optimal_partial",
    "parse_strategy",
    "probe_persistence",
    "shuffle_count",
    "verify_pointwise",
]
