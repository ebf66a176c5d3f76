"""Guessing strategies, addressable by id string from configs and the CLI.

Each strategy is written once, as a kernel that scores a whole array of
decks; simulation and exact enumeration both reach it through
``make_strategy``.  ``_STRATEGIES`` declares every strategy: its native
model and the parameters it reads with their defaults.  ``_KERNELS`` holds
its kernel.  The per-game reference strategies and play loop live in
``tests/oracles.py``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, NamedTuple

# _count is unused here; perfbench/test_perfbench.py checks that tracing
# rebinds it in this module too.
from .combinatorics import _count, _state_codes, _state_layout, next_card_counts  # noqa: F401
from .core import DeckSpec, FeedbackModel

if TYPE_CHECKING:  # annotations only; see the package docstring
    import numpy as np


class StrategyId(str, enum.Enum):
    COMPLETE_GREEDY_MAX = "complete-greedy-max"
    COMPLETE_GREEDY_MIN = "complete-greedy-min"
    NOFB_CONSTANT = "nofb-constant"
    NOFB_CYCLIC = "nofb-cyclic"
    PARTIAL_MLE = "partial-mle"
    PARTIAL_MIN_MLE = "partial-min-mle"
    PARTIAL_UNIFORM = "partial-uniform"
    PARTIAL_TWO_PHASE = "partial-two-phase"
    PARTIAL_LADDER = "partial-ladder"


_PARAM_FIELDS = ("card", "phase", "threshold", "seed")


def _check_reads(sid: StrategyId, name: str) -> None:
    reads = _STRATEGIES[sid].defaults
    if name not in reads:
        takes = ", ".join(reads) or "none"
        raise ValueError(f"{sid.value} does not read parameter {name} (it reads: {takes})")


@dataclass(frozen=True)
class StrategySpec:
    """A strategy id plus its parameters; the unit configs and reports name."""

    id: StrategyId
    card: int | None = None
    phase: int | None = None
    threshold: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        for name in _PARAM_FIELDS:
            if getattr(self, name) is not None:
                _check_reads(self.id, name)
        if self.seed is not None and self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if self.threshold is not None and math.isnan(self.threshold):
            raise ValueError("threshold must be a number, not nan")
        if self.threshold is not None and math.isinf(self.threshold):
            raise ValueError("threshold must be finite")

    @property
    def native_model(self) -> FeedbackModel:
        return _STRATEGIES[self.id].model

    @property
    def deterministic(self) -> bool:
        # a strategy is randomized exactly when it reads a seed
        return "seed" not in _STRATEGIES[self.id].defaults

    def resolve(self, deck: DeckSpec) -> dict[str, int | float]:
        """Each parameter the strategy reads, set to its default on ``deck``
        where the spec leaves it unset.

        Raises ValueError naming the parameter when a value does not fit the deck.
        """
        kind = _STRATEGIES[self.id]
        if deck.num_types < kind.min_types:
            raise ValueError(f"{self.id.value} needs at least {kind.min_types} types")
        if kind.max_cards is not None and deck.total > kind.max_cards:
            raise ValueError(
                f"{self.id.value} plays at most {kind.max_cards} cards (m*n), got {deck.total}"
            )
        params = {}
        for name, default in kind.defaults.items():
            value = getattr(self, name)
            params[name] = default(deck) if value is None else value
        for name, bounds in kind.bounds.items():
            low, high = bounds(deck)
            if not low <= params[name] <= high:
                raise ValueError(f"{name} must lie in {low}..{high}")
        return params

    def label(self) -> str:
        """Canonical string form, re-parsable by parse_strategy."""
        parts = []
        for name in _PARAM_FIELDS:
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        return self.id.value + (":" + ",".join(parts) if parts else "")


def parse_strategy(text: str) -> StrategySpec:
    """Parse ``id`` or ``id:key=value,...``; ``threshold=auto`` means default."""
    head, _, tail = text.partition(":")
    try:
        sid = StrategyId(head.strip())
    except ValueError:
        known = ", ".join(s.value for s in StrategyId)
        raise ValueError(f"unknown strategy {head!r}; known: {known}") from None
    params: dict[str, int | float | None] = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _PARAM_FIELDS:
                raise ValueError(f"bad strategy parameter {item!r}")
            # checked here too, since threshold=auto leaves no field set
            _check_reads(sid, key)
            if key in params:
                raise ValueError(f"strategy parameter {key} is given twice")
            value = value.strip()
            try:
                if key == "threshold":
                    params[key] = None if value == "auto" else float(value)
                else:
                    params[key] = int(value)
            except ValueError:
                raise ValueError(f"bad value {value!r} for strategy parameter {key}") from None
    return StrategySpec(sid, **params)


# Nothing writes this; it stays, empty, only because perfbench/job.py
# reports its size, and perfbench/ is fixed with the benchmark.
_DIST_CACHE: dict = {}
# Per (m, n, maximize), partial-mle's guessed type index by labelled-state
# key (see combinatorics._state_layout).
_GUESS_MEMO: dict[tuple[int, int, bool], dict[int, int]] = {}
# Per (m, n, maximize), the winning codes (see _winning_codes) by canonical
# key: the state's sorted codes read, most significant first, as the digits
# of one integer in the base of _state_layout.  At (4,13) the two memos hold
# about 210 bytes per labelled state, where keeping each canonical state's
# next-card counts took about 710.
_BEST_MEMO: dict[tuple[int, int, bool], dict[int, int | tuple[int, ...]]] = {}


def posterior_by_pair(remaining: list[int], wrong: list[int]) -> list[Fraction]:
    """Next-card probabilities per type.

    The next slot is never banned, so the counts of the types sum to the
    shared denominator N(s).
    """
    by_pair = next_card_counts(tuple(zip(remaining, wrong)))
    counts = [by_pair[pair] for pair in zip(remaining, wrong)]
    denom = sum(counts)
    return [Fraction(c, denom) for c in counts]


def _winning_codes(codes: list[int], width: int, maximize: bool) -> int | tuple[int, ...]:
    """The pairs partial-mle (partial-min-mle when not ``maximize``) may
    guess on the state whose sorted codes remaining * width + wrong are
    ``codes``, each as its code: one int, or a tuple when distinct pairs tie.

    Probabilities share the denominator N(s), so comparing the integer
    counts N(s - e_i) suffices.
    """
    by_pair = next_card_counts(tuple(divmod(code, width) for code in codes))
    best = (max if maximize else min)(by_pair.values())
    won = tuple(m * width + a for (m, a), count in by_pair.items() if count == best)
    return won[0] if len(won) == 1 else won


def _first_winner(codes: list[int], won: int | tuple[int, ...]) -> int:
    """The lowest type index whose code is among ``won``."""
    if isinstance(won, int):
        return codes.index(won)
    return next(i for i, code in enumerate(codes) if code in won)


def _mle_guess_at(key: int, n: int, width: int, base: int, best: dict, maximize: bool) -> int:
    """Index of the type to guess under partial-mle (partial-min-mle when not
    ``maximize``) on the labelled state ``key`` of ``_state_layout``; ties
    go to the lowest type index.  ``best`` is the canonical memo (see
    ``_BEST_MEMO``), filled here for a state new to it.
    """
    codes = _state_codes(key, n, base)
    ordered = sorted(codes)
    canon = 0
    for code in ordered:
        canon = canon * base + code
    won = best.get(canon)
    if won is None:
        won = best[canon] = _winning_codes(ordered, width, maximize)
    return _first_winner(codes, won)


# ===== kernels: one implementation per strategy =====
# Each takes the deck spec, the strategy's resolved parameters
# (StrategySpec.resolve), an array of deck words, one per row, and the
# strategy's stream, and returns each row's score.  Rows may be a common
# prefix of the decks: a strategy sees only the cards drawn so far, so
# scoring a prefix equals stopping the game there.  Only no-feedback
# strategies run under a model other than their own, and they ignore
# feedback, so no kernel needs the model.


def _kernel_greedy(maximize: bool):
    def kernel(spec: DeckSpec, params: dict, decks: np.ndarray, strat_rng) -> np.ndarray:
        import numpy as np

        rows = np.arange(decks.shape[0])
        counts = np.full((decks.shape[0], spec.num_types), spec.multiplicity, dtype=np.int64)
        scores = np.zeros(decks.shape[0], dtype=np.int64)
        for t in range(decks.shape[1]):
            guess = counts.argmax(axis=1) if maximize else counts.argmin(axis=1)
            revealed = decks[:, t] - 1
            scores += guess == revealed
            counts[rows, revealed] -= 1
        return scores

    return kernel


def _kernel_constant(spec, params, decks, strat_rng):
    return (decks == params["card"]).sum(axis=1)


def _kernel_cyclic(spec, params, decks, strat_rng):
    import numpy as np

    pattern = (np.arange(decks.shape[1]) % spec.num_types + 1).astype(decks.dtype)
    return (decks == pattern).sum(axis=1)


def _kernel_mle(maximize: bool):
    # Each row walks its game by integer steps on its labelled state key
    # (see _state_layout).  The labelled memo gives every guess after a
    # state's first; on its miss the canonical memo gives the winning codes,
    # and only a state new to both counts arrangements.
    def kernel(spec: DeckSpec, params: dict, decks: np.ndarray, strat_rng) -> np.ndarray:
        import numpy as np

        m, n = spec.multiplicity, spec.num_types
        width, base, misses, hits, start = _state_layout(spec)
        memo = _GUESS_MEMO.setdefault((m, n, maximize), {})
        best = _BEST_MEMO.setdefault((m, n, maximize), {})
        scores = []
        for deck in decks.tolist():
            key, score = start, 0
            for card in deck:
                i = memo.get(key)
                if i is None:
                    i = memo[key] = _mle_guess_at(key, n, width, base, best, maximize)
                if card == i + 1:
                    score += 1
                    key -= hits[i]
                else:
                    key += misses[i]
            scores.append(score)
        return np.array(scores, dtype=np.int64)

    return kernel


def _kernel_uniform(spec, params, decks, strat_rng):
    guesses = strat_rng.integers(1, spec.num_types + 1, size=decks.shape)
    return (guesses == decks).sum(axis=1)


def _kernel_two_phase(spec, params, decks, strat_rng):
    # Guess 1 for ``phase`` turns; then guess 2 for the rest iff the hits so
    # far reach ``threshold``, else keep guessing 1.
    import numpy as np

    phase, threshold = params["phase"], params["threshold"]
    early_hits = (decks[:, :phase] == 1).sum(axis=1)
    switched = early_hits >= threshold
    late = decks[:, phase:]
    return early_hits + np.where(switched, (late == 2).sum(axis=1), (late == 1).sum(axis=1))


def _kernel_ladder(spec, params, decks, strat_rng):
    # Guess k until a guess of k hits, then k + 1; the guess caps at n.
    import numpy as np

    guess = np.ones(decks.shape[0], dtype=decks.dtype)
    scores = np.zeros(decks.shape[0], dtype=np.int64)
    for t in range(decks.shape[1]):
        hit = decks[:, t] == guess
        scores += hit
        guess += hit & (guess < spec.num_types)
    return scores


class _Kind(NamedTuple):
    """One strategy: its native model, each parameter it reads with its
    default on a deck, and what the deck must satisfy: bounds on parameters
    and a least number of types or a most number of cards.  Its kernel is
    its entry in ``_KERNELS``.

    ``reads_types`` = k says the kernel compares cards only against types
    1..k, so simulation may deal it decks holding only those km cards, with
    0 in every other cell; None means it reads every card."""

    model: FeedbackModel
    defaults: dict[str, Callable[[DeckSpec], int | float]] = {}
    bounds: dict[str, Callable[[DeckSpec], tuple[int, int]]] = {}
    min_types: int = 1
    max_cards: int | None = None
    reads_types: int | None = None


# A partial-mle game's cost grows steeply with the deck: on a 2-CPU
# machine a game takes about 0.025 s at (10,10), 0.17 s at (20,10) and
# 5.7 s at (40,10) and at (20,20).
_MLE_MAX_CARDS = 200

_STRATEGIES = {
    StrategyId.COMPLETE_GREEDY_MAX: _Kind(FeedbackModel.COMPLETE),
    StrategyId.COMPLETE_GREEDY_MIN: _Kind(FeedbackModel.COMPLETE),
    StrategyId.NOFB_CONSTANT: _Kind(
        FeedbackModel.NONE,
        defaults={"card": lambda deck: 1},
        bounds={"card": lambda deck: (1, deck.num_types)},
    ),
    StrategyId.NOFB_CYCLIC: _Kind(FeedbackModel.NONE),
    StrategyId.PARTIAL_MLE: _Kind(FeedbackModel.PARTIAL, max_cards=_MLE_MAX_CARDS),
    StrategyId.PARTIAL_MIN_MLE: _Kind(FeedbackModel.PARTIAL, max_cards=_MLE_MAX_CARDS),
    StrategyId.PARTIAL_UNIFORM: _Kind(FeedbackModel.PARTIAL, {"seed": lambda deck: 0}),
    StrategyId.PARTIAL_TWO_PHASE: _Kind(
        FeedbackModel.PARTIAL,
        defaults={
            "phase": lambda deck: deck.total // 2,
            "threshold": lambda deck: deck.multiplicity / 2 + math.sqrt(deck.multiplicity),
        },
        bounds={"phase": lambda deck: (0, deck.total)},
        min_types=2,
        reads_types=2,
    ),
    StrategyId.PARTIAL_LADDER: _Kind(FeedbackModel.PARTIAL),
}

# The one dispatch table for scoring; make_strategy reads it at every call,
# so a wrapper put in place of an entry sees every scored chunk.
_KERNELS = {
    StrategyId.COMPLETE_GREEDY_MAX: _kernel_greedy(True),
    StrategyId.COMPLETE_GREEDY_MIN: _kernel_greedy(False),
    StrategyId.NOFB_CONSTANT: _kernel_constant,
    StrategyId.NOFB_CYCLIC: _kernel_cyclic,
    StrategyId.PARTIAL_MLE: _kernel_mle(True),
    StrategyId.PARTIAL_MIN_MLE: _kernel_mle(False),
    StrategyId.PARTIAL_UNIFORM: _kernel_uniform,
    StrategyId.PARTIAL_TWO_PHASE: _kernel_two_phase,
    StrategyId.PARTIAL_LADDER: _kernel_ladder,
}


def make_strategy(
    spec: StrategySpec, deck: DeckSpec, rng: np.random.Generator | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """The strategy's kernel bound to its parameters resolved on ``deck``:
    a function from an array of deck words, one per row, to each row's score.

    Raises ValueError naming a parameter that does not fit the deck.
    Randomized strategies draw from ``rng``, which they need; each call
    continues it.  Simulation passes a stream of ``montecarlo.rng_stream``.
    """
    params = spec.resolve(deck)
    return lambda decks: _KERNELS[spec.id](deck, params, decks, rng)


def compatible(spec: StrategySpec, model: FeedbackModel) -> bool:
    """No-feedback strategies run under any model; others only their own."""
    native = spec.native_model
    return native is model or native is FeedbackModel.NONE


def _resolve_model(spec: StrategySpec, model: FeedbackModel | None) -> FeedbackModel:
    """``model``, which must be compatible with ``spec``, or when None the native one."""
    if model is None:
        return spec.native_model
    if not compatible(spec, model):
        raise ValueError(f"{spec.label()} cannot play under {model.value} feedback")
    return model
