"""Guessing strategies, addressable by id string from configs and the CLI.

Strategies see only the observation channel of their feedback model.  Each
instance owns mutable per-game state; build a fresh one per game through
``make_strategy``.  ``_STRATEGIES`` declares every strategy: its native
model, the parameters it reads with their defaults, and its builder.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import cycle, repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

# _count is unused here; perfbench/test_perfbench.py checks that tracing
# rebinds it in this module too.
from .combinatorics import _count, next_card_counts  # noqa: F401
from .core import DeckSpec, FeedbackModel, Observation


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


class Strategy:
    """Base: one game's worth of guessing state."""

    def __init__(self, deck: DeckSpec):
        self.deck = deck

    def next_guess(self) -> int:
        raise NotImplementedError

    def observe(self, obs: Observation) -> None:
        pass


class CompleteGreedy(Strategy):
    """Guess a most (or least) plentiful remaining type; ties to lowest index."""

    def __init__(self, deck: DeckSpec, maximize: bool):
        super().__init__(deck)
        self.maximize = maximize
        self.counts = [deck.multiplicity] * deck.num_types

    def next_guess(self) -> int:
        pick = max if self.maximize else min
        best = pick(self.counts)
        return self.counts.index(best) + 1

    def observe(self, obs: Observation) -> None:
        self.counts[obs - 1] -= 1


class FixedSequence(Strategy):
    """Guess along a sequence fixed before the game; feedback changes nothing."""

    def __init__(self, deck: DeckSpec, guesses: Iterator[int]):
        super().__init__(deck)
        self.guesses = guesses

    def next_guess(self) -> int:
        return next(self.guesses)


def _uniform(deck: DeckSpec, seed: int, rng: np.random.Generator | None) -> FixedSequence:
    """Uniform guesses from ``rng``, else from a fresh stream of ``seed``."""
    if rng is None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence([seed])))
    # One bulk draw per game keeps the stream layout identical to the
    # vectorized simulation kernel.
    return FixedSequence(deck, iter(rng.integers(1, deck.num_types + 1, size=deck.total).tolist()))


PairState = tuple[tuple[int, int], ...]

# Integer next-card counts N(s - e_i) by (remaining, wrong) pair, one entry
# per canonical pair multiset s.
_DIST_CACHE: dict[PairState, dict[tuple[int, int], int]] = {}
# Per sense (True for max), the pairs whose count attains the optimum.
_BEST_PAIRS: dict[bool, dict[PairState, frozenset[tuple[int, int]]]] = {True: {}, False: {}}


def _counts_by_pair(pairs: PairState) -> dict[tuple[int, int], int]:
    by_pair = _DIST_CACHE.get(pairs)
    if by_pair is None:
        remaining, wrong = zip(*pairs)
        by_pair = _DIST_CACHE[pairs] = dict(zip(pairs, next_card_counts(remaining, wrong)))
    return by_pair


def posterior_by_pair(remaining: list[int], wrong: list[int]) -> list[Fraction]:
    """Next-card probabilities per type, cached on the canonical pair multiset.

    Types with equal (remaining, wrong) pairs are exchangeable, so one cache
    entry serves every relabeling.  The next slot is never banned, so the
    counts of the types sum to the shared denominator N(s).
    """
    by_pair = _counts_by_pair(tuple(sorted(zip(remaining, wrong))))
    counts = [by_pair[pair] for pair in zip(remaining, wrong)]
    denom = sum(counts)
    return [Fraction(c, denom) for c in counts]


class PartialMle(Strategy):
    """Guess a most (or least) likely next card under the exact posterior.

    Tracks, per type, the copies still to come and the wrong guesses of it.
    Probabilities share the denominator N(s), so comparing the integer
    counts N(s - e_i) suffices; ties go to the lowest type index.
    """

    def __init__(self, deck: DeckSpec, maximize: bool):
        super().__init__(deck)
        self.maximize = maximize
        self.remaining = [deck.multiplicity] * deck.num_types
        self.wrong = [0] * deck.num_types
        self._last_guess: int | None = None
        self._best = _BEST_PAIRS[maximize]

    def next_guess(self) -> int:
        pairs = list(zip(self.remaining, self.wrong))
        state = tuple(sorted(pairs))
        best = self._best.get(state)
        if best is None:
            by_pair = _counts_by_pair(state)
            top = (max if self.maximize else min)(by_pair.values())
            best = self._best[state] = frozenset(p for p, c in by_pair.items() if c == top)
        for guess, pair in enumerate(pairs, start=1):
            if pair in best:
                break
        self._last_guess = guess
        return guess

    def observe(self, obs: Observation) -> None:
        g = self._last_guess
        if g is None:
            raise ValueError("observation before any guess")
        if obs:
            self.remaining[g - 1] -= 1
        else:
            self.wrong[g - 1] += 1
        self._last_guess = None


class PartialTwoPhase(Strategy):
    """Guess 1 for a fixed phase, then maybe commit to 2.

    After ``phase`` guesses of type 1, switch to guessing 2 for the rest iff
    the number of corrects so far reaches ``threshold``; otherwise keep
    guessing 1 forever.
    """

    def __init__(self, deck: DeckSpec, phase: int, threshold: float):
        super().__init__(deck)
        self.phase = phase
        self.threshold = threshold
        self.t = 0
        self.hits = 0
        self.switched = False

    def next_guess(self) -> int:
        if self.t < self.phase:
            return 1
        if self.t == self.phase:
            self.switched = self.hits >= self.threshold
        return 2 if self.switched else 1

    def observe(self, obs: Observation) -> None:
        if self.t < self.phase and obs:
            self.hits += 1
        self.t += 1


class PartialLadder(Strategy):
    """Guess k until a guess of k is correct, then advance to k + 1.

    After type n is hit the target caps and n is guessed forever.
    """

    def __init__(self, deck: DeckSpec):
        super().__init__(deck)
        self.target = 1

    def next_guess(self) -> int:
        return min(self.target, self.deck.num_types)

    def observe(self, obs: Observation) -> None:
        if obs and self.target <= self.deck.num_types:
            self.target += 1


class _Kind(NamedTuple):
    """One strategy: its native model, its builder (deck, **parameters, plus
    rng for a randomized one), each parameter it reads with its default on a
    deck, and what the deck must satisfy: bounds on parameters and a least
    number of types."""

    model: FeedbackModel
    build: Callable[..., Strategy]
    defaults: dict[str, Callable[[DeckSpec], int | float]] = {}
    bounds: dict[str, Callable[[DeckSpec], tuple[int, int]]] = {}
    min_types: int = 1


_STRATEGIES = {
    StrategyId.COMPLETE_GREEDY_MAX:
        _Kind(FeedbackModel.COMPLETE, partial(CompleteGreedy, maximize=True)),
    StrategyId.COMPLETE_GREEDY_MIN:
        _Kind(FeedbackModel.COMPLETE, partial(CompleteGreedy, maximize=False)),
    StrategyId.NOFB_CONSTANT: _Kind(
        FeedbackModel.NONE,
        lambda deck, card: FixedSequence(deck, repeat(card)),
        defaults={"card": lambda deck: 1},
        bounds={"card": lambda deck: (1, deck.num_types)},
    ),
    StrategyId.NOFB_CYCLIC: _Kind(
        FeedbackModel.NONE, lambda deck: FixedSequence(deck, cycle(range(1, deck.num_types + 1)))
    ),
    StrategyId.PARTIAL_MLE: _Kind(FeedbackModel.PARTIAL, partial(PartialMle, maximize=True)),
    StrategyId.PARTIAL_MIN_MLE: _Kind(FeedbackModel.PARTIAL, partial(PartialMle, maximize=False)),
    StrategyId.PARTIAL_UNIFORM: _Kind(FeedbackModel.PARTIAL, _uniform, {"seed": lambda deck: 0}),
    StrategyId.PARTIAL_TWO_PHASE: _Kind(
        FeedbackModel.PARTIAL,
        PartialTwoPhase,
        defaults={
            "phase": lambda deck: deck.total // 2,
            "threshold": lambda deck: deck.multiplicity / 2 + math.sqrt(deck.multiplicity),
        },
        bounds={"phase": lambda deck: (0, deck.total)},
        min_types=2,
    ),
    StrategyId.PARTIAL_LADDER: _Kind(FeedbackModel.PARTIAL, PartialLadder),
}


def make_strategy(
    spec: StrategySpec, deck: DeckSpec, rng: np.random.Generator | None = None
) -> Strategy:
    """Instantiate a strategy for one game, validating parameters against the deck.

    Randomized strategies draw from ``rng`` when given, else from a fresh
    stream seeded by ``spec.seed``.
    """
    params = spec.resolve(deck)
    if not spec.deterministic:
        params["rng"] = rng
    return _STRATEGIES[spec.id].build(deck, **params)


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
