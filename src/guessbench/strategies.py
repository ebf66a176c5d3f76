"""Guessing strategies, addressable by id string from configs and the CLI.

Strategies see only the observation channel of their feedback model.  Each
instance owns mutable per-game state; build a fresh one per game through
``make_strategy``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

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


_NATIVE_MODEL = {
    StrategyId.COMPLETE_GREEDY_MAX: FeedbackModel.COMPLETE,
    StrategyId.COMPLETE_GREEDY_MIN: FeedbackModel.COMPLETE,
    StrategyId.NOFB_CONSTANT: FeedbackModel.NONE,
    StrategyId.NOFB_CYCLIC: FeedbackModel.NONE,
    StrategyId.PARTIAL_MLE: FeedbackModel.PARTIAL,
    StrategyId.PARTIAL_MIN_MLE: FeedbackModel.PARTIAL,
    StrategyId.PARTIAL_UNIFORM: FeedbackModel.PARTIAL,
    StrategyId.PARTIAL_TWO_PHASE: FeedbackModel.PARTIAL,
    StrategyId.PARTIAL_LADDER: FeedbackModel.PARTIAL,
}

_PARAM_FIELDS = ("card", "phase", "threshold", "seed")
# The parameters each strategy reads; every other strategy reads none.
_READS = {
    StrategyId.NOFB_CONSTANT: ("card",),
    StrategyId.PARTIAL_UNIFORM: ("seed",),
    StrategyId.PARTIAL_TWO_PHASE: ("phase", "threshold"),
}


def _check_reads(sid: StrategyId, name: str) -> None:
    reads = _READS.get(sid, ())
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

    @property
    def native_model(self) -> FeedbackModel:
        return _NATIVE_MODEL[self.id]

    @property
    def deterministic(self) -> bool:
        return self.id is not StrategyId.PARTIAL_UNIFORM

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
    params: dict[str, int | float] = {}
    if tail:
        for item in tail.split(","):
            key, sep, value = item.partition("=")
            key = key.strip()
            if not sep or key not in _PARAM_FIELDS:
                raise ValueError(f"bad strategy parameter {item!r}")
            # checked here too, since threshold=auto leaves no field set
            _check_reads(sid, key)
            value = value.strip()
            if key == "threshold":
                if value != "auto":
                    params[key] = float(value)
            else:
                params[key] = int(value)
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


class NofbConstant(Strategy):
    def __init__(self, deck: DeckSpec, card: int):
        super().__init__(deck)
        self.card = card

    def next_guess(self) -> int:
        return self.card


class NofbCyclic(Strategy):
    """Guess along the fixed word 1, 2, ..., n, 1, 2, ... covering each type m times."""

    def __init__(self, deck: DeckSpec):
        super().__init__(deck)
        self.t = 0

    def next_guess(self) -> int:
        guess = self.t % self.deck.num_types + 1
        self.t += 1
        return guess


class PartialTally(Strategy):
    """Shared bookkeeping for partial-feedback strategies that track tallies."""

    def __init__(self, deck: DeckSpec):
        super().__init__(deck)
        self.remaining = [deck.multiplicity] * deck.num_types
        self.wrong = [0] * deck.num_types
        self._last_guess: int | None = None

    def observe(self, obs: Observation) -> None:
        g = self._last_guess
        if g is None:
            raise ValueError("observation before any guess")
        if obs:
            self.remaining[g - 1] -= 1
        else:
            self.wrong[g - 1] += 1
        self._last_guess = None


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


class PartialMle(PartialTally):
    """Guess a most (or least) likely next card under the exact posterior.

    Probabilities share the denominator N(s), so comparing the integer
    counts N(s - e_i) suffices; ties go to the lowest type index.
    """

    def __init__(self, deck: DeckSpec, maximize: bool):
        super().__init__(deck)
        self.maximize = maximize
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


class PartialUniform(Strategy):
    def __init__(self, deck: DeckSpec, rng: np.random.Generator):
        super().__init__(deck)
        # One bulk draw per game keeps the stream layout identical to the
        # vectorized simulation kernel.
        self.guesses = rng.integers(1, deck.num_types + 1, size=deck.total)
        self.t = 0

    def next_guess(self) -> int:
        guess = int(self.guesses[self.t])
        self.t += 1
        return guess


class PartialTwoPhase(Strategy):
    """Guess 1 for a fixed phase, then maybe commit to 2.

    After ``phase`` guesses of type 1, switch to guessing 2 for the rest iff
    the number of corrects so far reaches the threshold (default
    m/2 + sqrt(m)); otherwise keep guessing 1 forever.
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


def make_strategy(
    spec: StrategySpec, deck: DeckSpec, rng: np.random.Generator | None = None
) -> Strategy:
    """Instantiate a strategy for one game, validating parameters against the deck.

    Randomized strategies draw from ``rng`` when given, else from a fresh
    stream seeded by ``spec.seed``.
    """
    n, mn = deck.num_types, deck.total
    sid = spec.id
    if spec.card is not None and not 1 <= spec.card <= n:
        raise ValueError(f"card must lie in 1..{n}")
    if spec.phase is not None and not 0 <= spec.phase <= mn:
        raise ValueError(f"phase must lie in 0..{mn}")
    if spec.seed is not None and spec.seed < 0:
        raise ValueError("seed must be nonnegative")
    if sid is StrategyId.COMPLETE_GREEDY_MAX:
        return CompleteGreedy(deck, maximize=True)
    if sid is StrategyId.COMPLETE_GREEDY_MIN:
        return CompleteGreedy(deck, maximize=False)
    if sid is StrategyId.NOFB_CONSTANT:
        return NofbConstant(deck, spec.card if spec.card is not None else 1)
    if sid is StrategyId.NOFB_CYCLIC:
        return NofbCyclic(deck)
    if sid is StrategyId.PARTIAL_MLE:
        return PartialMle(deck, maximize=True)
    if sid is StrategyId.PARTIAL_MIN_MLE:
        return PartialMle(deck, maximize=False)
    if sid is StrategyId.PARTIAL_UNIFORM:
        if rng is None:
            rng = np.random.Generator(
                np.random.Philox(np.random.SeedSequence([spec.seed or 0]))
            )
        return PartialUniform(deck, rng)
    if sid is StrategyId.PARTIAL_TWO_PHASE:
        if n < 2:
            raise ValueError("two-phase needs at least two types")
        m = deck.multiplicity
        phase = spec.phase if spec.phase is not None else mn // 2
        threshold = spec.threshold if spec.threshold is not None else m / 2 + math.sqrt(m)
        return PartialTwoPhase(deck, phase, threshold)
    if sid is StrategyId.PARTIAL_LADDER:
        return PartialLadder(deck)
    raise ValueError(f"unhandled strategy id {sid!r}")


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
