"""Decks, shuffles, feedback semantics, and observable game state.

A deck holds ``num_types`` card types with ``multiplicity`` copies each; a
shuffle is a word over ``1..num_types`` in which every type appears exactly
``multiplicity`` times.  Each turn the player names a type, one card is drawn
and discarded, and the feedback model decides what the player learns:
nothing, whether the guess was correct, or the drawn card itself.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass

Observation = None | bool | int


class FeedbackModel(str, enum.Enum):
    """What the player learns after each guess."""

    NONE = "none"
    PARTIAL = "partial"
    COMPLETE = "complete"


@dataclass(frozen=True)
class DeckSpec:
    """A deck shape: ``num_types`` card types, ``multiplicity`` copies each."""

    multiplicity: int
    num_types: int

    def __post_init__(self) -> None:
        if self.multiplicity < 1 or self.num_types < 1:
            raise ValueError("multiplicity and num_types must be at least 1")

    @property
    def total(self) -> int:
        return self.multiplicity * self.num_types

    def canonical_word(self) -> tuple[int, ...]:
        """The sorted shuffle word (1, 1, ..., 2, 2, ..., n)."""
        return tuple(
            t for t in range(1, self.num_types + 1) for _ in range(self.multiplicity)
        )


def validate_shuffle(word: tuple[int, ...], spec: DeckSpec) -> bool:
    """True iff ``word`` is a legal shuffle of ``spec``."""
    if len(word) != spec.total:
        return False
    counts = Counter(word)
    return all(counts.get(t, 0) == spec.multiplicity for t in range(1, spec.num_types + 1))


def observe(model: FeedbackModel, guess: int, true_card: int) -> Observation:
    """Feedback payload for one turn.

    NONE yields nothing, PARTIAL yields the correctness bit, COMPLETE yields
    the drawn card itself.
    """
    if model is FeedbackModel.NONE:
        return None
    if model is FeedbackModel.PARTIAL:
        return guess == true_card
    if model is FeedbackModel.COMPLETE:
        return true_card
    raise ValueError(f"unknown feedback model: {model!r}")


def play(strategy, model: FeedbackModel, deck) -> int:
    """Score of one strategy instance guessing its way through ``deck``.

    The strategy sees only the feedback ``model`` gives after each card, so
    playing a prefix of a deck equals stopping the game after that prefix.
    """
    score = 0
    for card in deck:
        guess = strategy.next_guess()
        if guess == card:
            score += 1
        strategy.observe(observe(model, guess, card))
    return score


@dataclass(frozen=True)
class History:
    """Observable transcript: guesses and the feedback they produced."""

    model: FeedbackModel
    guesses: tuple[int, ...] = ()
    feedback: tuple[Observation, ...] = ()

    def __post_init__(self) -> None:
        if len(self.guesses) != len(self.feedback):
            raise ValueError("guesses and feedback must have equal length")
        for obs in self.feedback:
            if self.model is FeedbackModel.NONE and obs is not None:
                raise ValueError("NONE feedback carries no payload")
            if self.model is FeedbackModel.PARTIAL and not isinstance(obs, bool):
                raise ValueError("PARTIAL feedback must be booleans")
            if self.model is FeedbackModel.COMPLETE and (
                isinstance(obs, bool) or not isinstance(obs, int)
            ):
                raise ValueError("COMPLETE feedback must be card values")

    def __len__(self) -> int:
        return len(self.guesses)

    def extended(self, guess: int, obs: Observation) -> History:
        return History(self.model, self.guesses + (guess,), self.feedback + (obs,))

    def correct_flags(self) -> tuple[bool, ...]:
        """Per-turn correctness, as far as the feedback reveals it.

        Under NONE nothing is observable, so every flag is False.
        """
        if self.model is FeedbackModel.PARTIAL:
            return tuple(bool(y) for y in self.feedback)
        if self.model is FeedbackModel.COMPLETE:
            return tuple(g == y for g, y in zip(self.guesses, self.feedback))
        return tuple(False for _ in self.guesses)


@dataclass(frozen=True)
class TallyState:
    """Observable tallies derived from a history.

    ``remaining[i]`` counts copies of type ``i+1`` not yet confirmed found,
    ``guess_counts[i]`` counts guesses of type ``i+1`` so far.
    """

    remaining: tuple[int, ...]
    guess_counts: tuple[int, ...]
    correct_total: int
    time: int


def derive_tallies(history: History, spec: DeckSpec) -> TallyState:
    """Recompute tallies from scratch; rejects inconsistent histories."""
    n = spec.num_types
    if len(history) > spec.total:
        raise ValueError("history longer than the deck")
    remaining = [spec.multiplicity] * n
    guess_counts = [0] * n
    flags = history.correct_flags()
    for guess, flag in zip(history.guesses, flags):
        if not 1 <= guess <= n:
            raise ValueError(f"guess {guess} outside 1..{n}")
        guess_counts[guess - 1] += 1
        if flag:
            remaining[guess - 1] -= 1
            if remaining[guess - 1] < 0:
                raise ValueError(f"more correct guesses of type {guess} than copies")
    if history.model is FeedbackModel.COMPLETE:
        revealed = Counter(history.feedback)
        for card, cnt in revealed.items():
            if not 1 <= card <= n:
                raise ValueError(f"revealed card {card} outside 1..{n}")
            if cnt > spec.multiplicity:
                raise ValueError(f"type {card} revealed more often than its multiplicity")
    return TallyState(
        remaining=tuple(remaining),
        guess_counts=tuple(guess_counts),
        correct_total=sum(flags),
        time=len(history),
    )


def chain_length(word: tuple[int, ...]) -> int:
    """Largest p such that 1, 2, ..., p appear at increasing positions.

    Single greedy left-to-right scan: match 1 first, then 2, and so on.
    """
    target = 1
    for card in word:
        if card == target:
            target += 1
    return target - 1
