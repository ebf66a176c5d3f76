"""Decks, shuffles, feedback semantics, and the play loop.

A deck holds ``num_types`` card types with ``multiplicity`` copies each; a
shuffle is a word over ``1..num_types`` in which every type appears exactly
``multiplicity`` times.  Each turn the player names a type, one card is drawn
and discarded, and the feedback model decides what the player learns:
nothing, whether the guess was correct, or the drawn card itself.
"""

from __future__ import annotations

import enum
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


def chain_length(word: tuple[int, ...]) -> int:
    """Largest p such that 1, 2, ..., p appear at increasing positions.

    Single greedy left-to-right scan: match 1 first, then 2, and so on.
    """
    target = 1
    for card in word:
        if card == target:
            target += 1
    return target - 1
