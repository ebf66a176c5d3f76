"""Decks, shuffles, and feedback models.

A deck holds ``num_types`` card types with ``multiplicity`` copies each; a
shuffle is a word over ``1..num_types`` in which every type appears exactly
``multiplicity`` times.  Each turn the player names a type, one card is drawn
and discarded, and the feedback model decides what the player learns:
nothing, whether the guess was correct, or the drawn card itself.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
