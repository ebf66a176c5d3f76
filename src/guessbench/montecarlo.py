"""Seeded simulation of guessing games at scales enumeration cannot reach.

Trials are partitioned into fixed-size blocks; block b draws its decks from
the counter-based stream (seed, 0, b) and any strategy randomness from
(strategy seed, 1, b).  Every deck draw in the package goes through
``deck_chunks``, which alone turns a block's stream into what a kernel
reads.  Results are merged as integer score histograms, so estimates are
bit-identical for a given (seed, trials) no matter how many workers run the
blocks.

A strategy whose kernel reads only the cards of types 1..k
(partial-two-phase, k = 2) is dealt their positions, not decks: each row
draws the positions of those km cards, in draw order, 800 per game at
(400, 50) where a deck holds 20,000 cards.  Drawing only those positions
changed two-phase's stream, which is why ``RNG_FAMILY`` moved from
``philox4x64`` to ``philox4x64-r2``.  Every other strategy, and every other
sampler, shuffles the whole deck.  The other positional kernel,
complete-greedy-max's, gets each staged slice of shuffles as its card
positions (``strategies._card_positions``), so no chunk of its decks is
built.  Whole-deck shuffles run on pointer-sized copies of the cards,
numpy's fastest shuffle loop; numpy makes the same draws for every dtype,
so the decks, and the stream, are those of shuffling the cards in their
own dtype.

Each chunk of decks is scored by the strategy's kernel through
``strategies.make_strategy``, the same path exact enumeration takes.  The
tests replay the same decks and strategy streams game by game through the
per-game reference strategies in ``tests/oracles.py`` and require the same
trial-by-trial scores.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator

from .core import DeckSpec

# _KERNELS is not read here; perfbench/tracer.py wraps the simulation
# kernels through this name, and it is the same dict make_strategy reads.
from .strategies import (  # noqa: F401
    _KERNELS,
    _STRATEGIES,
    StrategyId,
    StrategySpec,
    _card_positions,
    make_strategy,
)

if TYPE_CHECKING:  # annotations only; see the package docstring
    import numpy as np

RNG_FAMILY = "philox4x64-r2"
BLOCK_SIZE = 4096
_CHUNK = 512
# Cards per staged shuffle and per chunk of dealt or sorted positions (see
# deck_chunks), 8 bytes each: stages of 2^12 to 2^17 cards shuffle at the
# same speed, and 5,000 two-phase games at (400,50) take 0.25 s in chunks of
# 10 games and 0.24 s in chunks of 40, which peak 0.7 MB higher.
_STAGE_CELLS = 2**13
_DECK_TAG = 0
_STRATEGY_TAG = 1


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent reproducible stream for (seed, path)."""
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


# ===== score summaries =====


@dataclass(frozen=True)
class StatSummary:
    """Integer histogram of a simulated statistic (a score, a chain length or
    a repeat time) plus the moments and tails derived from it."""

    trials: int
    histogram: tuple[tuple[int, int], ...]

    @classmethod
    def from_counter(cls, counts: Counter[int]) -> StatSummary:
        return cls(sum(counts.values()), tuple(sorted(counts.items())))

    @property
    def mean(self) -> float:
        return sum(s * c for s, c in self.histogram) / self.trials

    @property
    def variance(self) -> float:
        if self.trials < 2:
            return 0.0
        mu = self.mean
        return sum(c * (s - mu) ** 2 for s, c in self.histogram) / (self.trials - 1)

    @property
    def sd(self) -> float:
        return math.sqrt(self.variance)

    @property
    def se(self) -> float:
        return self.sd / math.sqrt(self.trials)

    @property
    def min(self) -> int:
        return self.histogram[0][0]

    @property
    def max(self) -> int:
        return self.histogram[-1][0]

    def survival(self, t: int) -> float:
        """Share of trials whose value exceeds ``t``."""
        return sum(c for v, c in self.histogram if v > t) / self.trials

    def survival_se(self, t: int) -> float:
        p = self.survival(t)
        return math.sqrt(p * (1 - p) / self.trials)


def _blocks(trials: int, size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """(block id, rows) pairs that split ``trials`` into blocks of ``size``;
    the one check that ``trials`` is positive."""
    if trials < 1:
        raise ValueError("trials must be positive")
    return [(b, min(size, trials - b * size)) for b in range((trials + size - 1) // size)]


def _deck_word(spec: DeckSpec) -> np.ndarray:
    """The sorted word of ``spec`` as an array: int16 up to 32,767 types,
    int32 above."""
    import numpy as np

    dtype = np.int16 if spec.num_types <= np.iinfo(np.int16).max else np.int32
    return np.array(spec.canonical_word(), dtype=dtype)


def deck_chunks(
    word: np.ndarray,
    blocks: list[tuple[int, int]],
    seed: int,
    tag: int = _DECK_TAG,
    reads: int | None = None,
    positions: bool = False,
) -> Iterator[np.ndarray]:
    """Shuffles of ``word`` for each (block id, rows) pair of ``blocks``, in
    the layout a kernel reads, one row per game.

    Block b draws its rows in order from ``rng_stream(seed, tag, b)``, so
    how they are split into chunks never changes them.  Whole shuffles
    come in chunks of at most ``_CHUNK`` rows, in ``word``'s dtype; with
    ``reads`` or ``positions``, a chunk holds at most ``_STAGE_CELLS``
    cells (one row at least).  With ``reads``, each row instead draws ``reads`` distinct
    positions of the deck, one ``rng.choice`` per row: column j is where
    ``word[j]`` lies, so with ``word`` sorted, type t's m copies fill
    columns (t-1)m..tm-1, in draw order, not by position.  Those cards lie
    where a uniform shuffle would put them.  With ``positions`` alone, a
    chunk is the ``_card_positions`` of its whole shuffles.

    Whole shuffles are staged as ``np.intp`` rows, at most ``_STAGE_CELLS``
    cards (one row at least) at a time.  ``Generator.permuted`` has a
    specialized swap loop only for pointer-sized items, and it makes the
    same bounded-integer draws for every dtype, so the rows equal a plain
    ``rng.permuted`` of the tiled word.  The generator keeps no chunk once
    it has yielded it.
    """
    import numpy as np

    staged = min(_CHUNK, max(1, _STAGE_CELLS // (reads or len(word))))
    rows = _CHUNK if reads is None and not positions else staged
    if reads is None:
        stage = np.empty((staged, len(word)), np.intp)
    for block_id, count in blocks:
        rng = rng_stream(seed, tag, block_id)
        for done in range(0, count, rows):
            step = min(rows, count - done)
            if reads is not None:
                chunk = np.stack([
                    rng.choice(len(word), size=reads, replace=False) for _ in range(step)
                ])
            elif positions:
                chunk = _card_positions(_shuffles(word, rng, stage[:step]), len(word))
            else:
                chunk = np.empty((step, len(word)), dtype=word.dtype)
                for start in range(0, step, staged):
                    chunk[start : start + staged] = _shuffles(word, rng, stage[: step - start])
            yield chunk
            del chunk


def _shuffles(word: np.ndarray, rng: np.random.Generator, stage: np.ndarray) -> np.ndarray:
    """``stage`` filled with ``len(stage)`` shuffles of ``word`` from ``rng``."""
    stage[...] = word
    return rng.permuted(stage, axis=1, out=stage)


def _block_scores(
    spec: DeckSpec, sspec: StrategySpec, count: int, seed: int, block_id: int
) -> np.ndarray:
    import numpy as np

    strat_rng = None
    if not sspec.deterministic:
        strat_rng = rng_stream(sspec.resolve(spec)["seed"], _STRATEGY_TAG, block_id)
    score = make_strategy(sspec, spec, strat_rng)
    kind = _STRATEGIES[sspec.id]
    reads = None if kind.reads_types is None else kind.reads_types * spec.multiplicity
    chunks = deck_chunks(
        _deck_word(spec), [(block_id, count)], seed, reads=reads, positions=kind.positions
    )
    return np.concatenate(list(map(score, chunks)))


def _score_block_job(job: tuple[DeckSpec, StrategySpec, int, int, int]) -> Counter[int]:
    return Counter(_block_scores(*job).tolist())


def _score_histogram(
    spec: DeckSpec, strategy: StrategySpec, trials: int, seed: int, workers: int = 1
) -> Counter[int]:
    """Scores of ``trials`` simulated games as a histogram, block by block,
    in a pool of at most one process per block and per CPU (a forked pool
    starts all its processes at once), or in-process when that is one."""
    jobs = [(spec, strategy, count, seed, block_id) for block_id, count in _blocks(trials)]
    workers = min(workers, len(jobs), os.cpu_count() or 1)
    hist: Counter[int] = Counter()
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            for counts in pool.map(_score_block_job, jobs):
                hist.update(counts)
    else:
        for job in jobs:
            hist.update(_score_block_job(job))
    return hist


def estimate_value(
    spec: DeckSpec, strategy: StrategySpec, trials: int, seed: int, workers: int = 1
) -> StatSummary:
    """Simulate ``trials`` games and summarize scores.

    Deterministic in (seed, trials) regardless of ``workers``: blocks own
    disjoint stream indices and histograms merge associatively.
    """
    strategy.resolve(spec)  # so a spec that does not fit fails before any block
    return StatSummary.from_counter(_score_histogram(spec, strategy, trials, seed, workers))


# ===== waiting times and chain statistic =====


def estimate_repeat_time(spec: DeckSpec, j: int, trials: int, seed: int) -> StatSummary:
    """Simulated distribution of the draw count at which some type first
    hits j occurrences."""
    if not 1 <= j <= spec.multiplicity:
        raise ValueError(f"j must lie in 1..{spec.multiplicity}")
    import numpy as np

    def first_repeats(decks: np.ndarray) -> list[int]:
        rows = np.arange(decks.shape[0])
        seen = np.zeros((decks.shape[0], spec.num_types + 1), dtype=np.int32)
        first = np.zeros(decks.shape[0], dtype=np.int64)
        # every type holds m >= j cards, so each row reaches j by the last column
        for t in range(decks.shape[1]):
            cards = decks[:, t]
            seen[rows, cards] += 1
            first[(first == 0) & (seen[rows, cards] == j)] = t + 1
            if first.all():
                break
        return first.tolist()

    hist: Counter[int] = Counter()
    for first in map(first_repeats, deck_chunks(_deck_word(spec), _blocks(trials), seed)):
        hist.update(first)
    return StatSummary.from_counter(hist)


def exact_distinct_prefix_probability(spec: DeckSpec, t: int) -> Fraction:
    """P[first t cards are t distinct types], the exact survival of the
    first repeat time: product over k < t of m(n-k) / (mn-k)."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    m, n, mn = spec.multiplicity, spec.num_types, spec.total
    if t > mn:
        return Fraction(0)
    out = Fraction(1)
    for k in range(1, t):
        out *= Fraction(m * (n - k), mn - k)
        if out == 0:
            break
    return out


def estimate_chain(spec: DeckSpec, trials: int, seed: int) -> StatSummary:
    """Simulated distribution of the initial increasing-chain length.

    The ladder guesses 1, 2, ..., n in turn, each until it hits, then keeps
    guessing n: its score is the chain length plus the n's after the chain
    completes, so the chain length is the ladder's score capped at n.
    """
    scores = _score_histogram(spec, StrategySpec(StrategyId.PARTIAL_LADDER), trials, seed)
    hist: Counter[int] = Counter()
    for score, count in scores.items():
        hist[min(score, spec.num_types)] += count
    return StatSummary.from_counter(hist)
