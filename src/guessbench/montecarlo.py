"""Seeded simulation of guessing games at scales enumeration cannot reach.

Trials are partitioned into fixed-size blocks; block b draws its decks from
the counter-based stream (seed, 0, b) and any strategy randomness from
(strategy seed, 1, b).  Every deck draw in the package goes through
``deck_chunks``.  Results are merged as integer score histograms, so
estimates are bit-identical for a given (seed, trials) no matter how many
workers run the blocks.

Common strategies have vectorized kernels; the generic path, ``core.play``
on each deck, is the semantic reference and consumes the streams
identically, so both paths yield the same trial-by-trial scores (tested, not
assumed).
"""

from __future__ import annotations

import math
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import DeckSpec, FeedbackModel, play
from .strategies import StrategyId, StrategySpec, _resolve_model, make_strategy

RNG_FAMILY = "philox4x64"
BLOCK_SIZE = 4096
_CHUNK = 512
_DECK_TAG = 0
_STRATEGY_TAG = 1


def rng_stream(seed: int, *path: int) -> np.random.Generator:
    """Independent reproducible stream for (seed, path)."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, *path])))


# ===== score summaries =====


@dataclass(frozen=True)
class StatSummary:
    """Integer score histogram plus the moments derived from it."""

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


# ===== vectorized per-block kernels =====
# Each takes the deck spec, the strategy's resolved parameters
# (StrategySpec.resolve), one chunk of decks and the strategy's stream.


def _kernel_greedy(maximize: bool):
    def kernel(spec: DeckSpec, params: dict, decks: np.ndarray, strat_rng) -> np.ndarray:
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
    pattern = np.array([t % spec.num_types + 1 for t in range(spec.total)], dtype=np.int16)
    return (decks == pattern).sum(axis=1)


def _kernel_uniform(spec, params, decks, strat_rng):
    guesses = strat_rng.integers(1, spec.num_types + 1, size=decks.shape)
    return (guesses == decks).sum(axis=1)


def _kernel_two_phase(spec, params, decks, strat_rng):
    phase, threshold = params["phase"], params["threshold"]
    early_hits = (decks[:, :phase] == 1).sum(axis=1)
    switched = early_hits >= threshold
    late_twos = (decks[:, phase:] == 2).sum(axis=1)
    return np.where(switched, early_hits + late_twos, spec.multiplicity)


def _kernel_ladder(spec, params, decks, strat_rng):
    n = spec.num_types
    target = np.ones(decks.shape[0], dtype=np.int64)
    scores = np.zeros(decks.shape[0], dtype=np.int64)
    for t in range(decks.shape[1]):
        hit = decks[:, t] == np.minimum(target, n)
        scores += hit
        target += hit & (target <= n)
    return scores


_KERNELS = {
    StrategyId.COMPLETE_GREEDY_MAX: _kernel_greedy(True),
    StrategyId.COMPLETE_GREEDY_MIN: _kernel_greedy(False),
    StrategyId.NOFB_CONSTANT: _kernel_constant,
    StrategyId.NOFB_CYCLIC: _kernel_cyclic,
    StrategyId.PARTIAL_UNIFORM: _kernel_uniform,
    StrategyId.PARTIAL_TWO_PHASE: _kernel_two_phase,
    StrategyId.PARTIAL_LADDER: _kernel_ladder,
}


def _blocks(trials: int, size: int = BLOCK_SIZE) -> list[tuple[int, int]]:
    """(block id, rows) pairs that split ``trials`` into blocks of ``size``."""
    return [(b, min(size, trials - b * size)) for b in range((trials + size - 1) // size)]


def deck_chunks(
    word: np.ndarray, blocks: list[tuple[int, int]], seed: int, tag: int = _DECK_TAG
) -> Iterator[np.ndarray]:
    """Shuffles of ``word`` for each (block id, rows) pair of ``blocks``.

    Block b draws its shuffles in order from ``rng_stream(seed, tag, b)``;
    they come out stacked in arrays of at most ``_CHUNK`` rows.
    """
    for block_id, count in blocks:
        rng = rng_stream(seed, tag, block_id)
        for done in range(0, count, _CHUNK):
            step = min(_CHUNK, count - done)
            yield np.stack([rng.permutation(word) for _ in range(step)])


def _block_scores(
    spec: DeckSpec,
    model: FeedbackModel,
    sspec: StrategySpec,
    count: int,
    seed: int,
    block_id: int,
) -> np.ndarray:
    params = sspec.resolve(spec)
    strat_rng = None if sspec.deterministic else rng_stream(params["seed"], _STRATEGY_TAG, block_id)
    word = np.array(spec.canonical_word(), dtype=np.int16)
    chunks = deck_chunks(word, [(block_id, count)], seed)
    kernel = _KERNELS.get(sspec.id)
    if kernel is not None and model is sspec.native_model:
        return np.concatenate([kernel(spec, params, decks, strat_rng) for decks in chunks])
    return np.array(
        [
            play(make_strategy(sspec, spec, strat_rng), model, deck)
            for decks in chunks
            for deck in decks.tolist()
        ],
        dtype=np.int64,
    )


def _score_block_job(payload) -> list[tuple[int, int]]:
    m, n, model_value, sspec, count, seed, block_id = payload
    scores = _block_scores(
        DeckSpec(m, n), FeedbackModel(model_value), sspec, count, seed, block_id
    )
    return sorted(Counter(scores.tolist()).items())


def estimate_value(
    spec: DeckSpec,
    model: FeedbackModel | None,
    strategy: StrategySpec,
    trials: int,
    seed: int,
    workers: int = 1,
) -> StatSummary:
    """Simulate ``trials`` games and summarize scores.

    Deterministic in (seed, trials) regardless of ``workers``: blocks own
    disjoint stream indices and histograms merge associatively.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    model = _resolve_model(strategy, model)
    jobs = [
        (spec.multiplicity, spec.num_types, model.value, strategy, count, seed, block_id)
        for block_id, count in _blocks(trials)
    ]
    hist: Counter[int] = Counter()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for items in pool.map(_score_block_job, jobs):
                hist.update(dict(items))
    else:
        for job in jobs:
            hist.update(dict(_score_block_job(job)))
    return StatSummary.from_counter(hist)


# ===== waiting times and chain statistic =====


@dataclass(frozen=True)
class RepeatTimeEstimate:
    """Empirical distribution of the first time a type reaches j copies."""

    spec: DeckSpec
    j: int
    trials: int
    histogram: tuple[tuple[int, int], ...]

    def survival(self, t: int) -> float:
        return sum(c for v, c in self.histogram if v > t) / self.trials

    def survival_se(self, t: int) -> float:
        p = self.survival(t)
        return math.sqrt(p * (1 - p) / self.trials)


def estimate_repeat_time(spec: DeckSpec, j: int, trials: int, seed: int) -> RepeatTimeEstimate:
    """Simulate the draw count at which some type first hits j occurrences."""
    if not 1 <= j <= spec.multiplicity:
        raise ValueError(f"j must lie in 1..{spec.multiplicity}")
    if trials < 1:
        raise ValueError("trials must be positive")
    word = np.array(spec.canonical_word(), dtype=np.int16)
    hist: Counter[int] = Counter()
    for decks in deck_chunks(word, _blocks(trials), seed):
        for deck in decks.tolist():
            seen = [0] * spec.num_types
            for t, card in enumerate(deck, start=1):
                seen[card - 1] += 1
                if seen[card - 1] == j:
                    hist[t] += 1
                    break
    return RepeatTimeEstimate(spec, j, trials, tuple(sorted(hist.items())))


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
    """Simulated distribution of the initial increasing-chain length."""
    if trials < 1:
        raise ValueError("trials must be positive")
    word = np.array(spec.canonical_word(), dtype=np.int16)
    hist: Counter[int] = Counter()
    for decks in deck_chunks(word, _blocks(trials), seed):
        target = np.ones(decks.shape[0], dtype=np.int64)
        for t in range(spec.total):
            # comparison against the raw target self-limits at n + 1
            target += decks[:, t] == target
        hist.update((target - 1).tolist())
    return StatSummary.from_counter(hist)
