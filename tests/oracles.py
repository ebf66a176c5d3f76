"""Naive reference implementations the tests compare the library against.

Most of this file enumerates and filters and shares no code with the
package; size guards keep those inputs tiny on purpose.  ``replayed_decks``
draws seeded shuffles one at a time from ``rng_stream``, in the full or the
reduced layout, which the chunked deck sampler must reproduce.  The recursive
value DPs are the package's earlier Fraction-valued solvers,
kept as references for the integer-weighted ones.  They import only the
arrangement counter ``_count``, ``DeckSpec`` and one result record, and the
partial one returns its own record with a policy map.

The package's earlier per-game strategy classes, its feedback function
``observe`` and its play loop ``play`` are the references for the
strategy kernels: ``make_oracle`` builds one strategy instance per game
from a ``StrategySpec``, and the tests require the kernels to give the
same score on every deck.  ``PartialMle`` picks its best pairs from
``_count`` of each reduced state, apart from the package's caches; the
Fraction-valued partial-mle posterior and ``ReferencePartialMle`` check it
independently.
The package's earlier Fraction-valued pointwise sweep and hypergeometric
tail are kept as references for the integer ones; the sweep reads the
package's ``last_card_fraction`` over the ordered constraint grid, and the
tail sums ``brute_hypergeom``.  ``ordered_verify_pointwise``, the earlier
integer sweep over that grid, is the reference for the package's walk over
pair multisets, and ``iter_shuffles``, the earlier next-permutation
enumerator, the reference for its shuffle blocks.

The list-polynomial inclusion-exclusion counter (convolution and long
division of signed coefficient lists) is the reference for the packed-integer
one in ``combinatorics``.

``render_csv`` and ``render_json_lines`` are the package's earlier
whole-report renderers, the byte reference for the block-wise
``reporting.emit_table``.  They read only ``format_exact`` and
``format_decimal``.

The last section holds references that once lived in the package: a
recursive arrangement enumerator, ``swept_policy``, which reads each
state's optimal pairs off the package's sweep, a replayer of such policies,
the expectimax search over feedback histories (an independent route to the
partial-feedback optimum) and ``brute_value``, which scores any strategy
factory over every shuffle with ``play``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, NamedTuple

import numpy as np

from guessbench import exact
from guessbench.combinatorics import (
    ConstraintState,
    _count,
    last_card_fraction,
    shuffle_count,
)
from guessbench.core import DeckSpec, FeedbackModel
from guessbench.exact import (
    PersistenceViolation,
    PointwiseReport,
    Sense,
)
from guessbench.montecarlo import rng_stream
from guessbench.reporting import format_decimal, format_exact
from guessbench.strategies import StrategyId, StrategySpec

ORACLE_CARD_LIMIT = 9


def all_shuffles(m: int, n: int) -> list[tuple[int, ...]]:
    """Every word with m copies of each of 1..n, lexicographically sorted."""
    canonical = tuple(t for t in range(1, n + 1) for _ in range(m))
    if len(canonical) > ORACLE_CARD_LIMIT:
        raise ValueError("oracle deck too large")
    return sorted(set(itertools.permutations(canonical)))


def iter_shuffles(spec: DeckSpec) -> Iterator[tuple[int, ...]]:
    """All distinct shuffles in lexicographic order (the package's earlier
    enumerator, the reference for ``exact._shuffle_blocks``).

    Each shuffle after the canonical word is its multiset next permutation:
    raise the rightmost card with a larger card somewhere after it to the
    smallest such card, then sort what follows.
    """
    word = list(spec.canonical_word())
    while True:
        yield tuple(word)
        i = len(word) - 2
        while i >= 0 and word[i] >= word[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(word) - 1
        while word[j] <= word[i]:
            j -= 1
        word[i], word[j] = word[j], word[i]
        word[i + 1 :] = reversed(word[i + 1 :])


def banned_blocks(forbidden: tuple[int, ...]) -> list[int]:
    """Leading-block layout: forbidden[0] slots ban type 1, then type 2, ..."""
    out: list[int] = []
    for t, a in enumerate(forbidden, start=1):
        out.extend([t] * a)
    return out


def satisfying_words(
    remaining: tuple[int, ...], forbidden: tuple[int, ...]
) -> list[tuple[int, ...]]:
    word = [t for t, c in enumerate(remaining, start=1) for _ in range(c)]
    if len(word) > ORACLE_CARD_LIMIT:
        raise ValueError("oracle word too large")
    banned = banned_blocks(forbidden)
    return [
        perm
        for perm in sorted(set(itertools.permutations(word)))
        if all(perm[p] != b for p, b in enumerate(banned))
    ]


def brute_count(remaining: tuple[int, ...], forbidden: tuple[int, ...]) -> int:
    return len(satisfying_words(remaining, forbidden))


def brute_last_card(
    remaining: tuple[int, ...], forbidden: tuple[int, ...]
) -> tuple[Fraction, ...]:
    """Last-letter frequencies among the satisfying words."""
    words = satisfying_words(remaining, forbidden)
    return tuple(
        Fraction(sum(1 for w in words if w[-1] == card), len(words))
        for card in range(1, len(remaining) + 1)
    )


def brute_chain(word: tuple[int, ...]) -> int:
    """Largest p with 1..p at increasing positions, by trying all position picks."""
    best = 0
    p = 1
    while True:
        pools = [[i for i, c in enumerate(word) if c == k] for k in range(1, p + 1)]
        if any(not pool for pool in pools):
            return best
        if not any(
            all(a < b for a, b in zip(combo, combo[1:]))
            for combo in itertools.product(*pools)
        ):
            return best
        best = p
        p += 1


def brute_distinct_prefix(m: int, n: int, t: int) -> Fraction:
    """P[first t cards pairwise distinct] over all shuffles."""
    decks = all_shuffles(m, n)
    hits = sum(1 for deck in decks if len(set(deck[:t])) == min(t, len(deck)))
    return Fraction(hits, len(decks))


def brute_uniform_prefix_hits(m: int, n: int) -> dict[int, Fraction]:
    """Hit-count pmf over the first floor(mn/3) draws when every guess is an
    independent uniform pick from 1..n."""
    cutoff = (m * n) // 3
    decks = all_shuffles(m, n)
    counts: Counter[int] = Counter()
    for deck in decks:
        for guesses in itertools.product(range(1, n + 1), repeat=cutoff):
            counts[sum(g == c for g, c in zip(guesses, deck))] += 1
    total = len(decks) * n**cutoff
    return {k: Fraction(v, total) for k, v in sorted(counts.items())}


def brute_binomial(trials: int, p: Fraction, k: int) -> Fraction:
    """Binomial(trials, p) mass at k, summed over every hit/miss sequence."""
    p = Fraction(p)
    return sum(
        (p ** sum(hits) * (1 - p) ** (trials - sum(hits))
         for hits in itertools.product((0, 1), repeat=trials) if sum(hits) == k),
        Fraction(0),
    )


def brute_hypergeom(population: int, good: int, draws: int, k: int) -> Fraction:
    if k < 0 or k > draws or k > good or draws - k > population - good:
        return Fraction(0)
    return Fraction(
        math.comb(good, k) * math.comb(population - good, draws - k),
        math.comb(population, draws),
    )


def replayed_decks(
    word, trials: int, seed: int, tag: int, block_size: int, reads: int | None = None
) -> list[tuple[int, ...]]:
    """Trial t's deck is row t % block_size of block t // block_size, and
    block b draws its rows in order, one permutation each, from
    rng_stream(seed, tag, b).

    With ``reads``, each row instead draws ``reads`` distinct positions in
    order and puts the first ``reads`` cards of ``word`` there; the rest of
    ``word`` fills the other positions in order, so every deck is a full
    shuffle that agrees with the reduced row on those cards.
    """
    decks = []
    for block in range(-(-trials // block_size)):
        rng = rng_stream(seed, tag, block)
        for _ in range(min(block_size, trials - block * block_size)):
            if reads is None:
                decks.append(tuple(int(c) for c in rng.permutation(word)))
                continue
            positions = rng.choice(len(word), size=reads, replace=False).tolist()
            others = sorted(set(range(len(word))) - set(positions))
            deck = [0] * len(word)
            for position, card in zip(positions + others, word):
                deck[position] = int(card)
            decks.append(tuple(deck))
    return decks


def small_constraint_states(max_total: int, max_types: int):
    """All (remaining, forbidden) pairs with sum(forbidden) <= sum(remaining),
    including invalid-for-the-public-type combinations; raw counting ground."""
    for ntypes in range(1, max_types + 1):
        for remaining in itertools.product(range(max_total + 1), repeat=ntypes):
            total = sum(remaining)
            if not 0 < total <= max_total:
                continue
            for forbidden in itertools.product(range(total + 1), repeat=ntypes):
                if sum(forbidden) <= total:
                    yield remaining, forbidden


# ===== list-polynomial inclusion-exclusion (reference for combinatorics.py) =====
# The package's earlier counter: each type's factor F(m, a) with
# [z^k] = (-1)^k C(a, k) m!/(m-k)! as a list of signed coefficients,
# multiplied by convolution and divided by long division.


def _signed_factor(m_i: int, a_i: int) -> list[int]:
    return [(-1) ** k * math.comb(a_i, k) * math.perm(m_i, k) for k in range(min(a_i, m_i) + 1)]


def _convolve(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _divide(p: list[int], f: list[int]) -> list[int]:
    """p / f for an f with constant term 1 that divides p exactly."""
    rest = list(p)
    size = len(p) - len(f) + 1
    for k in range(size):
        coeff = rest[k]
        if coeff:
            for j in range(1, len(f)):
                rest[k + j] -= coeff * f[j]
    if any(rest[size:]):
        raise AssertionError("inexact polynomial division")
    return rest[:size]


def _list_product(remaining: tuple[int, ...], forbidden: tuple[int, ...]) -> list[int]:
    poly = [1]
    for m_i, a_i in zip(remaining, forbidden):
        poly = _convolve(poly, _signed_factor(m_i, a_i))
    return poly


def _list_arrangements(poly: list[int], total: int, den: int) -> int:
    num = sum(c * math.factorial(total - k) for k, c in enumerate(poly))
    count, rem = divmod(num, den)
    assert rem == 0 and count >= 0
    return count


def reference_polynomials(pairs: tuple[tuple[int, int], ...]) -> dict:
    """The state's product P and, for each distinct pair (m_i, a_i) with
    m_i > 0, the reduced state's product P / F(m_i, a_i) * F(m_i - 1, a_i),
    keyed by None and by pair."""
    remaining, forbidden = zip(*pairs)
    product = _list_product(remaining, forbidden)
    polys = {None: product}
    for m_i, a_i in pairs:
        if m_i and (m_i, a_i) not in polys:
            quotient = _divide(product, _signed_factor(m_i, a_i))
            polys[m_i, a_i] = _convolve(quotient, _signed_factor(m_i - 1, a_i))
    return polys


def reference_count(remaining: tuple[int, ...], forbidden: tuple[int, ...]) -> int:
    den = math.prod(math.factorial(m_i) for m_i in remaining)
    return _list_arrangements(_list_product(remaining, forbidden), sum(remaining), den)


def reference_next_card_counts(pairs: tuple[tuple[int, int], ...]) -> dict[tuple[int, int], int]:
    remaining, _ = zip(*pairs)
    total = sum(remaining)
    den = math.prod(math.factorial(m_i) for m_i in remaining)
    polys = reference_polynomials(pairs)
    return {
        (m_i, a_i): _list_arrangements(polys[m_i, a_i], total - 1, den // m_i) if m_i else 0
        for m_i, a_i in pairs
    }


# ===== recursive Fraction-valued DPs (references for exact.py) =====

PairState = tuple[tuple[int, int], ...]


def _check_sense(sense: str) -> Callable:
    if sense == "max":
        return max
    if sense == "min":
        return min
    raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def recursive_optimal_complete(spec: DeckSpec, sense: str = "max") -> Fraction:
    """Value of best (or worst) play under complete feedback.

    The drawn card is revealed either way, so a state is just the multiset of
    remaining counts; the per-turn optimum is the largest (smallest) count
    over the deck size, and the transition law is guess-independent.
    """
    _check_sense(sense)
    maximize = sense == "max"
    memo: dict[tuple[int, ...], Fraction] = {}

    def value(counts: tuple[int, ...]) -> Fraction:
        cached = memo.get(counts)
        if cached is not None:
            return cached
        size = sum(counts)
        if size == 0:
            return Fraction(0)
        best = Fraction(counts[0] if maximize else counts[-1], size)
        acc = best
        for v, mult in Counter(counts).items():
            if v == 0:
                continue
            idx = counts.index(v)
            succ = tuple(
                sorted(counts[:idx] + (v - 1,) + counts[idx + 1 :], reverse=True)
            )
            acc += Fraction(mult * v, size) * value(succ)
        memo[counts] = acc
        return acc

    start = tuple([spec.multiplicity] * spec.num_types)
    return value(start)


def _replace_pair(state: PairState, idx: int, pair: tuple[int, int]) -> PairState:
    return tuple(sorted(state[:idx] + (pair,) + state[idx + 1 :]))


def _state_vectors(state: PairState) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(p[0] for p in state), tuple(p[1] for p in state)


class RecursivePartialSolution(NamedTuple):
    value: Fraction
    values: dict[PairState, Fraction]
    policy: dict[PairState, tuple[tuple[int, int], ...]]


def recursive_solve_partial(
    spec: DeckSpec,
    sense: str = "max",
    state_limit: int = 400_000,
) -> RecursivePartialSolution:
    """Backward induction over canonical (remaining, wrong-guess) pair multisets.

    A guess of a type with pair (m_i, a_i) is correct with the exact
    last-card fraction f; correct play removes a copy, incorrect play adds a
    banned position for that type.  Terminal states have as many banned
    positions as remaining copies: no draws are left.  Guessing an exhausted
    type is legal with f = 0, which minimal play exploits.
    """
    choose = _check_sense(sense)
    values: dict[PairState, Fraction] = {}
    policy: dict[PairState, tuple[tuple[int, int], ...]] = {}

    def value(state: PairState) -> Fraction:
        cached = values.get(state)
        if cached is not None:
            return cached
        if len(values) >= state_limit:
            raise RuntimeError(
                f"more than {state_limit} partial states; raise state_limit if intended"
            )
        m_sum = sum(p[0] for p in state)
        a_sum = sum(p[1] for p in state)
        if a_sum == m_sum:
            values[state] = Fraction(0)
            return values[state]
        denom = _count(*_state_vectors(state))
        best: Fraction | None = None
        best_actions: list[tuple[int, int]] = []
        seen: set[tuple[int, int]] = set()
        for idx, pair in enumerate(state):
            if pair in seen:
                continue
            seen.add(pair)
            mi, ai = pair
            if mi == 0:
                frac = Fraction(0)
            else:
                reduced = _replace_pair(state, idx, (mi - 1, ai))
                frac = Fraction(_count(*_state_vectors(reduced)), denom)
            act = Fraction(0)
            if frac:
                act += frac * (1 + value(_replace_pair(state, idx, (mi - 1, ai))))
            if frac != 1:
                act += (1 - frac) * value(_replace_pair(state, idx, (mi, ai + 1)))
            if best is None or choose(best, act) != best:
                best, best_actions = act, [pair]
            elif act == best and pair not in best_actions:
                best_actions.append(pair)
        values[state] = best
        policy[state] = tuple(best_actions)
        return best

    root: PairState = tuple((spec.multiplicity, 0) for _ in range(spec.num_types))
    top = value(root)
    return RecursivePartialSolution(top, values, policy)


def terminal_states(spec: DeckSpec) -> list[PairState]:
    """Every terminal pair multiset of ``spec`` with arrangements, listed
    directly rather than reached by play: n sorted pairs (m_i, a_i) with
    m_i <= m and sum(a) = sum(m) = M.  By Hall's condition such a state has
    arrangements iff m_i + a_i <= M for every type."""
    m, n = spec.multiplicity, spec.num_types

    def banned(ms: tuple[int, ...], i: int, low: int, left: int):
        # a_i, ..., a_{n-1} summing to ``left``, a_i >= low when m_i = m_{i-1}
        cap = sum(ms) - ms[i]
        if i == n - 1:
            if low <= left <= cap:
                yield (left,)
            return
        for ai in range(low, min(left, cap) + 1):
            nxt = ai if ms[i + 1] == ms[i] else 0
            for rest in banned(ms, i + 1, nxt, left - ai):
                yield (ai,) + rest

    return [
        tuple(zip(ms, a_s))
        for ms in itertools.combinations_with_replacement(range(m + 1), n)
        for a_s in banned(ms, 0, 0, sum(ms))
    ]


def recursive_probe_persistence(
    spec: DeckSpec, state_limit: int = 400_000
) -> list[PersistenceViolation]:
    """Search optimal max-sense play for non-persistent guesses.

    Walks every state reachable under some optimal action and checks that
    a type guessed optimally and incorrectly stays in the successor's optimal
    action set.  An empty list means persistence holds for this spec.
    """
    solution = recursive_solve_partial(spec, "max", state_limit=state_limit)
    violations: list[PersistenceViolation] = []
    seen: set[PairState] = set()
    stack: list[PairState] = [((spec.multiplicity, 0),) * spec.num_types]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        if sum(p[1] for p in state) == sum(p[0] for p in state):
            continue
        denom = _count(*_state_vectors(state))
        for pair in solution.policy[state]:
            mi, ai = pair
            idx = state.index(pair)
            if mi == 0:
                frac = Fraction(0)
            else:
                reduced = _replace_pair(state, idx, (mi - 1, ai))
                frac = Fraction(_count(*_state_vectors(reduced)), denom)
            if frac:
                stack.append(_replace_pair(state, idx, (mi - 1, ai)))
            if frac != 1:
                successor = _replace_pair(state, idx, (mi, ai + 1))
                terminal = sum(p[1] for p in successor) == sum(p[0] for p in successor)
                if not terminal and (mi, ai + 1) not in solution.policy[successor]:
                    violations.append(
                        PersistenceViolation(
                            state, pair, successor, solution.policy[successor]
                        )
                    )
                stack.append(successor)
    return violations


# ===== per-game strategies and the play loop (references for the kernels) =====
# The package's earlier per-game strategy classes and play loop, moved here
# unchanged; make_oracle builds one for a game as make_strategy once did.

Observation = None | bool | int


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


class PartialMle(Strategy):
    """Guess a most (or least) likely next card under the exact posterior.

    Tracks, per type, the copies still to come and the wrong guesses of it.
    Probabilities share the denominator N(s), so comparing the integer
    counts N(s - e_i), each the ``_count`` of the reduced state, suffices;
    ties go to the lowest type index.  The pairs attaining the optimum are
    kept per canonical state in the instance, apart from the package's
    caches.
    """

    def __init__(self, deck: DeckSpec, maximize: bool):
        super().__init__(deck)
        self.maximize = maximize
        self.remaining = [deck.multiplicity] * deck.num_types
        self.wrong = [0] * deck.num_types
        self._last_guess: int | None = None
        self._best: dict[tuple[tuple[int, int], ...], frozenset[tuple[int, int]]] = {}

    def _best_pairs(self, state: tuple[tuple[int, int], ...]) -> frozenset[tuple[int, int]]:
        remaining, forbidden = zip(*state)
        by_pair = {}
        for i, (m_i, a_i) in enumerate(state):
            if (m_i, a_i) not in by_pair:
                reduced = remaining[:i] + (m_i - 1,) + remaining[i + 1 :]
                by_pair[m_i, a_i] = _count(reduced, forbidden) if m_i else 0
        top = (max if self.maximize else min)(by_pair.values())
        return frozenset(p for p, c in by_pair.items() if c == top)

    def next_guess(self) -> int:
        pairs = list(zip(self.remaining, self.wrong))
        state = tuple(sorted(pairs))
        best = self._best.get(state)
        if best is None:
            best = self._best[state] = self._best_pairs(state)
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


_ORACLES = {
    StrategyId.COMPLETE_GREEDY_MAX: partial(CompleteGreedy, maximize=True),
    StrategyId.COMPLETE_GREEDY_MIN: partial(CompleteGreedy, maximize=False),
    StrategyId.NOFB_CONSTANT: lambda deck, card: FixedSequence(deck, itertools.repeat(card)),
    StrategyId.NOFB_CYCLIC:
        lambda deck: FixedSequence(deck, itertools.cycle(range(1, deck.num_types + 1))),
    StrategyId.PARTIAL_MLE: partial(PartialMle, maximize=True),
    StrategyId.PARTIAL_MIN_MLE: partial(PartialMle, maximize=False),
    StrategyId.PARTIAL_UNIFORM: _uniform,
    StrategyId.PARTIAL_TWO_PHASE: PartialTwoPhase,
    StrategyId.PARTIAL_LADDER: PartialLadder,
}


def make_oracle(
    spec: StrategySpec, deck: DeckSpec, rng: np.random.Generator | None = None
) -> Strategy:
    """The reference strategy for one game, with the parameters the package
    resolves on ``deck``.  Randomized strategies draw from ``rng`` when
    given, else from a fresh stream seeded by ``spec.seed``."""
    params = spec.resolve(deck)
    if not spec.deterministic:
        params["rng"] = rng
    return _ORACLES[spec.id](deck, **params)


# ===== Fraction-valued partial-mle posterior (reference for strategies.py) =====

_REFERENCE_CACHE: dict[tuple[tuple[int, int], ...], dict[tuple[int, int], Fraction]] = {}


def reference_posterior_by_pair(remaining: list[int], wrong: list[int]) -> list[Fraction]:
    """Next-card probabilities per type, cached on the canonical pair multiset.

    Types with equal (remaining, wrong) pairs are exchangeable, so one cache
    entry serves every relabeling.
    """
    pairs = tuple(sorted(zip(remaining, wrong)))
    by_pair = _REFERENCE_CACHE.get(pairs)
    if by_pair is None:
        denom = _count(tuple(p[0] for p in pairs), tuple(p[1] for p in pairs))
        by_pair = {}
        for idx, pair in enumerate(pairs):
            if pair in by_pair:
                continue
            if pair[0] == 0:
                by_pair[pair] = Fraction(0)
                continue
            reduced = tuple(
                (p[0] - 1, p[1]) if j == idx else p for j, p in enumerate(pairs)
            )
            by_pair[pair] = Fraction(
                _count(tuple(p[0] for p in reduced), tuple(p[1] for p in reduced)), denom
            )
        _REFERENCE_CACHE[pairs] = by_pair
    return [by_pair[pair] for pair in zip(remaining, wrong)]


class ReferencePartialMle(PartialMle):
    """Guess a most (or least) likely next card under the exact posterior."""

    def next_guess(self) -> int:
        dist = reference_posterior_by_pair(self.remaining, self.wrong)
        pick = max if self.maximize else min
        best = pick(dist)
        guess = dist.index(best) + 1
        self._last_guess = guess
        return guess


# ===== ordered verification sweeps (references for exact.verify_pointwise) =====


def _grid_vectors(
    max_total: int, max_types: int
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(remaining, forbidden) of every grid state, by type count and then
    lexicographically; each pair is a valid ConstraintState."""
    for ntypes in range(1, max_types + 1):
        for remaining in itertools.product(range(max_total + 1), repeat=ntypes):
            total = sum(remaining)
            if not 0 < total <= max_total:
                continue
            caps = [range(total - m + 1) for m in remaining]
            for forbidden in itertools.product(*caps):
                if sum(forbidden) < total:
                    yield remaining, forbidden


def iter_constraint_grid(max_total: int, max_types: int = 4) -> Iterator[ConstraintState]:
    """Every constraint state with at most ``max_types`` types and total
    ``max_total``, in the order ``verify_pointwise`` walks them."""
    for remaining, forbidden in _grid_vectors(max_total, max_types):
        yield ConstraintState(remaining, forbidden)


def reference_verify_pointwise(
    max_total: int, max_types: int = 4, witness_cap: int = 64
) -> PointwiseReport:
    """Check f_i <= m_i / (total - a_i) across the whole grid, exactly.

    Reports the largest ratio of the two sides and the states attaining it;
    the claim holds iff that maximum is at most one.
    """
    best = Fraction(0)
    witnesses: list[tuple[ConstraintState, int]] = []
    witness_count = 0
    checked = 0
    for state in iter_constraint_grid(max_total, max_types):
        checked += 1
        total = state.total
        for card in range(1, state.num_types + 1):
            m_i = state.remaining[card - 1]
            if m_i == 0:
                continue
            frac = last_card_fraction(state, card)
            ratio = frac * Fraction(total - state.forbidden[card - 1], m_i)
            if ratio > best:
                best = ratio
                witnesses = [(state, card)]
                witness_count = 1
            elif ratio == best:
                witness_count += 1
                if len(witnesses) < witness_cap:
                    witnesses.append((state, card))
    return PointwiseReport(best, tuple(witnesses), witness_count, checked)


def ordered_verify_pointwise(
    max_total: int, max_types: int = 4, witness_cap: int = 64
) -> PointwiseReport:
    """The package's earlier integer sweep: every grid state in grid order,
    each canonical pair multiset's ratios computed once per call by
    ``exact._pointwise_ratios`` (looked up at call time, so a test can patch
    it for both sweeps)."""
    best_num, best_den = 0, 1
    witnesses: list[tuple[ConstraintState, int]] = []
    witness_count = 0
    checked = 0
    ratios_by_key: dict[PairState, dict[tuple[int, int], tuple[int, int]]] = {}
    for remaining, forbidden in _grid_vectors(max_total, max_types):
        checked += 1
        pairs = tuple(zip(remaining, forbidden))
        key = tuple(sorted(pairs))
        ratios = ratios_by_key.get(key)
        if ratios is None:
            ratios = ratios_by_key[key] = exact._pointwise_ratios(key)
        for card, pair in enumerate(pairs, start=1):
            if not pair[0]:
                continue
            num, den = ratios[pair]
            lhs, rhs = num * best_den, best_num * den
            if lhs > rhs:
                best_num, best_den = num, den
                witnesses = [(ConstraintState(remaining, forbidden), card)]
                witness_count = 1
            elif lhs == rhs:
                witness_count += 1
                if len(witnesses) < witness_cap:
                    witnesses.append((ConstraintState(remaining, forbidden), card))
    return PointwiseReport(Fraction(best_num, best_den), tuple(witnesses), witness_count, checked)


def reference_hyp_single_tail_exact(population: int, good: int, draws: int, lam: float) -> Fraction:
    """Exact P[S_draws > (1+lam) * draws * good / population]."""
    threshold = (1 + Fraction(lam)) * draws * good / population
    k_min = math.floor(threshold) + 1
    return sum(
        (brute_hypergeom(population, good, draws, k) for k in range(k_min, min(draws, good) + 1)),
        Fraction(0),
    )


# ===== whole-report renderers (references for reporting.emit_table) =====


def _reference_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Fraction):
        return format_exact(value)
    if isinstance(value, float):
        return format_decimal(value)
    if isinstance(value, (list, tuple, dict)):
        return json.dumps(value, separators=(",", ":"))
    return str(value)


def _reference_json(value):
    if isinstance(value, Fraction):
        return format_exact(value)
    if isinstance(value, tuple):
        return [_reference_json(v) for v in value]
    if isinstance(value, list):
        return [_reference_json(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _reference_json(v) for k, v in value.items()}
    return value


def _reference_columns(rows: list[dict]) -> list[str]:
    if not rows:
        raise ValueError("no rows to emit")
    columns = list(rows[0])
    for index, row in enumerate(rows):
        if list(row) != columns:
            raise ValueError(f"row {index} has columns {list(row)}, expected {columns}")
    return columns


def render_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_reference_columns(rows))
    for row in rows:
        writer.writerow([_reference_cell(value) for value in row.values()])
    return buf.getvalue()


def render_json_lines(rows: list[dict]) -> str:
    _reference_columns(rows)
    out = [json.dumps(_reference_json(row), separators=(",", ":")) for row in rows]
    return "\n".join(out) + "\n"


# ===== search and replay references =====


def iter_arrangements(state: ConstraintState, max_total: int = 10) -> Iterator[tuple[int, ...]]:
    """Yield every satisfying word in lexicographic order.

    Guarded by ``max_total`` since output size is factorial; raise it
    deliberately for bigger sweeps.
    """
    if state.total > max_total:
        raise ValueError(f"total {state.total} exceeds enumeration guard {max_total}")
    banned: list[int] = []
    for t, a_i in enumerate(state.forbidden, start=1):
        banned.extend([t] * a_i)
    total = state.total
    counts = list(state.remaining)
    word: list[int] = []

    def rec(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == total:
            yield tuple(word)
            return
        ban = banned[pos] if pos < len(banned) else 0
        for t in range(1, len(counts) + 1):
            if counts[t - 1] and t != ban:
                counts[t - 1] -= 1
                word.append(t)
                yield from rec(pos + 1)
                word.pop()
                counts[t - 1] += 1

    return rec(0)


def swept_policy(spec: DeckSpec, sense: Sense = "max") -> dict[PairState, tuple[tuple[int, int], ...]]:
    """Each non-terminal state's optimal pairs, in code order, as the
    package's sweep gives them: ``exact._optimal_guesses`` over every level
    of ``exact._all_weights``."""
    sweep = exact._sweep_down(spec, exact.DEFAULT_STATE_LIMIT)
    weights = exact._all_weights(sweep, sense)
    return {
        exact._pairs(state, sweep.radix): tuple(
            pair for pair, _, _ in exact._optimal_guesses(sweep, weights, sense, level, rank)
        )
        for level in range(len(sweep.hits))
        for rank, state in enumerate(sweep.states(level))
    }


class PolicyPlayer:
    """Replays a solved partial-feedback policy against concrete decks.

    Tracks each concrete type's (remaining, wrong-guess) pair, looks up the
    canonical multiset in the policy, and maps the chosen pair back to the
    lowest matching type index.
    """

    model = FeedbackModel.PARTIAL

    def __init__(self, spec: DeckSpec, policy: dict[PairState, tuple[tuple[int, int], ...]]):
        self._policy = policy
        self._pairs = [[spec.multiplicity, 0] for _ in range(spec.num_types)]
        self._last = 0

    def next_guess(self) -> int:
        state = tuple(sorted((m, a) for m, a in self._pairs))
        pair = min(self._policy[state])
        for i, (m, a) in enumerate(self._pairs):
            if (m, a) == pair:
                self._last = i + 1
                return self._last
        raise RuntimeError("optimal action matches no concrete type")

    def observe(self, obs) -> None:
        if obs:
            self._pairs[self._last - 1][0] -= 1
        else:
            self._pairs[self._last - 1][1] += 1


def expectimax_value(spec: DeckSpec, sense: Sense = "max", limit: int = 10**4) -> Fraction:
    """Reference value by exhaustive search over feedback histories.

    Decks consistent with the history are carried as an explicit multiset of
    their remaining suffixes (packed little-endian into ints).  Nodes merge
    only when these multisets coincide exactly, which is sound regardless of
    any state-reduction theory: identical futures have identical values.
    """
    choose = _check_sense(sense)
    size = shuffle_count(spec)
    if size > limit:
        raise ValueError(f"{size} shuffles exceed the search limit {limit}")
    base = spec.num_types + 1
    weights = [base**t for t in range(spec.total)]
    root: dict[int, int] = {}
    for deck in iter_shuffles(spec):
        root[sum(c * w for c, w in zip(deck, weights))] = 1
    memo: dict[tuple[tuple[int, int], ...], Fraction] = {}

    def value(node: tuple[tuple[int, int], ...]) -> Fraction:
        if node[0][0] == 0:  # empty suffixes: the deck ran out
            return Fraction(0)
        cached = memo.get(node)
        if cached is not None:
            return cached
        total = 0
        shifted: dict[int, int] = {}
        groups: dict[int, dict[int, int]] = {}
        for code, cnt in node:
            total += cnt
            first, rest = code % base, code // base
            grp = groups.setdefault(first, {})
            grp[rest] = grp.get(rest, 0) + cnt
            shifted[rest] = shifted.get(rest, 0) + cnt
        best: Fraction | None = None
        for g in range(1, spec.num_types + 1):
            matched = groups.get(g, {})
            hit = sum(matched.values())
            act = Fraction(0)
            if hit:
                act += Fraction(hit, total) * (1 + value(tuple(sorted(matched.items()))))
            if hit != total:
                missed = {
                    rest: cnt - matched.get(rest, 0)
                    for rest, cnt in shifted.items()
                    if cnt != matched.get(rest, 0)
                }
                act += Fraction(total - hit, total) * value(tuple(sorted(missed.items())))
            best = act if best is None else choose(best, act)
        memo[node] = best
        return best

    return value(tuple(sorted(root.items())))


def brute_value(spec: DeckSpec, factory, model: FeedbackModel) -> Fraction:
    """Mean score of ``factory(spec)``, a fresh strategy per game, over every
    shuffle of ``spec``."""
    decks = all_shuffles(spec.multiplicity, spec.num_types)
    return Fraction(sum(play(factory(spec), model, deck) for deck in decks), len(decks))
