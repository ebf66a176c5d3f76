"""Exact engines: enumeration, backward induction, and verification sweeps.

Values are Fractions throughout; the two value DPs reach them through
integer weights (arrangement count times value) and divide once per state.
``solve_partial`` runs backward induction on canonical tally states; the
tests check it against an expectimax search over the raw tree of
observable histories, which needs no state reduction.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Literal

# last_card_fraction is unused here; perfbench/test_perfbench.py checks that
# tracing rebinds exact.last_card_fraction, and perfbench/ is fixed with the
# benchmark, so the name stays until the benchmark's next change.
from .combinatorics import (  # noqa: F401
    ConstraintState,
    PairState,
    _count,
    last_card_fraction,
    next_card_counts,
    shuffle_count,
)
from .core import DeckSpec, FeedbackModel
from .strategies import StrategyId, StrategySpec, _resolve_model, make_strategy

Sense = Literal["max", "min"]

DEFAULT_ENUM_LIMIT = 10**6
DEFAULT_STATE_LIMIT = 400_000
_SCORE_CHUNK = 4096


def _check_sense(sense: str) -> None:
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def iter_shuffles(spec: DeckSpec) -> Iterator[tuple[int, ...]]:
    """All distinct shuffles in lexicographic order.

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


def enumerable_specs(size_limit: int = 10**4) -> list[DeckSpec]:
    """Deck specs with at most 16 cards whose full shuffle set fits under
    ``size_limit``."""
    out = []
    for m in range(1, 17):
        for n in range(1, 16 // m + 1):
            spec = DeckSpec(m, n)
            if shuffle_count(spec) <= size_limit:
                out.append(spec)
    return out


def _score_pmf(
    spec: DeckSpec, strategy: StrategySpec, prefix: int, limit: int
) -> dict[int, Fraction]:
    """Exact pmf of a deterministic strategy's score over the first
    ``prefix`` cards, by scoring every shuffle with its kernel in int16
    chunks.  The one enumeration behind every exact strategy statistic.

    Randomized specs are rejected; estimate those by simulation.
    """
    if not strategy.deterministic:
        raise ValueError(f"{strategy.label()} is randomized; use montecarlo.estimate_value")
    size = shuffle_count(spec)
    if size > limit:
        raise ValueError(
            f"{size} shuffles exceed the enumeration limit {limit}; raise it or simulate"
        )
    import numpy as np

    score = make_strategy(strategy, spec)
    shuffles = iter_shuffles(spec)
    hist: Counter[int] = Counter()
    while chunk := list(itertools.islice(shuffles, _SCORE_CHUNK)):
        hist.update(score(np.array(chunk, dtype=np.int16)[:, :prefix]).tolist())
    return {k: Fraction(hist[k], size) for k in sorted(hist)}


def exact_value(
    spec: DeckSpec,
    strategy: StrategySpec,
    model: FeedbackModel | None = None,
    limit: int = DEFAULT_ENUM_LIMIT,
) -> Fraction:
    """Expected score of a deterministic strategy over the whole deck."""
    _resolve_model(strategy, model)  # a compatible model never changes a score
    pmf = _score_pmf(spec, strategy, spec.total, limit)
    return sum(k * p for k, p in pmf.items())


# ===== complete feedback: integer weights on count multisets =====


def optimal_complete(spec: DeckSpec, sense: Sense = "max") -> Fraction:
    """Value of best (or worst) play under complete feedback.

    The drawn card is revealed either way, so a state is just the multiset of
    remaining counts c, kept as a non-increasing tuple; the per-turn optimum
    is the largest (smallest) count over the deck size, and the transition
    law is guess-independent.  Each state carries two integers: N(c), the
    number of arrangements of c, and W(c) = N(c) * V(c).  Writing c - e_j for
    c with one card of type j drawn, N(c) = sum_j N(c - e_j) and
    W(c) = N(c - e_best) + sum_j W(c - e_j).  The sweep runs up from the
    empty deck one size at a time, each state adding its share to the states
    one card larger, and keeps only two sizes.
    """
    _check_sense(sense)
    maximize = sense == "max"
    top = spec.multiplicity
    layer: dict[tuple[int, ...], list[int]] = {(0,) * spec.num_types: [1, 0]}
    for _ in range(spec.total):
        grown: dict[tuple[int, ...], list[int]] = {}
        for counts, (arrangements, weight) in layer.items():
            for v in set(counts):
                if v == top:
                    continue
                # raising the first of a run of equal counts keeps the order
                j = counts.index(v)
                up = counts[:j] + (v + 1,) + counts[j + 1 :]
                # drawing any of the types now holding v + 1 leads back here
                mult = counts.count(v + 1) + 1
                acc = grown.get(up)
                if acc is None:
                    acc = grown[up] = [0, 0]
                acc[0] += mult * arrangements
                acc[1] += mult * weight
                if v + 1 == (up[0] if maximize else up[-1]):
                    acc[1] += arrangements
        layer = grown
    ((arrangements, weight),) = layer.values()
    return Fraction(weight, arrangements)


# ===== partial feedback: integer weights on (remaining, wrong) pair multisets =====


@dataclass(frozen=True)
class PartialSolution:
    spec: DeckSpec
    sense: Sense
    value: Fraction
    root: PairState
    values: dict[PairState, Fraction]
    policy: dict[PairState, tuple[tuple[int, int], ...]] | None


_Move = tuple[tuple[int, int], PairState | None, PairState | None]


def _partial_moves(state: PairState) -> list[_Move]:
    """(pair, hit successor, miss successor) for each distinct pair of a state.

    Guessing a type with pair (m_i, a_i) leaves (m_i - 1, a_i) on a hit and
    (m_i, a_i + 1) on a miss.  A successor is None when no arrangement is
    consistent with it, and a terminal state (as many banned positions as
    remaining copies) has no moves.  ``state`` itself must have arrangements.
    By Hall's condition (see ConstraintState) N(m, a) > 0 iff
    sum(a) <= sum(m) and a_j + m_j <= sum(m) for every j.  With M = sum(m)
    here, a miss therefore stays possible iff m_i + a_i < M, and a hit iff
    m_i > 0 and no other type has m_j + a_j = M.  At most one type can be
    that tight, since two would need sum(a) >= M.
    """
    total = sum([p[0] for p in state])
    if sum([p[1] for p in state]) == total:
        return []
    tight = None
    for p in state:
        if p[0] + p[1] == total:
            tight = p
            break
    moves: list[_Move] = []
    prev = None
    for idx, pair in enumerate(state):
        if pair == prev:
            continue
        prev = pair
        mi, ai = pair
        rest = state[:idx] + state[idx + 1 :]
        hit = None
        if mi and (tight is None or tight == pair):
            hit = tuple(sorted(rest + ((mi - 1, ai),)))
        miss = tuple(sorted(rest + ((mi, ai + 1),))) if mi + ai < total else None
        moves.append((pair, hit, miss))
    return moves


def _partial_state_floor(spec: DeckSpec) -> int:
    """A lower bound on the states ``solve_partial`` visits: C(n + 2m, n) - m.

    Every pair multiset built from (0, 0), (k, 0) and (k, 1) with
    1 <= k <= m is reached (hits first, then one miss per type with a wrong
    guess), except the m states where a single type (k, 1) holds all
    remaining cards, which break Hall's condition.
    """
    m, n = spec.multiplicity, spec.num_types
    return math.comb(n + 2 * m, n) - m


def solve_partial(
    spec: DeckSpec,
    sense: Sense = "max",
    track_policy: bool = False,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> PartialSolution:
    """Backward induction over canonical (remaining, wrong-guess) pair multisets.

    A guess of a type with pair (m_i, a_i) is correct with the exact
    last-card fraction f; correct play removes a copy, incorrect play adds a
    banned position for that type.  Terminal states have as many banned
    positions as remaining copies: no draws are left.  Guessing an exhausted
    type is legal with f = 0, which minimal play exploits.

    Each state s carries integers N(s), its number of arrangements, and
    W(s) = N(s) * V(s).  Since f = N(hit) / N(s) and N(s) = N(hit) + N(miss)
    for every guess, W(s) = opt over guesses of N(hit) + W(hit) + W(miss),
    and ``_count`` runs only on terminal states, where W = 0.  Every guess
    draws one card, so the states fall into levels by draws left, and level
    0 holds exactly the terminal states.  One pass down finds each level's
    states and their moves; one pass up solves each level from the one
    below it, so deep decks need no recursion.  Raises RuntimeError once
    more than ``state_limit`` states turn up, or at once when
    ``_partial_state_floor`` already exceeds it.
    """
    _check_sense(sense)
    maximize = sense == "max"
    limit_error = RuntimeError(
        f"more than {state_limit} partial states; raise state_limit if intended"
    )
    if _partial_state_floor(spec) > state_limit:
        raise limit_error
    root: PairState = tuple((spec.multiplicity, 0) for _ in range(spec.num_types))
    # one dict per level from the root down: a state maps to its one shared
    # copy until its level is expanded, then to its moves as one flat
    # (pair, hit, miss, pair, hit, miss, ...) tuple
    levels: list[dict[PairState, tuple]] = []
    level: dict[PairState, tuple] = {root: root}
    found = 1
    for _ in range(spec.total):
        below: dict[PairState, tuple] = {}
        for state in level:
            flat: list = []
            for pair, hit, miss in _partial_moves(state):
                if hit is not None:
                    hit = below.setdefault(hit, hit)
                if miss is not None:
                    miss = below.setdefault(miss, miss)
                flat += (pair, hit, miss)
            level[state] = tuple(flat)
            if found + len(below) > state_limit:
                raise limit_error
        found += len(below)
        levels.append(level)
        level = below
    # (N, W) by state of the level just solved; a successor missing from it
    # has no arrangements
    weights = {state: (_count(*zip(*state)), 0) for state in level}
    values: dict[PairState, Fraction] = dict.fromkeys(level, Fraction(0))
    policy: dict[PairState, tuple[tuple[int, int], ...]] | None = (
        {} if track_policy else None
    )
    empty = (0, 0)
    while levels:
        above: dict[PairState, tuple[int, int]] = {}
        for state, flat in levels.pop().items():
            best = None
            it = iter(flat)
            for pair, hit, miss in zip(it, it, it):
                n_hit, w_hit = weights.get(hit, empty)
                n_miss, w_miss = weights.get(miss, empty)
                act = n_hit + w_hit + w_miss
                if best is None or (act > best if maximize else act < best):
                    best, actions = act, [pair]
                elif act == best:
                    actions.append(pair)
            arrangements = n_hit + n_miss  # the same for every guess
            above[state] = (arrangements, best)
            values[state] = Fraction(best, arrangements)
            if policy is not None:
                policy[state] = tuple(actions)
        weights = above
    return PartialSolution(spec, sense, values[root], root, values, policy)


def optimal_partial(
    spec: DeckSpec, sense: Sense = "max", state_limit: int = DEFAULT_STATE_LIMIT
) -> Fraction:
    return solve_partial(spec, sense, state_limit=state_limit).value


# ===== persistence probe =====


@dataclass(frozen=True)
class PersistenceViolation:
    """An optimal guess that stopped being optimal right after missing."""

    state: PairState
    guess: tuple[int, int]
    successor: PairState
    successor_optimal: tuple[tuple[int, int], ...]


def probe_persistence(
    spec: DeckSpec, state_limit: int = DEFAULT_STATE_LIMIT
) -> list[PersistenceViolation]:
    """Search optimal max-sense play for non-persistent guesses.

    Walks every state reachable under some optimal action and checks that
    a type guessed optimally and incorrectly stays in the successor's optimal
    action set.  An empty list means persistence holds for this spec.
    """
    solution = solve_partial(spec, "max", track_policy=True, state_limit=state_limit)
    policy = solution.policy
    assert policy is not None
    violations: list[PersistenceViolation] = []
    seen: set[PairState] = set()
    stack: list[PairState] = [solution.root]
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        for pair, hit, miss in _partial_moves(state):
            if pair not in policy[state]:
                continue
            if hit is not None:
                stack.append(hit)
            if miss is not None:
                stack.append(miss)
                after = policy.get(miss)  # None at terminal states
                if after is not None and (pair[0], pair[1] + 1) not in after:
                    violations.append(PersistenceViolation(state, pair, miss, after))
    return violations


# ===== word statistics and early-game distributions =====


def exact_chain_mean(spec: DeckSpec, limit: int = DEFAULT_ENUM_LIMIT) -> Fraction:
    """Mean initial increasing-chain length over all shuffles: the largest p
    with 1, ..., p at increasing positions.

    The ladder's target and the chain's rise on the same cards until the
    ladder reaches type n, so the chain length is the ladder's score capped
    at n.
    """
    pmf = _score_pmf(spec, StrategySpec(StrategyId.PARTIAL_LADDER), spec.total, limit)
    return sum(min(k, spec.num_types) * p for k, p in pmf.items())


def first_third_distribution(spec: DeckSpec, strategy: StrategySpec) -> dict[int, Fraction]:
    """Exact pmf of corrects among the first floor(mn/3) guesses."""
    return _score_pmf(spec, strategy, spec.total // 3, DEFAULT_ENUM_LIMIT)


# ===== pointwise bound sweep =====


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


@dataclass(frozen=True)
class PointwiseReport:
    max_ratio: Fraction
    witnesses: tuple[tuple[ConstraintState, int], ...]
    witness_count: int
    states_checked: int

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1


def _pointwise_ratios(pairs: PairState) -> dict[tuple[int, int], tuple[int, int]]:
    """Per (m_i, a_i) pair with m_i > 0, the ratio f_i * (T - a_i) / m_i as
    the integer pair (N(s - e_i) * (T - a_i), N(s) * m_i), N(s) > 0.

    Both counts are symmetric in the types, so the ratios depend only on the
    pair multiset; N(s) is the sum of the next-card counts over the types.
    """
    by_pair = next_card_counts(pairs)
    total = sum(m_i for m_i, _ in pairs)
    arrangements = sum(by_pair[pair] for pair in pairs)
    return {
        (m_i, a_i): (reduced * (total - a_i), arrangements * m_i)
        for (m_i, a_i), reduced in by_pair.items()
        if m_i
    }


def verify_pointwise(max_total: int, max_types: int = 4, witness_cap: int = 64) -> PointwiseReport:
    """Check f_i <= m_i / (total - a_i) across the whole grid, exactly.

    Reports the largest ratio of the two sides and the states attaining it;
    the claim holds iff that maximum is at most one.  Ratios are compared as
    integer pairs by cross-multiplying, and each canonical pair multiset is
    counted once per call.
    """
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
            ratios = ratios_by_key[key] = _pointwise_ratios(key)
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
