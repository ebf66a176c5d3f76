"""Exact engines: enumeration, backward induction, and verification sweeps.

Values are Fractions throughout; the two value DPs reach them through
integer weights (arrangement count times value).  ``solve_partial`` runs
backward induction on canonical tally states, swept as ranked levels kept
in flat stdlib arrays: a move names its successors by their index in the
next level, and the pass up solves each level at once from flat lists of
the level below's weights.  The terminal level's arrangement counts come
from a recurrence over level 1's hits, once per down pass; each pass up
checks the root's count against one inclusion-exclusion ``_count``.  A
value-only solve keeps two levels' weights at a time and divides out only
the root's value: ``PartialSolution.values`` comes from one more pass up
that keeps every level's weights, run when it is first read, and the
persistence probe reads optimal guesses once each, only for the states its
walk reaches.  The tests check it against an
expectimax search over the raw tree of observable histories, which needs
no state reduction.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Literal

# last_card_fraction is unused here; perfbench/test_perfbench.py checks that
# tracing rebinds exact.last_card_fraction, and perfbench/ is fixed with the
# benchmark, so the name stays until the benchmark's next change.
from .combinatorics import (  # noqa: F401
    ConstraintState,
    PairState,
    _count,
    _state_layout,
    last_card_fraction,
    next_card_counts,
    shuffle_count,
)
from .core import DeckSpec
from .strategies import (
    _STRATEGIES,
    StrategyId,
    StrategySpec,
    _card_positions,
    make_strategy,
)

if TYPE_CHECKING:  # annotations only; see the package docstring
    import numpy as np

Sense = Literal["max", "min"]

DEFAULT_ENUM_LIMIT = 10**6
DEFAULT_STATE_LIMIT = 400_000
_SCORE_CHUNK = 4096


def _check_sense(sense: str) -> None:
    if sense not in ("max", "min"):
        raise ValueError(f"sense must be 'max' or 'min', got {sense!r}")


def enumerable_specs(size_limit: int = 10**4) -> list[DeckSpec]:
    """Deck specs with at most 16 cards whose full shuffle set fits under
    ``size_limit``."""
    out = []
    for m in range(1, 17):
        for n in range(1, 16 // m + 1):
            spec = DeckSpec(m, n)
            if shuffle_count(spec, size_limit) is not None:
                out.append(spec)
    return out


def _shuffle_blocks(spec: DeckSpec) -> Iterator[np.ndarray]:
    """Every distinct shuffle once, as int16 blocks of at most
    ``_SCORE_CHUNK`` rows, in no particular order.

    Type 1's m copies go into m of the mn slots, then type 2's into m of
    the slots left, and so on; type n fills the free slots, so a partial
    word holds n there.  Each type's placements (``itertools.combinations``
    of the free slots) are drawn in slices that keep a block, its partial
    words times every later type's placements, within the chunk.
    """
    import numpy as np

    m, n = spec.multiplicity, spec.num_types
    counts = [math.comb(spec.total - t * m, m) for t in range(n - 1)]  # type t + 1's placements
    later = [math.prod(counts[t + 1 :]) for t in range(n - 1)]

    def place(words: np.ndarray, t: int) -> Iterator[np.ndarray]:
        if t == n - 1:
            yield words
            return
        rows = len(words)
        free = np.nonzero(words == n)[1].reshape(rows, -1)
        placements = itertools.chain.from_iterable(itertools.combinations(range(free.shape[1]), m))
        step = max(1, _SCORE_CHUNK // (rows * later[t]))
        for start in range(0, counts[t], step):
            size = min(step, counts[t] - start)
            chosen = np.fromiter(placements, dtype=np.intp, count=size * m).reshape(size, m)
            # row r * size + k: partial word r with placement k
            grown = np.repeat(words, size, axis=0)
            grown[np.arange(rows * size)[:, None], free[:, chosen].reshape(-1, m)] = t + 1
            yield from place(grown, t + 1)

    yield from place(np.full((1, spec.total), n, dtype=np.int16), 0)


def _score_pmf(
    spec: DeckSpec, strategy: StrategySpec, prefix: int, limit: int
) -> dict[int, Fraction]:
    """Exact pmf of a deterministic strategy's score over the first
    ``prefix`` cards, by scoring every ``_shuffle_blocks`` block with its
    kernel, as card positions for a kernel that takes them.  The one
    enumeration behind every exact strategy statistic.

    Randomized specs are rejected; estimate those by simulation.
    """
    if not strategy.deterministic:
        raise ValueError(f"{strategy.label()} is randomized; use montecarlo.estimate_value")
    size = shuffle_count(spec, limit)
    if size is None:
        raise ValueError(
            f"the shuffles of deck m={spec.multiplicity}, n={spec.num_types} exceed the"
            f" enumeration limit {limit}; raise it or simulate"
        )
    import numpy as np

    score = make_strategy(strategy, spec)
    reads_types = _STRATEGIES[strategy.id].reads_types
    hist = np.zeros(prefix + 1, dtype=np.int64)
    scored = 0
    for block in _shuffle_blocks(spec):
        if reads_types is None:
            cards = block[:, :prefix]
        else:
            cards = _card_positions(block, reads_types * spec.multiplicity, prefix)
        hist += np.bincount(score(cards), minlength=prefix + 1)
        scored += len(block)
    if scored != size:
        raise AssertionError(f"enumerated {scored} of {size} shuffles of {spec}")
    return {k: Fraction(count, size) for k, count in enumerate(hist.tolist()) if count}


def exact_value(
    spec: DeckSpec, strategy: StrategySpec, limit: int = DEFAULT_ENUM_LIMIT
) -> Fraction:
    """Expected score of a deterministic strategy over the whole deck."""
    pmf = _score_pmf(spec, strategy, spec.total, limit)
    return sum(k * p for k, p in pmf.items())


# ===== complete feedback: integer weights on count multisets =====


def optimal_complete(
    spec: DeckSpec, sense: Sense = "max", state_limit: int = DEFAULT_STATE_LIMIT
) -> Fraction:
    """Value of best (or worst) play under complete feedback.

    The drawn card is revealed either way, so a state is just the multiset of
    remaining counts c, kept as a non-increasing tuple; the per-turn optimum
    is the largest (smallest) count over the deck size, and the transition
    law is guess-independent.  Each state carries two integers: N(c), the
    number of arrangements of c, and W(c) = N(c) * V(c).  Writing c - e_j for
    c with one card of type j drawn, N(c) = sum_j N(c - e_j) and
    W(c) = N(c - e_best) + sum_j W(c - e_j).  The sweep runs up from the
    empty deck one size at a time, each state adding its share to the states
    one card larger, and keeps only two sizes.  It visits all C(m + n, n)
    multisets, so it raises RuntimeError before the sweep when that count
    exceeds ``state_limit``.
    """
    _check_sense(sense)
    if math.comb(spec.multiplicity + spec.num_types, spec.num_types) > state_limit:
        raise RuntimeError(
            f"more than {state_limit} complete-feedback states; raise state_limit if intended"
        )
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


# A partial state in the sweep: the codes m_i * radix + a_i of its pairs,
# sorted, with radix the width mn + 1 of combinatorics._state_layout.
_Codes = tuple[int, ...]


def _pairs(state: _Codes, radix: int) -> PairState:
    return tuple(map(divmod, state, itertools.repeat(radix)))


def _typecode(top: int) -> str:
    """The ``array`` typecode for ints from -1 to ``top``: 4 bytes below
    2**31, else 8.  Past 8 bytes ``array`` raises OverflowError, never
    wraps, and no sweep that fits in memory gets there."""
    return "i" if top < 2**31 else "q"


@dataclass(frozen=True)
class _Sweep:
    """A down pass, as flat arrays per level from the root down.

    ``codes[level]`` holds its states' sorted codes, n per state, in rank
    order.  Every level but the terminal one has its moves in code order per
    state: ``hits[level]`` and ``misses[level]`` hold each move's successor
    ranks in the next level, -1 where the successor has no arrangements,
    and ``starts[level]`` the index of each state's first move, then the
    level's move count.  ``counts`` is N by rank of the terminal level then
    a 0 for rank -1, shared by every up pass over the sweep."""

    spec: DeckSpec
    radix: int
    codes: list[array]
    hits: list[array]
    misses: list[array]
    starts: list[array]
    counts: list[int]

    def states(self, level: int) -> Iterator[_Codes]:
        """The level's states in rank order."""
        return zip(*[iter(self.codes[level])] * self.spec.num_types)

    def state(self, level: int, rank: int) -> _Codes:
        n = self.spec.num_types
        return tuple(self.codes[level][rank * n : rank * n + n])

    def moves(self, level: int, rank: int) -> tuple[array, array]:
        """The hit and miss ranks of a non-terminal state's moves."""
        first, end = self.starts[level][rank : rank + 2]
        return self.hits[level][first:end], self.misses[level][first:end]


class _Lazy(Mapping):
    """A dict that ``build()`` makes the first time anything but its size
    is read."""

    def __init__(self, size: int, build: Callable[[], dict]):
        self._size = size
        self._build = build
        self._built: dict | None = None

    def _dict(self) -> dict:
        if self._built is None:
            self._built = self._build()
        return self._built

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, key):
        return self._dict()[key]

    def __iter__(self) -> Iterator:
        return iter(self._dict())

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True)
class PartialSolution:
    """The root's value, and W / N by state, built when first read.
    perfbench counts a solve's states by ``len(values)``, which builds
    nothing."""

    value: Fraction
    values: Mapping[PairState, Fraction]


def _partial_state_floor(spec: DeckSpec) -> int:
    """A lower bound on the states ``solve_partial`` visits: C(n + 2m, n) - m.

    Every pair multiset built from (0, 0), (k, 0) and (k, 1) with
    1 <= k <= m is reached (hits first, then one miss per type with a wrong
    guess), except the m states where a single type (k, 1) holds all
    remaining cards, which break Hall's condition.
    """
    m, n = spec.multiplicity, spec.num_types
    return math.comb(n + 2 * m, n) - m


def _sweep_down(spec: DeckSpec, state_limit: int) -> _Sweep:
    """Every state reachable from the root, level by level, with its moves
    as successor ranks: one move per distinct code, in code order.  A
    successor is deduplicated by an exact positional key, its sorted codes
    as one key of ``_state_layout``, which a move updates in a few adds;
    its codes are listed only the first time its key turns up.  Each level
    is built in lists and kept as arrays (see ``_Sweep``).  Raises
    RuntimeError once more than ``state_limit`` states turn up, or at once
    when ``_partial_state_floor`` already exceeds it.
    """
    limit_error = RuntimeError(
        f"more than {state_limit} partial states; raise state_limit if intended"
    )
    if _partial_state_floor(spec) > state_limit:
        raise limit_error
    m, n = spec.multiplicity, spec.num_types
    radix, base, powers, drops, root = _state_layout(spec)
    steps = [b - a for a, b in itertools.pairwise(powers)]
    code_type = _typecode(base)  # every code is a digit in that base
    # key -> rank, in rank order, for the level being expanded
    ranks = {root: 0}
    level = array(code_type, (m * radix,) * n)
    codes: list[array] = []
    hits: list[array] = []
    misses: list[array] = []
    starts: list[array] = []
    found = 1
    for left in range(spec.total, 0, -1):
        below: list[int] = []
        below_ranks: dict[int, int] = {}
        rank_of = below_ranks.setdefault
        level_hits: list[int] = []
        level_misses: list[int] = []
        level_starts: list[int] = []
        size = 0  # states in ``below``
        # Guessing a type with pair (m_i, a_i) leaves (m_i - 1, a_i) on a hit
        # and (m_i, a_i + 1) on a miss; a successor with no arrangement gets
        # rank -1.  By Hall's condition (see ConstraintState) N(m, a) > 0 iff
        # sum(a) <= sum(m) and a_j + m_j <= sum(m) for every j.  With
        # M = sum(m) here, a miss stays possible iff m_i + a_i < M, and a hit
        # iff m_i > 0 and no other type is tight, m_j + a_j = M.  At most one
        # type can be tight, since two would need sum(a) >= M, and
        # left = M - sum(a) is positive.
        for key, state in zip(ranks, zip(*[iter(level)] * n)):
            level_starts.append(len(level_hits))
            # sum(codes) = radix * M + sum(a)
            total = (sum(state) + left) // (radix + 1)
            tight = -1
            for code in state:
                if code // radix + code % radix == total:
                    tight = code
                    break
            first = 0
            while first < n:
                code = state[first]
                end = bisect_right(state, code, first)
                hit = miss = -1
                if code >= radix and (tight < 0 or tight == code):
                    # lower the run's first copy, moving it to its place in
                    # the prefix, so the successor needs no sort
                    lowered = code - radix
                    at = bisect_left(state, lowered, 0, first)
                    if at == first:
                        k = key - drops[first]
                    else:
                        k = key + lowered * powers[at] - code * powers[first]
                        for i in range(at, first):
                            k += state[i] * steps[i]
                    hit = rank_of(k, size)
                    if hit == size:
                        below += state[:at] + (lowered,) + state[at:first] + state[first + 1 :]
                        size += 1
                if code != tight:
                    # raise the run's last copy, which keeps the codes sorted
                    miss = rank_of(key + powers[end - 1], size)
                    if miss == size:
                        below += state[: end - 1] + (code + 1,) + state[end:]
                        size += 1
                level_hits.append(hit)
                level_misses.append(miss)
                first = end
            if found + size > state_limit:
                raise limit_error
        level_starts.append(len(level_hits))
        found += size
        codes.append(level)
        hits.append(array(_typecode(size), level_hits))
        misses.append(array(_typecode(size), level_misses))
        starts.append(array(_typecode(len(level_hits)), level_starts))
        above, ranks, level = ranks, below_ranks, array(code_type, below)
    codes.append(level)
    counts = _terminal_counts(level, n, ranks, above, hits[-1], starts[-1], radix, powers)
    return _Sweep(spec, radix, codes, hits, misses, starts, counts)


def _terminal_counts(
    level: array, n: int, ranks: dict[int, int], above: dict[int, int],
    above_hits: array, above_starts: array, radix: int, powers: list[int],
) -> list[int]:
    """N by rank of the terminal level, given as its codes, n per state,
    then a 0 for rank -1; ``ranks`` maps each state's positional key to its
    rank, and ``above``, ``above_hits`` and ``above_starts`` are level 1's.

    A terminal state s has every remaining card in a banned slot.  Take the
    first type j with a_j > 0 and fill its first banned slot with a card of
    any other type k: the rest of the word is a word of the state with
    a_j - 1 and m_k - 1, so N(s) = sum over k != j of those states' N.
    They are the hits of s', s with a_j - 1; lowering a_j, the first copy
    of its code, keeps the codes sorted and lowers the key by powers[j].
    s' has one draw left, at most m copies per type and N(s') >= N(s) > 0,
    and every such state is reached from the root (undo its misses, then
    its hits), so s' lies in level 1 (a missing one raises KeyError).  Its
    moves give its hits' ranks here, one per distinct code in code order;
    rank -1, an exhausted type or a hit with no arrangements, reads the 0.
    The state with no cards has N = 1.  States are solved in order of their
    card count M, which is sum(codes) / (radix + 1) at level 0.
    """
    counts = [0] * (len(ranks) + 1)
    by_cards: list[list[int]] = [[] for _ in range(radix)]
    for rank, state in enumerate(zip(*[iter(level)] * n)):
        by_cards[sum(state) // (radix + 1)].append(rank)
    for rank in by_cards[0]:
        counts[rank] = 1
    keys = list(ranks)
    for cards in by_cards[1:]:
        for rank in cards:
            state = tuple(level[rank * n : rank * n + n])
            j = 0
            while not state[j] % radix:
                j += 1
            lowered = state[j] - 1
            middle = state[:j] + (lowered,) + state[j + 1 :]
            lifted = above[keys[rank] - powers[j]]  # the rank of s'
            hits = above_hits[above_starts[lifted] : above_starts[lifted + 1]]
            total = 0
            for code, hit in zip(dict.fromkeys(middle), hits):
                # the types holding this code, j left out
                total += (middle.count(code) - (code == lowered)) * counts[hit]
            counts[rank] = total
    return counts


# N and W by rank of each level of a down pass, each list ending in a 0 for
# rank -1, the successors with no arrangements
_Weights = list[tuple[list[int], list[int]]]


def _solve_level(
    ns: list[int], ws: list[int], hits: array, misses: array, starts: array, pick: Callable
) -> tuple[list[int], list[int]]:
    """N and W by rank of a level from those of the level below, each list
    ending in a 0 for rank -1.  N(hit) + W(hit) + W(miss) is read for every
    move of the level in one pass, and each state's W picked from its
    moves' slice; N(hit) + N(miss) is N of the state for any of its moves,
    so its first move's successors give it."""
    nws = list(map(operator.add, ns, ws))
    acts = list(map(operator.add, map(nws.__getitem__, hits), map(ws.__getitem__, misses)))
    firsts = starts[:-1]
    above_w = list(map(pick, map(acts.__getitem__, map(slice, firsts, starts[1:]))))
    above_n = list(map(operator.add, map(ns.__getitem__, map(hits.__getitem__, firsts)),
                       map(ns.__getitem__, map(misses.__getitem__, firsts))))
    above_n.append(0)
    above_w.append(0)
    return above_n, above_w


def _sweep_up(sweep: _Sweep, sense: Sense) -> Iterator[tuple[list[int], list[int]]]:
    """Solve a down pass from the terminal level up, yielding each level's
    N and W by rank as soon as it is solved, so a caller keeps only the
    levels it needs.

    The terminal level starts from the sweep's ``counts`` with W = 0, so
    another sense over the same sweep counts nothing again.  Once the root
    is solved its N is checked against ``_count`` of the root, the pass's
    one inclusion-exclusion count; a mismatch raises AssertionError.
    """
    pick = max if sense == "max" else min
    ns = sweep.counts
    ws = [0] * len(ns)
    yield ns, ws
    for moves in zip(*map(reversed, (sweep.hits, sweep.misses, sweep.starts))):
        ns, ws = _solve_level(ns, ws, *moves, pick)
        yield ns, ws
    root = _pairs(sweep.state(0, 0), sweep.radix)
    # the solve's one inclusion-exclusion count checks the terminal recurrence
    if ns[0] != _count(*zip(*root)):
        raise AssertionError(f"terminal counts give {ns[0]} shuffles at {root}")


def _root_value(sweep: _Sweep, sense: Sense) -> Fraction:
    """The root's value, keeping only the (N, W) lists of two levels at once."""
    for ns, ws in _sweep_up(sweep, sense):
        pass
    return Fraction(ws[0], ns[0])


def _all_weights(sweep: _Sweep, sense: Sense) -> _Weights:
    """Every level's N and W, root level first."""
    return list(_sweep_up(sweep, sense))[::-1]


def _optimal_guesses(
    sweep: _Sweep, weights: _Weights, sense: Sense, level: int, rank: int
) -> list[tuple[tuple[int, int], int, int]]:
    """(pair, hit, miss) for each optimal guess at a non-terminal state,
    given by its level and rank, in code order: every guess whose
    N(hit) + W(hit) + W(miss) equals the best, read from the level below's
    weights, with its successors' ranks there."""
    ns, ws = weights[level + 1]
    hits, misses = sweep.moves(level, rank)
    acts = [ns[hit] + ws[hit] + ws[miss] for hit, miss in zip(hits, misses)]
    best = max(acts) if sense == "max" else min(acts)
    codes = dict.fromkeys(sweep.state(level, rank))
    return [
        (divmod(code, sweep.radix), hit, miss)
        for code, hit, miss, act in zip(codes, hits, misses, acts)
        if act == best
    ]


def solve_partial(
    spec: DeckSpec, sense: Sense = "max", state_limit: int = DEFAULT_STATE_LIMIT
) -> PartialSolution:
    """Backward induction over canonical (remaining, wrong-guess) pair multisets.

    A guess of a type with pair (m_i, a_i) is correct with the exact
    last-card fraction f; correct play removes a copy, incorrect play adds a
    banned position for that type.  Terminal states have as many banned
    positions as remaining copies: no draws are left.  Guessing an exhausted
    type is legal with f = 0, which minimal play exploits.

    Each state s carries integers N(s), its number of arrangements, and
    W(s) = N(s) * V(s).  Since f = N(hit) / N(s) and N(s) = N(hit) + N(miss)
    for every guess, W(s) = opt over guesses of N(hit) + W(hit) + W(miss).
    Every guess draws one card, so the states fall into levels by draws
    left, and level 0 holds exactly the terminal states, where W = 0.  One
    pass down keeps each level's states and each move's successor ranks in
    the next level as flat arrays, and counts level 0's arrangements by a
    recurrence over level 1's hits (``_terminal_counts``); one pass up
    solves each level at once from flat lists of N and W by rank of the
    level below, so deep decks need no recursion, and checks the root's N
    against one ``_count``, the solve's only inclusion-exclusion count.
    The solve keeps only two levels' (N, W) lists at a time.  ``values``
    (W / N per state) is built when first read, from one more pass up that
    keeps every level's lists, though its size is known at once; until then
    only the root's value is a Fraction.  Raises RuntimeError once more than
    ``state_limit`` states turn up, or at once when ``_partial_state_floor``
    already exceeds it.
    """
    _check_sense(sense)
    sweep = _sweep_down(spec, state_limit)

    def values() -> dict[PairState, Fraction]:
        return {
            _pairs(state, sweep.radix): Fraction(w, n)
            for level, (ns, ws) in enumerate(_all_weights(sweep, sense))
            for state, n, w in zip(sweep.states(level), ns, ws)
        }

    size = sum(map(len, sweep.codes)) // spec.num_types
    return PartialSolution(_root_value(sweep, sense), _Lazy(size, values))


def optimal_partial(
    spec: DeckSpec, sense: Sense = "max", state_limit: int = DEFAULT_STATE_LIMIT
) -> Fraction:
    return solve_partial(spec, sense, state_limit=state_limit).value


def partial_values_or_none(spec: DeckSpec, state_limit: int) -> dict[str, Fraction | None]:
    """The partial optimum per sense, or None in both when the state limit
    trips.  One down pass serves both senses: each is an up pass over its
    levels and terminal counts, which counts nothing again but the root."""
    try:
        sweep = _sweep_down(spec, state_limit)
    except RuntimeError:
        return {"max": None, "min": None}
    return {sense: _root_value(sweep, sense) for sense in ("max", "min")}


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

    Walks every state reachable under some optimal action, depth first by
    (level, rank) over the sweep's moves, and checks that a type guessed
    optimally and incorrectly stays in the successor's optimal action set.
    Optimal guesses are read once each, only for walked states and their
    miss successors.  An empty list means persistence holds for this spec.
    """
    sweep = _sweep_down(spec, state_limit)
    weights = _all_weights(sweep, "max")
    radix = sweep.radix
    terminal = len(sweep.hits)

    @functools.cache
    def guesses(level: int, rank: int) -> list[tuple[tuple[int, int], int, int]]:
        return _optimal_guesses(sweep, weights, "max", level, rank)

    violations: list[PersistenceViolation] = []
    seen: set[tuple[int, int]] = set()
    stack = [(0, 0)]  # (level, rank); the terminal level has no moves
    while stack:
        level, rank = stack.pop()
        if (level, rank) in seen or level == terminal:
            continue
        seen.add((level, rank))
        for pair, hit, miss in guesses(level, rank):
            stack += [(level + 1, below) for below in (hit, miss) if below >= 0]
            if miss < 0 or level + 1 == terminal:
                continue
            after = guesses(level + 1, miss)
            if all(p != (pair[0], pair[1] + 1) for p, _, _ in after):
                state, successor = sweep.state(level, rank), sweep.state(level + 1, miss)
                optimal = tuple(p for p, _, _ in after)
                violations.append(
                    PersistenceViolation(_pairs(state, radix), pair, _pairs(successor, radix), optimal)
                )
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


def _next_pairs(
    total: int, low_m: int, low_a: int, left_m: int, left_a: int, slots: int
) -> Iterator[tuple[int, int]]:
    """The pairs that may take the next of ``slots`` places in a sorted
    multiset with ``total`` cards, after a pair (low_m, low_a), with
    ``left_m`` cards and ``left_a`` banned slots still to place."""
    # the pairs still to come are no smaller, and the last takes what is left
    for m in range(max(low_m, left_m if slots == 1 else 0), left_m // slots + 1):
        for a in range(low_a if m == low_m else 0, min(total - m, left_a) + 1):
            yield m, a


def _pair_multisets(total: int, max_types: int) -> Iterator[PairState]:
    """Every sorted tuple of at most ``max_types`` (m_i, a_i) pairs with
    sum(m) = total, sum(a) < total and a_i <= total - m_i: the pair
    multisets of the grid states with ``total`` cards, by type count."""

    def extend(prefix: PairState, low_m: int, low_a: int, left_m: int, left_a: int, slots: int):
        if not slots:
            yield prefix
            return
        for m, a in _next_pairs(total, low_m, low_a, left_m, left_a, slots):
            yield from extend(prefix + ((m, a),), m, a, left_m - m, left_a - a, slots - 1)

    for types in range(1, max_types + 1):
        yield from extend((), 0, 0, total, total - 1, types)


def _pair_multiset_count(total: int, max_types: int) -> int:
    """How many multisets ``_pair_multisets`` lists, counted without
    listing them."""

    @functools.lru_cache(maxsize=None)
    def extend(low_m: int, low_a: int, left_m: int, left_a: int, slots: int) -> int:
        if not slots:
            return 1
        return sum(
            extend(m, a, left_m - m, left_a - a, slots - 1)
            for m, a in _next_pairs(total, low_m, low_a, left_m, left_a, slots)
        )

    return sum(extend(0, 0, total, total - 1, types) for types in range(1, max_types + 1))


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
    the claim holds iff that maximum is at most one.  Ratios, compared as
    integer pairs by cross-multiplying, depend only on a state's pair
    multiset: each multiset is checked once and counts for its k!/prod(mult!)
    orderings, the grid states that share it.  Raises RuntimeError before any
    multiset is listed when the grid holds more than ``DEFAULT_STATE_LIMIT``
    multisets.
    """
    grid = 0
    for total in range(1, max_total + 1):
        grid += _pair_multiset_count(total, max_types)
        if grid > DEFAULT_STATE_LIMIT:
            raise RuntimeError(
                f"max_total {max_total} needs more than {DEFAULT_STATE_LIMIT} pair multisets:"
                f" {grid} with at most {total} cards"
            )
    multisets = (
        pairs for total in range(1, max_total + 1) for pairs in _pair_multisets(total, max_types)
    )
    best_num, best_den = 0, 1
    maximal: dict[PairState, set[tuple[int, int]]] = {}  # multiset -> its maximal pairs
    witness_count = checked = 0
    for pairs in multisets:
        copies = Counter(pairs)
        orderings = math.factorial(len(pairs)) // math.prod(map(math.factorial, copies.values()))
        checked += orderings
        for pair, (num, den) in _pointwise_ratios(pairs).items():
            lhs, rhs = num * best_den, best_num * den
            if lhs > rhs:
                best_num, best_den = num, den
                maximal = {}
                witness_count = 0
            if lhs >= rhs:
                maximal.setdefault(pairs, set()).add(pair)
                witness_count += orderings * copies[pair]
    witnesses = itertools.islice(_grid_witnesses(maximal, max_types), witness_cap)
    return PointwiseReport(Fraction(best_num, best_den), tuple(witnesses), witness_count, checked)


def _grid_witnesses(
    maximal: dict[PairState, set[tuple[int, int]]], max_types: int
) -> Iterator[tuple[ConstraintState, int]]:
    """(state, card) for each card holding a maximal pair in each ordering of
    the ``maximal`` multisets, in grid order; a type count's orderings are
    built only once those of the type counts before it are used up."""
    for types in range(1, max_types + 1):
        states = sorted(
            (tuple(zip(*order)), pairs)
            for pairs in maximal if len(pairs) == types
            for order in set(itertools.permutations(pairs))
        )
        for (remaining, forbidden), pairs in states:
            for card, pair in enumerate(zip(remaining, forbidden), start=1):
                if pair in maximal[pairs]:
                    yield ConstraintState(remaining, forbidden), card
