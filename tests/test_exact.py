import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from fractions import Fraction

import numpy as np
import pytest

from guessbench import exact
from guessbench.combinatorics import _count, shuffle_count
from guessbench.core import DeckSpec, FeedbackModel
from guessbench.exact import (
    DEFAULT_STATE_LIMIT,
    _partial_state_floor,
    enumerable_specs,
    exact_chain_mean,
    exact_value,
    first_third_distribution,
    optimal_complete,
    optimal_partial,
    partial_values_or_none,
    probe_persistence,
    solve_partial,
    verify_pointwise,
)
from guessbench.strategies import _STRATEGIES, StrategyId, StrategySpec, _resolve_model
from oracles import (
    PolicyPlayer,
    all_shuffles,
    brute_chain,
    brute_value,
    expectimax_value,
    iter_constraint_grid,
    iter_shuffles,
    make_oracle,
    ordered_verify_pointwise,
    play,
    recursive_optimal_complete,
    recursive_probe_persistence,
    recursive_solve_partial,
    reference_verify_pointwise,
    small_constraint_states,
    swept_policy,
    terminal_states,
)

GREEDY_MAX = StrategySpec(StrategyId.COMPLETE_GREEDY_MAX)
GREEDY_MIN = StrategySpec(StrategyId.COMPLETE_GREEDY_MIN)


def deterministic_strategies(spec):
    """Every deterministic strategy, at its defaults, that plays on ``spec``."""
    return [
        StrategySpec(sid)
        for sid, kind in _STRATEGIES.items()
        if StrategySpec(sid).deterministic and spec.num_types >= kind.min_types
    ]


def test_iter_shuffles_lexicographic():
    for m, n in [(2, 2), (1, 3), (2, 3), (3, 2)]:
        assert list(iter_shuffles(DeckSpec(m, n))) == all_shuffles(m, n)


def test_shuffle_blocks_hold_every_shuffle_once():
    # (10,2) draws its 184,756 type-1 placements in many slices
    for spec in enumerable_specs(10**4) + [DeckSpec(10, 2)]:
        rows = []
        for block in exact._shuffle_blocks(spec):
            assert block.dtype == np.int16
            assert 0 < len(block) <= exact._SCORE_CHUNK
            rows += map(tuple, block.tolist())
        # the reference lists each shuffle once, so equality rules out repeats
        assert sorted(rows) == list(iter_shuffles(spec)), spec


def test_score_pmf_checks_the_shuffle_count(monkeypatch):
    blocks = exact._shuffle_blocks

    def one_block_dropped(spec):
        shown = blocks(spec)
        next(shown)
        return shown

    spec = DeckSpec(2, 5)
    assert len(list(blocks(spec))) > 1
    monkeypatch.setattr(exact, "_shuffle_blocks", one_block_dropped)
    with pytest.raises(AssertionError, match="shuffles"):
        exact_value(spec, GREEDY_MAX)


def test_enumerable_specs_catalog():
    expected = {(m, 1) for m in range(1, 17)}
    expected |= {(1, n) for n in range(2, 8)}
    expected |= {(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2), (6, 2), (7, 2)}
    got = {(s.multiplicity, s.num_types) for s in enumerable_specs(10**4)}
    assert got == expected
    for spec in enumerable_specs(10**4):
        assert shuffle_count(spec) <= 10**4


def test_single_copy_complete_values():
    for n in range(1, 9):
        spec = DeckSpec(1, n)
        assert optimal_complete(spec, "max") == sum(Fraction(1, k) for k in range(1, n + 1))
        assert optimal_complete(spec, "min") == Fraction(1, n)


def test_complete_dp_equals_greedy_enumeration():
    for spec in enumerable_specs(720):
        assert optimal_complete(spec, "max") == exact_value(spec, GREEDY_MAX)
        assert optimal_complete(spec, "min") == exact_value(spec, GREEDY_MIN)
    assert optimal_complete(DeckSpec(2, 2), "max") == Fraction(17, 6)


def test_integer_dps_match_recursive_references():
    for m in range(1, 13):
        for n in range(1, 12 // m + 1):
            spec = DeckSpec(m, n)
            for sense in ("max", "min"):
                got = solve_partial(spec, sense)
                want = recursive_solve_partial(spec, sense)
                assert got.value == want.value
                assert got.values == want.values
                assert swept_policy(spec, sense) == want.policy
                assert _partial_state_floor(spec) <= len(got.values)
    for m in range(1, 7):
        for n in range(1, 7):
            for sense in ("max", "min"):
                spec = DeckSpec(m, n)
                assert optimal_complete(spec, sense) == recursive_optimal_complete(spec, sense)


REPO_ROOT = Path(__file__).resolve().parents[1]

# sha256 of repr(sorted(values.items())) and of repr(sorted(policy.items()))
# from solve_partial(spec, sense).values and swept_policy(spec, sense), taken
# from the level sweep that searched sorted pair tuples, before states became
# ranked code tuples; they pin values, policies and tie order beyond the
# oracle's mn <= 12 specs
PINNED_PARTIAL_DIGESTS = {
    (10, 3, "max"): (
        "8ba6e2917866a5d71e3b04f3fb8c0a05b57b52a61b511eae9883fedaa4d9e0d3",
        "5a9737d7fb29621a233330852b8dd33ccad27b36772b7c48f04f8ae9e959abac",
    ),
    (10, 3, "min"): (
        "a56fa511998294f571c09a58cc8a21461554a41859f1b5cfe6317453f8345a1f",
        "2dc36072e412085c2b07311f667abd8d6c3593c7dbe9149c525c445bb80633d6",
    ),
    (5, 4, "max"): (
        "a4f10f3a5eaa657397680776d1105609b99505dd29c0998181da18fc3637fcd1",
        "729e382a9ced2f62722a88b5dba56ba5f4588427a25dfbf949677d8815807e92",
    ),
    (5, 4, "min"): (
        "a05de446c13d50be81941c8e05c37143e9cabad6ef7ecd3cea7af5b3f4b09ea1",
        "334dcf865fabe6baa54213632b3b4a281b472d81d7fc73935774c54e27ddde2d",
    ),
}


def _digest(mapping) -> str:
    return hashlib.sha256(repr(sorted(mapping.items())).encode()).hexdigest()


def test_partial_solutions_match_pinned_digests():
    for (m, n, sense), digests in PINNED_PARTIAL_DIGESTS.items():
        spec = DeckSpec(m, n)
        values = solve_partial(spec, sense).values
        assert (_digest(values), _digest(swept_policy(spec, sense))) == digests


# sha256 of repr((codes, hits, misses, starts, counts)) of
# _sweep_down(spec, DEFAULT_STATE_LIMIT), each array as a list, taken from
# the down pass that built a move list per state; they pin every level's
# rank order, which values and policies keyed by PairState cannot see
PINNED_SWEEP_DIGESTS = {
    (2, 3): "4e094df12f1912d74f37b4aefefdbf40dfbc56a92d7d20ec97be13df4bacc8c4",
    (1, 8): "b76a9b6ad516b615376683bf5099859755ae7c05cf6d4fdce6620db53f4edc9c",
    (2, 6): "1eaba1fb6342ca5949b1a7a3cea1916e22281eff5f3c53b177f2920f212c25c4",
    (3, 4): "c5bf717d2968347256e842a4eaa959a30fd0d34b2bd29bb3d2ba04c4035155ac",
    (4, 4): "0f8d3713f2649e2adedb25fc262911248e56aea5e490df1bf644cce35d7cfe9b",
    (5, 3): "15957bcc2cc5ea59313f83722a373eaf01f47fb7e1d642783a253246aab5c1b2",
}


def test_down_pass_arrays_match_pinned_digests():
    for (m, n), digest in PINNED_SWEEP_DIGESTS.items():
        sweep = exact._sweep_down(DeckSpec(m, n), DEFAULT_STATE_LIMIT)
        arrays = tuple(
            [list(level) for level in levels]
            for levels in (sweep.codes, sweep.hits, sweep.misses, sweep.starts)
        ) + (sweep.counts,)
        assert hashlib.sha256(repr(arrays).encode()).hexdigest() == digest, (m, n)


def test_value_only_solves_equal_the_full_solve():
    for m in range(1, 17):
        for n in range(1, 16 // m + 1):
            spec = DeckSpec(m, n)
            values = {sense: solve_partial(spec, sense).value for sense in ("max", "min")}
            assert {sense: optimal_partial(spec, sense) for sense in values} == values
            assert partial_values_or_none(spec, DEFAULT_STATE_LIMIT) == values


def test_partial_state_count_builds_no_map(monkeypatch):
    # perfbench counts a traced solve's states by len(values): sizing the
    # map runs no pass up that keeps every level, and the first read runs one
    spec = DeckSpec(4, 4)
    sweep = exact._sweep_down(spec, DEFAULT_STATE_LIMIT)
    all_weights = exact._all_weights
    calls = []

    def spy(sweep, sense):
        calls.append(sense)
        return all_weights(sweep, sense)

    monkeypatch.setattr(exact, "_all_weights", spy)
    values = solve_partial(spec, "min").values
    assert len(values) == sum(map(len, sweep.codes)) // spec.num_types
    assert calls == []
    assert values[((4, 0),) * 4] == optimal_partial(spec, "min")
    assert calls == ["min"]
    assert len(dict(values)) == len(values)
    assert calls == ["min"]


def test_value_only_solve_keeps_levels_compact():
    # a solve that keeps every level as tuples of codes and of moves, with
    # its (N, W) lists, peaks near 200 bytes a state here
    spec = DeckSpec(6, 3)
    states = len(solve_partial(spec).values)
    assert states == 14_014
    tracemalloc.start()
    try:
        optimal_partial(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 150 * states


def test_sweep_typecodes_hold_their_largest_values():
    # 4-byte ints up to 2**31 - 1; (1200,1)'s codes stay below 1201 ** 2
    assert exact._typecode(1201**2) == "i"
    for top in (2**31 - 1, 2**31, 2**63 - 1):
        assert array(exact._typecode(top), [-1, top])[1] == top


DEEP_PARTIAL_SCRIPT = """
from guessbench import DeckSpec, optimal_partial
print(*(optimal_partial(DeckSpec(1200, 1), sense) for sense in ("max", "min")))
"""


def test_deep_decks_need_no_recursion():
    harmonic = sum(Fraction(1, k) for k in range(1, 1501))
    assert optimal_complete(DeckSpec(1, 1500), "max") == harmonic
    # in a subprocess under a wall-clock budget, so that a solver whose cost
    # grows with the number of possible pairs, (m + 1)(mn + 1) here, fails
    # instead of stalling the suite
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-c", DEEP_PARTIAL_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["1200", "1200"]


def test_state_limits_fail_before_the_search():
    with pytest.raises(RuntimeError, match="more than 400000 partial states"):
        optimal_partial(DeckSpec(1, 1500))
    assert _partial_state_floor(DeckSpec(1, 1500)) == 1_127_250


def test_complete_state_limit_is_the_multiset_count():
    # the sweep visits every non-increasing count tuple, C(m + n, n) of them
    for spec in (DeckSpec(2, 3), DeckSpec(1, 6), DeckSpec(4, 2), DeckSpec(3, 3)):
        m, n = spec.multiplicity, spec.num_types
        states = len(list(itertools.combinations_with_replacement(range(m + 1), n)))
        assert states == math.comb(m + n, n)
        for sense in ("max", "min"):
            assert optimal_complete(spec, sense, states) == optimal_complete(spec, sense)
            with pytest.raises(RuntimeError, match=f"more than {states - 1} complete-feedback"):
                optimal_complete(spec, sense, states - 1)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="more than 400000 complete-feedback states"):
        optimal_complete(DeckSpec(400, 50))
    assert time.perf_counter() - start < 1


def test_state_limit_counts_every_state():
    # floors of 207, 124 and 161 lie far below these counts, so the search
    # itself, not the floor, decides where the limit trips
    for spec in (DeckSpec(3, 4), DeckSpec(2, 5), DeckSpec(4, 3)):
        states = len(solve_partial(spec).values)
        assert _partial_state_floor(spec) < states - 1
        assert solve_partial(spec, state_limit=states).values
        with pytest.raises(RuntimeError, match=f"more than {states - 1} partial states"):
            solve_partial(spec, state_limit=states - 1)


# n = 1 decks, (1, n), and wider and deeper decks whose terminal levels hold
# exhausted types with banned slots
TERMINAL_SPECS = (
    [(m, 1) for m in range(1, 17)]
    + [(1, n) for n in range(2, 13)]
    + [(2, 8), (3, 5), (4, 4), (5, 4), (10, 3)]
)


def test_terminal_recurrence_matches_inclusion_exclusion():
    for m, n in TERMINAL_SPECS:
        spec = DeckSpec(m, n)
        level = terminal_states(spec)
        assert ((0, 0),) * n in level
        if n > 1:
            assert any(mi == 0 < ai for state in level for mi, ai in state)
        sweep = exact._sweep_down(spec, DEFAULT_STATE_LIMIT)
        swept = [exact._pairs(state, sweep.radix) for state in sweep.states(-1)]
        assert sorted(swept) == sorted(level)
        assert sweep.counts == [_count(*zip(*state)) for state in swept] + [0]


def test_partial_solves_count_terminal_states_once(monkeypatch):
    # the _count cache is process-global and unbounded, so a fallback to it
    # per terminal state, or a recount per sense, must show
    _count.cache_clear()
    best = solve_partial(DeckSpec(3, 5)).value
    assert _count.cache_info().currsize <= 1
    spied = Counter()

    def spy(name):
        real = getattr(exact, name)

        def wrapper(*args):
            spied[name] += 1
            return real(*args)

        monkeypatch.setattr(exact, name, wrapper)

    spy("_terminal_counts")
    spy("_count")
    values = partial_values_or_none(DeckSpec(3, 5), DEFAULT_STATE_LIMIT)
    # one count of level 0 for both senses, and one root check per up pass
    assert spied == {"_terminal_counts": 1, "_count": 2}
    assert values["max"] == best


def test_partial_pinned_values():
    assert optimal_partial(DeckSpec(1, 2)) == Fraction(3, 2)
    assert optimal_partial(DeckSpec(1, 3)) == Fraction(5, 3)
    assert optimal_partial(DeckSpec(2, 2)) == Fraction(17, 6)


def test_two_types_partial_collapses_to_complete():
    # a correctness bit identifies the drawn card when only two types exist
    for m in range(1, 5):
        spec = DeckSpec(m, 2)
        for sense in ("max", "min"):
            assert optimal_partial(spec, sense) == optimal_complete(spec, sense)


def test_partial_dp_matches_expectimax():
    for spec in enumerable_specs(720):
        for sense in ("max", "min"):
            assert solve_partial(spec, sense).value == expectimax_value(spec, sense)


def test_value_sandwich():
    for spec in enumerable_specs(2520):
        if spec.num_types < 2:
            continue
        m = Fraction(spec.multiplicity)
        pmax, pmin = optimal_partial(spec, "max"), optimal_partial(spec, "min")
        cmax, cmin = optimal_complete(spec, "max"), optimal_complete(spec, "min")
        assert cmin <= pmin <= m <= pmax <= cmax


def _scripted_factory(seed):
    """Deterministic tally-driven strategy with arbitrary seeded choices."""

    def factory(deck):
        class Scripted:
            model = FeedbackModel.PARTIAL

            def __init__(self):
                self.remaining = [deck.multiplicity] * deck.num_types
                self.wrong = [0] * deck.num_types
                self._last = 1

            def next_guess(self):
                state = (seed, tuple(self.remaining), tuple(self.wrong))
                self._last = random.Random(repr(state)).randint(1, deck.num_types)
                return self._last

            def observe(self, obs):
                if obs:
                    self.remaining[self._last - 1] -= 1
                else:
                    self.wrong[self._last - 1] += 1

        return Scripted()

    return factory


def test_arbitrary_strategies_lie_between_optima():
    for spec in [DeckSpec(2, 2), DeckSpec(1, 4)]:
        lo, hi = optimal_partial(spec, "min"), optimal_partial(spec, "max")
        for seed in range(10):
            value = brute_value(spec, _scripted_factory(seed), FeedbackModel.PARTIAL)
            assert lo <= value <= hi


def test_policy_player_achieves_dp_value():
    for m, n in [(1, 3), (2, 2)]:
        spec = DeckSpec(m, n)
        solution = solve_partial(spec, "max")
        policy = swept_policy(spec, "max")
        value = brute_value(spec, lambda deck: PolicyPlayer(spec, policy), FeedbackModel.PARTIAL)
        assert value == solution.value


def test_persistence_holds_on_small_specs():
    for m, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]:
        assert probe_persistence(DeckSpec(m, n)) == []


def test_persistence_probe_matches_reference():
    for m, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
        spec = DeckSpec(m, n)
        assert probe_persistence(spec) == recursive_probe_persistence(spec)


# probe_persistence on (3,3) after every max policy holding (3, 2) swaps it
# for the state's other pairs, as (state, guess, successor, successor
# optimal) in the order the walk finds them
SWAPPED_POLICY_VIOLATIONS = [
    (((3, 0), (3, 0), (3, 1)), (3, 1), ((3, 0), (3, 0), (3, 2)), ((3, 0),)),
    (((3, 0), (3, 1), (3, 2)), (3, 1), ((3, 0), (3, 2), (3, 2)), ((3, 0),)),
    (((3, 1), (3, 2), (3, 2)), (3, 1), ((3, 2), (3, 2), (3, 2)), ()),
    (((2, 1), (3, 1), (3, 2)), (3, 1), ((2, 1), (3, 2), (3, 2)), ((2, 1),)),
    (((2, 2), (3, 1), (3, 2)), (3, 1), ((2, 2), (3, 2), (3, 2)), ((2, 2),)),
    (((2, 3), (3, 1), (3, 2)), (3, 1), ((2, 3), (3, 2), (3, 2)), ((2, 3),)),
    (((1, 2), (3, 1), (3, 2)), (3, 1), ((1, 2), (3, 2), (3, 2)), ((1, 2),)),
    (((1, 1), (3, 1), (3, 2)), (3, 1), ((1, 1), (3, 2), (3, 2)), ((1, 1),)),
    (((0, 1), (3, 1), (3, 2)), (3, 1), ((0, 1), (3, 2), (3, 2)), ((0, 1),)),
    (((3, 1), (3, 1), (3, 2)), (3, 1), ((3, 1), (3, 2), (3, 2)), ((3, 1),)),
    (((2, 0), (3, 1), (3, 2)), (3, 1), ((2, 0), (3, 2), (3, 2)), ((2, 0),)),
    (((1, 0), (3, 1), (3, 2)), (3, 1), ((1, 0), (3, 2), (3, 2)), ((1, 0),)),
    (((0, 0), (3, 1), (3, 2)), (3, 1), ((0, 0), (3, 2), (3, 2)), ((0, 0),)),
    (((2, 1), (3, 0), (3, 1)), (3, 1), ((2, 1), (3, 0), (3, 2)), ((2, 1), (3, 0))),
    (((2, 1), (2, 1), (3, 1)), (3, 1), ((2, 1), (2, 1), (3, 2)), ((2, 1),)),
    (((2, 0), (2, 1), (3, 1)), (3, 1), ((2, 0), (2, 1), (3, 2)), ((2, 0), (2, 1))),
    (((1, 2), (2, 0), (3, 1)), (3, 1), ((1, 2), (2, 0), (3, 2)), ((1, 2), (2, 0))),
    (((1, 1), (2, 0), (3, 1)), (3, 1), ((1, 1), (2, 0), (3, 2)), ((1, 1), (2, 0))),
    (((2, 0), (3, 0), (3, 1)), (3, 1), ((2, 0), (3, 0), (3, 2)), ((2, 0), (3, 0))),
    (((2, 0), (2, 0), (3, 1)), (3, 1), ((2, 0), (2, 0), (3, 2)), ((2, 0),)),
]


def test_persistence_probe_walks_in_depth_first_order(monkeypatch):
    # optimal play persists on every spec above, so only a policy changed
    # after the solve gives the walk violations to list in order
    optimal_guesses = exact._optimal_guesses
    dropped = (3, 2)

    def swapped(sweep, weights, sense, level, rank):
        optimal = optimal_guesses(sweep, weights, sense, level, rank)
        if all(pair != dropped for pair, _, _ in optimal):
            return optimal
        # every guess of the state but the dropped one, with its successors
        hits, misses = sweep.moves(level, rank)
        pairs = dict.fromkeys(exact._pairs(sweep.state(level, rank), sweep.radix))
        return [g for g in zip(pairs, hits, misses) if g[0] != dropped]

    monkeypatch.setattr(exact, "_optimal_guesses", swapped)
    got = [
        (v.state, v.guess, v.successor, v.successor_optimal)
        for v in probe_persistence(DeckSpec(3, 3))
    ]
    assert got == SWAPPED_POLICY_VIOLATIONS


def test_persistence_probe_reads_only_walked_states(monkeypatch):
    # (4,4) has 16,145 non-terminal states, and optimal play reaches
    # about a tenth of them; each is read once
    optimal_guesses = exact._optimal_guesses
    calls = []

    def spy(sweep, weights, sense, level, rank):
        calls.append((level, rank))
        return optimal_guesses(sweep, weights, sense, level, rank)

    monkeypatch.setattr(exact, "_optimal_guesses", spy)
    assert probe_persistence(DeckSpec(4, 4)) == []
    assert 0 < len(calls) == len(set(calls)) < len(swept_policy(DeckSpec(4, 4))) == 16_145


def test_exact_chain_mean():
    assert exact_chain_mean(DeckSpec(1, 2)) == Fraction(3, 2)
    assert exact_chain_mean(DeckSpec(2, 2)) == Fraction(11, 6)
    decks = all_shuffles(2, 3)
    expected = Fraction(sum(brute_chain(d) for d in decks), len(decks))
    assert exact_chain_mean(DeckSpec(2, 3)) == expected


def test_first_third_distribution_known_points():
    pmf = first_third_distribution(DeckSpec(2, 3), StrategySpec(StrategyId.NOFB_CYCLIC))
    assert pmf == {0: Fraction(7, 15), 1: Fraction(2, 5), 2: Fraction(2, 15)}
    pmf = first_third_distribution(DeckSpec(1, 3), StrategySpec(StrategyId.NOFB_CONSTANT))
    assert pmf == {0: Fraction(2, 3), 1: Fraction(1, 3)}
    for strategy in (StrategySpec(StrategyId.PARTIAL_MLE), StrategySpec(StrategyId.PARTIAL_LADDER)):
        assert sum(first_third_distribution(DeckSpec(2, 3), strategy).values()) == 1


def test_first_third_distribution_matches_reference_prefix_play():
    # the kernels score prefixes: cyclic sizes its pattern by the prefix and
    # two-phase counts a non-switching row's late 1s rather than returning m
    specs = [s for s in enumerable_specs(720) if s.num_types >= 2]
    for spec in specs:
        decks = list(iter_shuffles(spec))
        cutoff = spec.total // 3
        for sspec in deterministic_strategies(spec):
            hist = Counter(
                play(make_oracle(sspec, spec), sspec.native_model, deck[:cutoff]) for deck in decks
            )
            want = {k: Fraction(hist[k], len(decks)) for k in sorted(hist)}
            assert first_third_distribution(spec, sspec) == want, (spec, sspec.label())


def test_exact_value_matches_reference_play_under_every_model():
    specs = [DeckSpec(m, n) for m in range(1, 9) for n in range(1, 8 // m + 1)]
    for spec in specs:
        for sspec in deterministic_strategies(spec):
            for model in FeedbackModel:
                try:
                    _resolve_model(sspec, model)
                except ValueError:
                    continue  # a model this strategy cannot play under
                want = brute_value(spec, lambda deck: make_oracle(sspec, deck), model)
                assert exact_value(spec, sspec, model) == want, (spec, sspec.label(), model)


def test_first_third_distribution_rejects_randomized():
    with pytest.raises(ValueError):
        first_third_distribution(DeckSpec(2, 3), StrategySpec(StrategyId.PARTIAL_UNIFORM))


def test_constraint_grid_matches_naive_filter():
    from guessbench.combinatorics import ConstraintState

    # both walk type counts, then remaining and forbidden lexicographically
    naive = []
    for remaining, forbidden in small_constraint_states(4, 3):
        try:
            ConstraintState(remaining, forbidden)
        except ValueError:
            continue
        naive.append((remaining, forbidden))
    grid = [(s.remaining, s.forbidden) for s in iter_constraint_grid(4, 3)]
    assert grid == naive


def test_verify_pointwise_small_grid():
    report = verify_pointwise(6)
    assert report.passed
    assert report.max_ratio == 1
    assert report.states_checked == sum(1 for _ in iter_constraint_grid(6))
    assert report.witnesses
    assert report.witness_count >= len(report.witnesses)


def test_verify_pointwise_matches_reference():
    # the same max ratio, witnesses in grid order, witness count and states
    for max_total in range(1, 7):
        for max_types in range(1, 5):
            for cap in (1, 64):
                assert verify_pointwise(max_total, max_types, cap) == reference_verify_pointwise(
                    max_total, max_types, cap
                )


def test_pair_multiset_count_matches_the_listing():
    for total in range(1, 13):
        for max_types in range(1, 5):
            listed = sum(1 for _ in exact._pair_multisets(total, max_types))
            assert exact._pair_multiset_count(total, max_types) == listed, (total, max_types)


def test_multiset_walk_matches_the_ordered_sweep():
    cases = [(max_total, 4, cap) for max_total in range(1, 9) for cap in (1, 64)]
    cases += [(max_total, max_types, cap) for max_total in range(1, 7)
              for max_types in range(1, 5) for cap in (1, 64)]
    for case in cases:
        assert verify_pointwise(*case) == ordered_verify_pointwise(*case), case


def test_multiset_walk_matches_the_ordered_sweep_on_a_fail(monkeypatch):
    # two maximal three-type multisets, one with a repeated pair, and one
    # two-type multiset: the witnesses span type counts and orderings
    ratios = exact._pointwise_ratios
    boosted = {
        ((0, 1), (1, 0), (2, 0)): [(1, 0)],
        ((1, 0), (1, 0), (1, 1)): [(1, 0), (1, 1)],
        ((1, 1), (3, 0)): [(3, 0)],
    }

    def patched(pairs):
        out = ratios(pairs)
        for pair in boosted.get(pairs, ()):
            out[pair] = (3, 2)
        return out

    monkeypatch.setattr(exact, "_pointwise_ratios", patched)
    for cap in (1, 4, 64):
        report = verify_pointwise(5, 4, cap)
        assert report == ordered_verify_pointwise(5, 4, cap)
        assert report.max_ratio == Fraction(3, 2) and not report.passed
    # 6 orderings with one witness each, 3 with three and 2 with one
    assert report.witness_count == 6 + 9 + 2
    assert len(report.witnesses) == 17


def test_enumeration_limits_and_misuse():
    with pytest.raises(ValueError, match="exceed"):
        exact_value(DeckSpec(4, 13), GREEDY_MAX)
    with pytest.raises(ValueError, match="exceed"):
        expectimax_value(DeckSpec(3, 4))
    with pytest.raises(RuntimeError, match="states"):
        solve_partial(DeckSpec(4, 4), state_limit=10)
    with pytest.raises(ValueError, match="randomized"):
        exact_value(DeckSpec(2, 2), StrategySpec(StrategyId.PARTIAL_UNIFORM))
    with pytest.raises(ValueError, match="cannot play"):
        exact_value(DeckSpec(2, 2), StrategySpec(StrategyId.PARTIAL_MLE), model=FeedbackModel.COMPLETE)


def test_no_feedback_strategy_under_complete_model():
    value = exact_value(
        DeckSpec(2, 3), StrategySpec(StrategyId.NOFB_CONSTANT), model=FeedbackModel.COMPLETE
    )
    assert value == 2
