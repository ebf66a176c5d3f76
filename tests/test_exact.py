import random
from collections import Counter
from fractions import Fraction

import pytest

from guessbench.combinatorics import shuffle_count
from guessbench.core import DeckSpec, FeedbackModel
from guessbench.exact import (
    _partial_state_floor,
    enumerable_specs,
    exact_chain_mean,
    exact_value,
    first_third_distribution,
    iter_shuffles,
    optimal_complete,
    optimal_partial,
    probe_persistence,
    solve_partial,
    verify_pointwise,
)
from guessbench.strategies import _STRATEGIES, StrategyId, StrategySpec, compatible
from oracles import (
    PolicyPlayer,
    all_shuffles,
    brute_chain,
    brute_value,
    expectimax_value,
    iter_constraint_grid,
    make_oracle,
    play,
    recursive_optimal_complete,
    recursive_probe_persistence,
    recursive_solve_partial,
    reference_verify_pointwise,
    small_constraint_states,
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
                got = solve_partial(spec, sense, track_policy=True)
                want = recursive_solve_partial(spec, sense, track_policy=True)
                assert got.value == want.value
                assert got.values == want.values
                assert got.policy == want.policy
                assert _partial_state_floor(spec) <= len(got.values)
    for m in range(1, 7):
        for n in range(1, 7):
            for sense in ("max", "min"):
                spec = DeckSpec(m, n)
                assert optimal_complete(spec, sense) == recursive_optimal_complete(spec, sense)


def test_deep_decks_need_no_recursion():
    harmonic = sum(Fraction(1, k) for k in range(1, 1501))
    assert optimal_complete(DeckSpec(1, 1500), "max") == harmonic
    assert optimal_partial(DeckSpec(1200, 1), "max") == 1200
    assert optimal_partial(DeckSpec(1200, 1), "min") == 1200


def test_state_limits_fail_before_the_search():
    with pytest.raises(RuntimeError, match="more than 400000 partial states"):
        optimal_partial(DeckSpec(1, 1500))
    assert _partial_state_floor(DeckSpec(1, 1500)) == 1_127_250


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
        solution = solve_partial(spec, "max", track_policy=True)
        value = brute_value(spec, lambda deck: PolicyPlayer(solution), FeedbackModel.PARTIAL)
        assert value == solution.value


def test_policy_player_requires_policy():
    solution = solve_partial(DeckSpec(1, 2), "max")
    with pytest.raises(ValueError):
        PolicyPlayer(solution)


def test_persistence_holds_on_small_specs():
    for m, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2)]:
        assert probe_persistence(DeckSpec(m, n)) == []


def test_persistence_probe_matches_reference():
    for m, n in [(1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4)]:
        spec = DeckSpec(m, n)
        assert probe_persistence(spec) == recursive_probe_persistence(spec)


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
                if compatible(sspec, model):
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
