import math
import time
from fractions import Fraction

import numpy as np
import pytest

import guessbench.montecarlo as mc
from guessbench.combinatorics import (
    ConstraintState,
    _count,
    _packing,
    binomial_pmf,
    last_card_fraction,
    next_card_counts,
    shuffle_count,
)
from guessbench.core import DeckSpec
from guessbench.exact import solve_partial
from oracles import (
    PartialMle,
    all_shuffles,
    brute_binomial,
    brute_count,
    brute_last_card,
    iter_arrangements,
    iter_constraint_grid,
    reference_count,
    reference_next_card_counts,
    reference_polynomials,
    replayed_decks,
    satisfying_words,
    small_constraint_states,
)


def test_count_known_examples():
    assert _count((2, 2), (0, 0)) == 6
    assert _count((1, 1), (1, 0)) == 1
    assert _count((2, 1), (0, 2)) == 1
    assert _count((1,), (0,)) == 1
    # fully banned: every slot excludes the only type
    assert _count((2,), (2,)) == 0


def test_known_example_words():
    assert list(iter_arrangements(ConstraintState((1, 1), (1, 0)))) == [(2, 1)]
    assert list(iter_arrangements(ConstraintState((2, 1), (0, 2)))) == [(1, 1, 2)]


def test_count_matches_brute_force_everywhere():
    # raw _count accepts any vectors with sum(forbidden) <= sum(remaining),
    # including states no valid game reaches
    checked = 0
    for remaining, forbidden in small_constraint_states(5, 3):
        assert _count(remaining, forbidden) == brute_count(remaining, forbidden)
        checked += 1
    assert checked > 2000


def test_iter_arrangements_matches_filterset():
    for remaining, forbidden in [
        ((2, 2), (1, 0)),
        ((1, 2, 1), (1, 1, 0)),
        ((3, 1), (0, 2)),
        ((2, 1, 1), (2, 0, 0)),
    ]:
        state = ConstraintState(remaining, forbidden)
        words = list(iter_arrangements(state))
        assert words == satisfying_words(remaining, forbidden)
        assert len(words) == _count(remaining, forbidden)


def test_count_last_letter_recurrence():
    # split on the final letter: either it is type i (drop a copy) or it is
    # not (ban one more slot); both reduce to smaller counts
    for remaining, forbidden in small_constraint_states(5, 3):
        if sum(forbidden) >= sum(remaining):
            continue
        total = _count(remaining, forbidden)
        for i, m_i in enumerate(remaining):
            if m_i == 0:
                continue
            dropped = remaining[:i] + (m_i - 1,) + remaining[i + 1 :]
            banned = forbidden[:i] + (forbidden[i] + 1,) + forbidden[i + 1 :]
            assert total == _count(dropped, forbidden) + _count(remaining, banned)


def test_constraint_state_validity():
    ConstraintState((2, 0), (0, 1))
    ConstraintState((1,), (0,))
    with pytest.raises(ValueError):
        ConstraintState((1, 2), (1,))
    with pytest.raises(ValueError):
        ConstraintState((), ())
    with pytest.raises(ValueError):
        ConstraintState((1, -1), (0, 0))
    with pytest.raises(ValueError):
        ConstraintState((1, 1), (0, -1))
    with pytest.raises(ValueError):
        ConstraintState((1, 1), (1, 1))
    # more banned slots for a type than cards of other types
    with pytest.raises(ValueError):
        ConstraintState((2,), (1,))
    with pytest.raises(ValueError):
        ConstraintState((2, 2), (0, 3))


def test_valid_states_have_arrangements():
    for remaining, forbidden in small_constraint_states(5, 3):
        try:
            state = ConstraintState(remaining, forbidden)
        except ValueError:
            continue
        assert _count(remaining, forbidden) >= 1


def last_card_fractions(state):
    return tuple(last_card_fraction(state, card) for card in range(1, state.num_types + 1))


def test_next_card_distribution_matches_brute():
    for remaining, forbidden in [
        ((1, 1, 1), (1, 0, 0)),
        ((2, 0), (0, 1)),
        ((2, 2), (1, 0)),
        ((1, 2, 2), (1, 2, 0)),
        ((3, 2), (1, 1)),
    ]:
        state = ConstraintState(remaining, forbidden)
        dist = last_card_fractions(state)
        assert dist == brute_last_card(remaining, forbidden)
        assert sum(dist) == 1


def test_next_card_distribution_spec_points():
    assert last_card_fractions(ConstraintState((1, 1, 1), (1, 0, 0))) == (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    )
    assert last_card_fractions(ConstraintState((2, 0), (0, 1))) == (
        Fraction(1),
        Fraction(0),
    )


def test_last_card_fraction_bounds_and_errors():
    state = ConstraintState((2, 2), (1, 0))
    with pytest.raises(ValueError):
        last_card_fraction(state, 0)
    with pytest.raises(ValueError):
        last_card_fraction(state, 3)
    assert last_card_fraction(ConstraintState((2, 0), (0, 1)), 2) == 0


def test_next_card_counts_match_reduced_counts():
    # includes types with more banned slots than copies and exhausted types
    for state in iter_constraint_grid(8):
        remaining, forbidden = state.remaining, state.forbidden
        pairs = tuple(zip(remaining, forbidden))
        by_pair = next_card_counts(pairs)
        assert set(by_pair) == set(pairs)
        counts = [by_pair[pair] for pair in pairs]
        expected = [
            _count(remaining[:i] + (m_i - 1,) + remaining[i + 1 :], forbidden) if m_i else 0
            for i, m_i in enumerate(remaining)
        ]
        assert counts == expected
        assert sum(counts) == _count(remaining, forbidden)
    with pytest.raises(ValueError):
        next_card_counts(((1, 1), (1, 1)))


def mle_states(spec, trials, seed):
    """Every state partial-mle and partial-min-mle meet on the replayed decks."""
    word = np.array(spec.canonical_word(), dtype=np.int16)
    states = set()
    for deck in replayed_decks(word, trials, seed, mc._DECK_TAG, mc.BLOCK_SIZE):
        for maximize in (True, False):
            player = PartialMle(spec, maximize)
            for card in deck:
                states.add(tuple(sorted(zip(player.remaining, player.wrong))))
                player.observe(player.next_guess() == card)
    return states


def wide_states():
    """States whose inclusion-exclusion coefficients are large for their size."""
    states = set()
    for m in range(1, 17):
        states.update(solve_partial(DeckSpec(m, 1), "max").values)
    for n in range(1, 13):
        states.update(solve_partial(DeckSpec(1, n), "max").values)
    for n in range(2, 21):
        states |= mle_states(DeckSpec(1, n), 3, n)
        # every wrong guess on one type, and one on each type but the last
        states.add(tuple(sorted(((1, n - 1),) + ((1, 0),) * (n - 1))))
        states.add(tuple(sorted(((1, 1),) * (n - 1) + ((1, 0),))))
    # a type with few copies left and many more misses (a_i >> m_i)
    for m_i in (1, 2, 3):
        for a_i in (10, 25, 50):
            states.add(((m_i, a_i), (m_i, a_i // 2), (a_i + a_i // 2 + 1, 0)))
            states.add(((m_i, a_i), (a_i, 0)))
            states.add(((1, a_i),) * 3 + ((3 * a_i, 0),))
    return states


@pytest.mark.parametrize("source", ["mle-4x13", "mle-2x20", "wide"])
def test_packed_counts_match_list_polynomials(source):
    # the packed digits must never carry: every coefficient of the product,
    # of each quotient and of each reduced product stays below 2^(B - 1)
    if source == "wide":
        states = wide_states()
    else:
        m, n = (4, 13) if source == "mle-4x13" else (2, 20)
        states = mle_states(DeckSpec(m, n), 20, 5)
    checked = 0
    for pairs in states:
        remaining, forbidden = zip(*pairs)
        shift = _packing(remaining, forbidden)[0]
        polys = reference_polynomials(pairs)
        assert max(abs(c) for poly in polys.values() for c in poly) < 2 ** (shift - 1)
        assert _count(remaining, forbidden) == reference_count(remaining, forbidden)
        if sum(forbidden) < sum(remaining):
            assert next_card_counts(pairs) == reference_next_card_counts(pairs)
            checked += 1
    assert checked > 500


def test_shuffle_count():
    assert shuffle_count(DeckSpec(2, 2)) == 6
    assert shuffle_count(DeckSpec(1, 4)) == 24
    for m, n in [(2, 3), (3, 2), (2, 4)]:
        assert shuffle_count(DeckSpec(m, n)) == len(all_shuffles(m, n))
    for m in range(1, 7):
        for n in range(1, 7):
            spec = DeckSpec(m, n)
            count = shuffle_count(spec)
            assert count == math.factorial(m * n) // math.factorial(m) ** n
            assert shuffle_count(spec, count) == count
            assert shuffle_count(spec, count - 1) is None
    # decks whose counts run to millions of digits are refused at once
    start = time.perf_counter()
    for m, n in [(20_000, 50), (10**6, 2), (1, 10**6)]:
        assert shuffle_count(DeckSpec(m, n), 10**6) is None
    assert time.perf_counter() - start < 1


def test_binomial_pmf():
    p = Fraction(1, 3)
    assert sum(binomial_pmf(6, p, k) for k in range(7)) == 1
    for k in range(7):
        assert binomial_pmf(6, p, k) == brute_binomial(6, p, k)
    assert binomial_pmf(4, Fraction(0), 0) == 1
    assert binomial_pmf(4, Fraction(1), 4) == 1
    assert binomial_pmf(4, p, 9) == 0
