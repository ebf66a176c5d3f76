import re
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import guessbench.montecarlo as mc
from guessbench.combinatorics import _state_codes, _state_layout
from guessbench.core import DeckSpec, FeedbackModel
from guessbench.exact import enumerable_specs, exact_value, solve_partial
from guessbench.strategies import (
    _BEST_MEMO,
    _DIST_CACHE,
    _GUESS_MEMO,
    _KERNELS,
    _STRATEGIES,
    StrategyId,
    StrategySpec,
    _mle_guess_at,
    compatible,
    make_strategy,
    parse_strategy,
    posterior_by_pair,
)
from oracles import (
    ReferencePartialMle,
    all_shuffles,
    make_oracle,
    observe,
    reference_posterior_by_pair,
    replayed_decks,
)
from oracles import play as reference_play


def play(spec, model, sspec, deck):
    """Guesses and score of the reference strategy on ``deck``; the score
    must equal the package kernel's."""
    strat = make_oracle(sspec, spec)
    guesses, score = [], 0
    for card in deck:
        g = strat.next_guess()
        guesses.append(g)
        score += g == card
        strat.observe(observe(model, g, card))
    assert score == kernel_scores(sspec, spec, [deck])[0]
    return guesses, score


def kernel_scores(sspec, spec, decks):
    return make_strategy(sspec, spec)(np.array(decks, dtype=np.int16)).tolist()


def layout_key(spec, pairs):
    """The ``_state_layout`` key of the labelled state ``pairs``."""
    width, _, places, _, _ = _state_layout(spec)
    return sum((m * width + a) * place for (m, a), place in zip(pairs, places))


def layout_pairs(spec, key):
    """The labelled (remaining, wrong) pairs of a ``_state_layout`` key."""
    width, base = _state_layout(spec)[:2]
    return [divmod(code, width) for code in _state_codes(key, spec.num_types, base)]


def kernel_guess(spec, pairs, maximize, best=None):
    """The partial-mle kernel's guess on the labelled state ``pairs``, with
    ``best`` as its canonical memo, a fresh one when None."""
    width, base = _state_layout(spec)[:2]
    best = {} if best is None else best
    return _mle_guess_at(layout_key(spec, pairs), spec.num_types, width, base, best, maximize)


@pytest.mark.parametrize(
    "text",
    [
        "complete-greedy-max",
        "nofb-constant:card=3",
        "partial-two-phase:phase=7,threshold=4.5",
        "partial-uniform:seed=11",
        "partial-ladder",
    ],
)
def test_parse_round_trips(text):
    spec = parse_strategy(text)
    assert parse_strategy(spec.label()) == spec


def test_parse_rejects_unknown():
    with pytest.raises(ValueError, match="unknown strategy"):
        parse_strategy("greedy")
    with pytest.raises(ValueError, match="bad strategy parameter"):
        parse_strategy("nofb-constant:deck=3")
    with pytest.raises(ValueError, match="bad strategy parameter"):
        parse_strategy("nofb-constant:card")


@pytest.mark.parametrize(
    "text",
    [
        "partial-mle:card=2",
        "partial-mle:threshold=auto",
        "nofb-cyclic:card=1",
        "nofb-constant:seed=3",
        "partial-uniform:card=1",
        "partial-two-phase:card=2",
        "partial-two-phase:seed=4",
        "complete-greedy-max:phase=3",
    ],
)
def test_parameters_a_strategy_does_not_read_are_rejected(text):
    name, _, param = text.partition(":")
    message = f"{name} does not read parameter {param.partition('=')[0]}"
    with pytest.raises(ValueError, match=message):
        parse_strategy(text)
    spec = parse_strategy(name)
    key, _, value = param.partition("=")
    if value != "auto":
        with pytest.raises(ValueError, match=message):
            make_strategy(StrategySpec(spec.id, **{key: int(value)}), DeckSpec(2, 2))


@pytest.mark.parametrize(
    "text,message",
    [
        ("partial-two-phase:phase=abc", "bad value 'abc' for strategy parameter phase"),
        ("partial-two-phase:threshold=abc", "bad value 'abc' for strategy parameter threshold"),
        ("partial-uniform:seed=1.5", "bad value '1.5' for strategy parameter seed"),
        ("nofb-constant:card=2,card=3", "strategy parameter card is given twice"),
        ("partial-two-phase:threshold=auto,threshold=3", "parameter threshold is given twice"),
        ("partial-two-phase:threshold=nan", "threshold must be a number, not nan"),
        ("partial-two-phase:threshold=inf", "threshold must be finite"),
        ("partial-two-phase:threshold=-1e400", "threshold must be finite"),
        ("partial-uniform:seed=-1", "seed must be nonnegative"),
    ],
)
def test_parse_names_the_bad_parameter(text, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_strategy(text)


def test_readme_strategy_table_matches_strategies():
    ids, rows = {sid.value for sid in StrategyId}, {}
    readme = Path(__file__).resolve().parent.parent / "README.md"
    for line in readme.read_text().splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].strip("`") in ids:
            rows[cells[0].strip("`")] = (cells[1], re.findall(r"`(\w+)`", cells[2]))
    assert rows == {
        sid.value: (kind.model.value, list(kind.defaults)) for sid, kind in _STRATEGIES.items()
    }


def test_parse_threshold_auto():
    spec = parse_strategy("partial-two-phase:threshold=auto")
    assert spec.threshold is None


def test_native_models_and_determinism():
    assert StrategySpec(StrategyId.NOFB_CYCLIC).native_model is FeedbackModel.NONE
    assert StrategySpec(StrategyId.PARTIAL_MLE).native_model is FeedbackModel.PARTIAL
    assert (
        StrategySpec(StrategyId.COMPLETE_GREEDY_MIN).native_model
        is FeedbackModel.COMPLETE
    )
    assert StrategySpec(StrategyId.PARTIAL_UNIFORM).deterministic is False
    assert StrategySpec(StrategyId.PARTIAL_TWO_PHASE).deterministic is True


def test_greedy_max_trace_on_1212():
    deck = DeckSpec(2, 2)
    guesses, score = play(
        deck, FeedbackModel.COMPLETE, StrategySpec(StrategyId.COMPLETE_GREEDY_MAX), (1, 2, 1, 2)
    )
    assert guesses == [1, 2, 1, 2]
    assert score == 4


def test_greedy_max_per_deck_scores():
    # all six decks of (2,2) in lexicographic order, traced by hand
    deck = DeckSpec(2, 2)
    greedy = StrategySpec(StrategyId.COMPLETE_GREEDY_MAX)
    scores = kernel_scores(greedy, deck, all_shuffles(2, 2))
    assert [play(deck, FeedbackModel.COMPLETE, greedy, w)[1] for w in all_shuffles(2, 2)] == scores
    assert scores == [3, 4, 3, 3, 2, 2]
    assert Fraction(sum(scores), 6) == Fraction(17, 6)


def test_greedy_min_dodges_exhausted_types():
    deck = DeckSpec(1, 3)
    guesses, score = play(
        deck, FeedbackModel.COMPLETE, StrategySpec(StrategyId.COMPLETE_GREEDY_MIN), (2, 1, 3)
    )
    # after seeing card 2 the min count is type 2's zero, a guaranteed miss;
    # once type 1 is also spent the tie reverts to the lowest index
    assert guesses == [1, 2, 1]
    assert score == 0


def test_nofb_constant_and_cyclic():
    deck = DeckSpec(2, 3)
    word = (1, 2, 3, 3, 2, 1)
    model = FeedbackModel.NONE
    assert play(deck, model, StrategySpec(StrategyId.NOFB_CONSTANT), word) == ([1] * 6, 2)
    assert play(deck, model, StrategySpec(StrategyId.NOFB_CONSTANT, card=3), word) == ([3] * 6, 2)
    assert play(deck, model, StrategySpec(StrategyId.NOFB_CYCLIC), word) == ([1, 2, 3] * 2, 4)
    # the cyclic pattern restarts with each deck and is cut to the prefix
    cyclic = StrategySpec(StrategyId.NOFB_CYCLIC)
    assert kernel_scores(cyclic, deck, [word[:4], word[2:6]]) == [3, 1]


def test_posterior_by_pair_known_points():
    assert posterior_by_pair([1, 1, 1], [1, 0, 0]) == [
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 4),
    ]
    assert posterior_by_pair([2, 0], [0, 1]) == [Fraction(1), Fraction(0)]
    # relabeled types reuse the same pair multiset
    assert posterior_by_pair([1, 1, 1], [0, 1, 0]) == [
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    ]


def test_mle_matches_reference_on_solver_states():
    # every non-terminal state the partial solver visits, each under its
    # sorted, reversed and rotated labellings
    specs = [DeckSpec(m, n) for m in range(1, 13) for n in range(1, 12 // m + 1)]
    checked = 0
    for spec in specs:
        # one canonical memo per sense, shared by a state's labellings
        memos = {True: {}, False: {}}
        for state in solve_partial(spec, "max").values:
            if sum(p[1] for p in state) == sum(p[0] for p in state):
                continue
            for labelled in (state, state[::-1], state[1:] + state[:1]):
                remaining = [p[0] for p in labelled]
                wrong = [p[1] for p in labelled]
                expected = reference_posterior_by_pair(remaining, wrong)
                assert posterior_by_pair(remaining, wrong) == expected
                for maximize, pick in ((True, max), (False, min)):
                    guess = kernel_guess(spec, labelled, maximize, memos[maximize])
                    assert guess == expected.index(pick(expected))
            checked += 1
    assert checked > 10_000


def test_mle_picks_posterior_mode_and_persists():
    deck = DeckSpec(2, 2)
    assert kernel_guess(deck, [(2, 0), (2, 0)], True) == 0
    # a missed type stays the most likely next card here
    assert kernel_guess(deck, [(2, 1), (2, 0)], True) == 0
    mle = StrategySpec(StrategyId.PARTIAL_MLE)
    guesses, score = play(deck, FeedbackModel.PARTIAL, mle, (2, 1, 2, 1))
    assert guesses == [1, 1, 1, 1]
    assert score == 2


def test_min_mle_picks_least_likely():
    assert kernel_guess(DeckSpec(1, 3), [(1, 0), (1, 0), (1, 0)], False) == 0
    # type 1 missed once: its posterior 1/2 beats 1/4, so min play avoids it
    assert kernel_guess(DeckSpec(1, 3), [(1, 1), (1, 0), (1, 0)], False) == 1
    guesses, score = play(
        DeckSpec(1, 3), FeedbackModel.PARTIAL, StrategySpec(StrategyId.PARTIAL_MIN_MLE), (2, 1, 3)
    )
    assert guesses[:2] == [1, 2]


@pytest.mark.parametrize(
    "sid, maximize",
    [(StrategyId.PARTIAL_MLE, True), (StrategyId.PARTIAL_MIN_MLE, False)],
)
def test_mle_kernel_matches_reference_past_64_bit_keys(sid, maximize):
    # radix 5 * 53 = 265 at (4,13), so state keys run up to 265^13 > 2^104
    spec = DeckSpec(4, 13)
    word = np.array(spec.canonical_word(), dtype=np.int16)
    decks = replayed_decks(word, 20, 23, mc._DECK_TAG, mc.BLOCK_SIZE)
    expected = [
        reference_play(ReferencePartialMle(spec, maximize), FeedbackModel.PARTIAL, deck)
        for deck in decks
    ]
    assert _state_layout(spec)[4] > 2**64
    assert kernel_scores(StrategySpec(sid), spec, decks) == expected


def test_state_keys_round_trip_when_misses_pile_on_one_type():
    spec = DeckSpec(1, 30)
    _, _, misses, hits, start = _state_layout(spec)
    assert layout_pairs(spec, start) == [(1, 0)] * 30
    # all 29 misses on the last type, whose place is the key's highest
    key = start + 29 * misses[29] - hits[0]
    assert key > 2**64
    assert layout_pairs(spec, key) == [(0, 0)] + [(1, 0)] * 28 + [(1, 29)]
    # partial-mle keeps guessing a type while it misses, so a deck with
    # type 1 last piles every miss on type 1 and hits with the last card
    deck = tuple(range(2, 31)) + (1,)
    mle = StrategySpec(StrategyId.PARTIAL_MLE)
    assert play(spec, FeedbackModel.PARTIAL, mle, deck) == ([1] * 30, 1)
    piled = start + 29 * misses[0]
    assert layout_pairs(spec, piled) == [(1, 29)] + [(1, 0)] * 29
    assert _GUESS_MEMO[1, 30, True][piled] == 0


def _forget_mle_memos(spec, maximize):
    for memo in (_GUESS_MEMO, _BEST_MEMO):
        memo.pop((spec.multiplicity, spec.num_types, maximize), None)


@pytest.mark.parametrize("m", [2, 3])
def test_mle_guess_and_kernel_agree_on_tied_states(m):
    # every labelled state that any shuffle of (m,3) reaches, in both
    # senses: a tie between distinct pairs goes to the lowest type index
    spec = DeckSpec(m, 3)
    decks = all_shuffles(m, 3)
    for sid, maximize, pick in (
        (StrategyId.PARTIAL_MLE, True, max),
        (StrategyId.PARTIAL_MIN_MLE, False, min),
    ):
        _forget_mle_memos(spec, maximize)
        kernel_scores(StrategySpec(sid), spec, decks)
        for key, guess in _GUESS_MEMO[m, 3, maximize].items():
            pairs = layout_pairs(spec, key)
            assert guess == kernel_guess(spec, pairs, maximize)
            expected = reference_posterior_by_pair(*map(list, zip(*pairs)))
            assert guess == expected.index(pick(expected))
        assert any(isinstance(won, tuple) for won in _BEST_MEMO[m, 3, maximize].values())


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3), (3, 4)])
def test_mle_states_are_partial_solver_states(m, n):
    # the kernel and the exact DP write states in one layout: every labelled
    # state partial-mle guesses on over every shuffle, sorted, is a state
    # that the solver reaches
    spec = DeckSpec(m, n)
    solved = solve_partial(spec, "max").values
    for sid, maximize in ((StrategyId.PARTIAL_MLE, True), (StrategyId.PARTIAL_MIN_MLE, False)):
        _forget_mle_memos(spec, maximize)
        exact_value(spec, StrategySpec(sid))
        guessed = _GUESS_MEMO[m, n, maximize]
        assert guessed
        for key in guessed:
            assert tuple(sorted(layout_pairs(spec, key))) in solved


def test_mle_runs_leave_the_count_cache_empty():
    _DIST_CACHE.clear()
    for sid, maximize in ((StrategyId.PARTIAL_MLE, True), (StrategyId.PARTIAL_MIN_MLE, False)):
        for spec in (DeckSpec(2, 3), DeckSpec(3, 4)):
            _forget_mle_memos(spec, maximize)
        mc.estimate_value(DeckSpec(3, 4), None, StrategySpec(sid), 500, 3)
        exact_value(DeckSpec(2, 3), StrategySpec(sid))
        assert _BEST_MEMO[3, 4, maximize] and _BEST_MEMO[2, 3, maximize]
    assert _DIST_CACHE == {}


def test_mle_memos_stay_compact_per_labelled_state():
    # a small int per labelled state and a code per canonical state: about
    # 230 bytes per labelled state at the peak, where caching each canonical
    # state's next-card counts took about 730
    spec = DeckSpec(4, 13)
    decks = next(mc.deck_chunks(mc._deck_word(spec), [(0, 300)], 5))
    score = make_strategy(StrategySpec(StrategyId.PARTIAL_MLE), spec)
    _forget_mle_memos(spec, True)
    tracemalloc.start()
    try:
        score(decks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    states = len(_GUESS_MEMO[4, 13, True])
    assert states > 5_000
    assert peak < 270 * states


def test_uniform_strategy_draws_from_stream():
    deck = DeckSpec(2, 3)
    uniform = StrategySpec(StrategyId.PARTIAL_UNIFORM)
    decks = np.array(all_shuffles(2, 3), dtype=np.int16)

    def stream():
        return np.random.Generator(np.random.Philox(np.random.SeedSequence([5])))

    scores = make_strategy(uniform, deck, stream())(decks)
    assert scores.min() >= 0 and scores.max() <= deck.total
    # the same stream gives the same scores, one game's draws after another
    rng = stream()
    oracle = [
        sum(g == c for g, c in zip(make_oracle(uniform, deck, rng).guesses, word))
        for word in decks.tolist()
    ]
    assert scores.tolist() == oracle


def test_two_phase_defaults_never_switch_at_small_m():
    # threshold m/2 + sqrt(m) exceeds the phase hit maximum here, so the
    # strategy keeps guessing type 1 and scores exactly m on every deck
    deck = DeckSpec(2, 2)
    two_phase = StrategySpec(StrategyId.PARTIAL_TWO_PHASE)
    for word in all_shuffles(2, 2):
        assert play(deck, FeedbackModel.PARTIAL, two_phase, word)[1] == 2
    assert kernel_scores(two_phase, deck, all_shuffles(2, 2)) == [2] * 6
    # so for every m <= 3, where m/2 + sqrt(m) > m, the exact value is m
    specs = [s for s in enumerable_specs() if s.multiplicity <= 3 and s.num_types >= 2]
    assert len(specs) == 11
    for spec in specs:
        assert exact_value(spec, two_phase) == spec.multiplicity, spec
    # at m = 4 the threshold is exactly m, reached when the first half holds every 1
    assert exact_value(DeckSpec(4, 2), two_phase) == Fraction(142, 35)


def test_two_phase_explicit_switch():
    deck = DeckSpec(1, 2)
    spec = StrategySpec(StrategyId.PARTIAL_TWO_PHASE, phase=1, threshold=1.0)
    guesses, score = play(deck, FeedbackModel.PARTIAL, spec, (1, 2))
    assert guesses == [1, 2]
    assert score == 2
    guesses, score = play(deck, FeedbackModel.PARTIAL, spec, (2, 1))
    assert guesses == [1, 1]
    assert score == 1


def test_ladder_traces():
    ladder = StrategySpec(StrategyId.PARTIAL_LADDER)
    deck = DeckSpec(1, 2)
    guesses, score = play(deck, FeedbackModel.PARTIAL, ladder, (1, 2))
    assert guesses == [1, 2]
    assert score == 2

    deck = DeckSpec(2, 2)
    guesses, score = play(deck, FeedbackModel.PARTIAL, ladder, (2, 2, 1, 1))
    assert guesses == [1, 1, 1, 2]
    assert score == 1
    # the target caps at n: once type n is found it stays the guess
    guesses, score = play(deck, FeedbackModel.PARTIAL, ladder, (1, 2, 1, 2))
    assert guesses == [1, 2, 2, 2]
    assert score == 3


def test_make_strategy_validation():
    deck = DeckSpec(2, 2)
    with pytest.raises(ValueError):
        make_strategy(StrategySpec(StrategyId.NOFB_CONSTANT, card=5), deck)
    with pytest.raises(ValueError):
        make_strategy(StrategySpec(StrategyId.PARTIAL_TWO_PHASE, phase=9), deck)
    with pytest.raises(ValueError):
        make_strategy(StrategySpec(StrategyId.PARTIAL_TWO_PHASE), DeckSpec(3, 1))
    with pytest.raises(ValueError):
        make_strategy(StrategySpec(StrategyId.PARTIAL_UNIFORM, seed=-1), deck)


def test_compatibility_rules():
    nofb = StrategySpec(StrategyId.NOFB_CONSTANT)
    for model in FeedbackModel:
        assert compatible(nofb, model)
    mle = StrategySpec(StrategyId.PARTIAL_MLE)
    assert compatible(mle, FeedbackModel.PARTIAL)
    assert not compatible(mle, FeedbackModel.COMPLETE)
    assert not compatible(mle, FeedbackModel.NONE)
    greedy = StrategySpec(StrategyId.COMPLETE_GREEDY_MAX)
    assert compatible(greedy, FeedbackModel.COMPLETE)
    assert not compatible(greedy, FeedbackModel.PARTIAL)


def test_one_kernel_table_serves_every_strategy():
    # every strategy has exactly one implementation, and simulation reads
    # the same table that make_strategy does
    import guessbench.montecarlo as mc

    assert list(_KERNELS) == list(StrategyId) == list(_STRATEGIES)
    assert mc._KERNELS is _KERNELS
