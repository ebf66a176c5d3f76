import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import guessbench.montecarlo as mc
from guessbench.core import DeckSpec, FeedbackModel
from guessbench.exact import exact_chain_mean, exact_value
from guessbench.montecarlo import (
    StatSummary,
    deck_chunks,
    estimate_chain,
    estimate_repeat_time,
    estimate_value,
    exact_distinct_prefix_probability,
    rng_stream,
)
from guessbench.strategies import (
    _STRATEGIES,
    StrategyId,
    StrategySpec,
    _resolve_model,
    make_strategy,
)
from oracles import (
    PolicyPlayer,
    ReferencePartialMle,
    all_shuffles,
    brute_chain,
    brute_distinct_prefix,
    make_oracle,
    play,
    replayed_decks,
    swept_policy,
)

CONSTANT = StrategySpec(StrategyId.NOFB_CONSTANT)
TWO_PHASE = StrategySpec(StrategyId.PARTIAL_TWO_PHASE)


def test_rng_stream_reproducible_and_tag_separated():
    a = rng_stream(7, 0, 3).integers(0, 2**62, size=8)
    b = rng_stream(7, 0, 3).integers(0, 2**62, size=8)
    c = rng_stream(7, 1, 3).integers(0, 2**62, size=8)
    d = rng_stream(8, 0, 3).integers(0, 2**62, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def whole_block_draw(word, seed, block_id, rows, reads=None):
    """Block ``block_id``'s decks drawn in one array from its deck stream;
    with ``reads``, each row's ``reads`` dealt positions instead."""
    rng = rng_stream(seed, 0, block_id)
    if reads is None:
        return rng.permuted(np.tile(word, (rows, 1)), axis=1)
    return np.array([rng.choice(len(word), size=reads, replace=False) for _ in range(rows)])


def test_sample_shuffle_is_valid_and_uniform():
    spec = DeckSpec(2, 2)
    word = np.array(spec.canonical_word(), dtype=np.int16)
    trials = 60_000
    chunks = list(deck_chunks(word, mc._blocks(trials), 123))
    assert all(1 <= len(decks) <= mc._CHUNK for decks in chunks)
    # a chunk of dealt positions holds at most _STAGE_CELLS of them, so 40
    # positions a row make 204-row chunks, while full shuffles keep 512;
    # splitting a block's rows into chunks never changes them, in either
    # layout
    big = mc._deck_word(DeckSpec(3, 1000))
    for reads, cap in ((None, mc._CHUNK), (40, mc._STAGE_CELLS // 40)):
        for block_id, rows in ((0, 1000), (1, 700)):
            parts = list(deck_chunks(big, [(block_id, rows)], 123, reads=reads))
            assert len(parts) > 1
            assert [len(decks) for decks in parts[:-1]] == [cap] * (len(parts) - 1)
            assert 1 <= len(parts[-1]) <= cap
            assert np.array_equal(
                np.concatenate(parts), whole_block_draw(big, 123, block_id, rows, reads)
            )
    # each row deals distinct positions of the deck
    dealt = np.sort(np.concatenate(parts), axis=1)
    assert dealt.shape == (700, 40)
    assert dealt[:, 0].min() >= 0 and dealt[:, -1].max() < len(big)
    assert (np.diff(dealt, axis=1) > 0).all()
    counts = Counter(tuple(deck) for decks in chunks for deck in decks.tolist())
    assert sum(counts.values()) == trials
    assert sorted(counts) == all_shuffles(2, 2)
    expected = trials / 6
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 5 degrees of freedom; 20.5 is the 0.999 quantile
    assert chi2 < 20.5


def hyp_tail_deck(population, good):
    """The int8 deck ``bounds.hyp_tail_report`` shuffles: ``good`` ones, then zeros."""
    deck = np.zeros(population, dtype=np.int8)
    deck[:good] = 1
    return deck


@pytest.mark.parametrize("word,rows", [
    (hyp_tail_deck(60, 7), 1300),
    (mc._deck_word(DeckSpec(4, 13)), 1300),
    # 140,000 int32 cards, past _STAGE_CELLS: staged one row at a time
    (mc._deck_word(DeckSpec(2, 70_000)), 3),
])
def test_full_shuffles_equal_a_plain_permuted_draw(word, rows):
    # the shuffles are staged as pointer-sized ints; the chunks must hold
    # the decks that permuting the word in its own dtype gives
    for block_id in (0, 2):
        parts = list(deck_chunks(word, [(block_id, rows)], 41))
        assert all(decks.dtype == word.dtype for decks in parts)
        assert np.array_equal(np.concatenate(parts), whole_block_draw(word, 41, block_id, rows))


def test_greedy_max_chunk_memory_stays_near_the_chunk():
    # a 512-row (400,50) chunk holds 20.5 MB of int16 cards; drawing it and
    # scoring it with greedy-max may each need only a few MB more
    spec = DeckSpec(400, 50)
    word = mc._deck_word(spec)
    chunk_bytes = mc._CHUNK * spec.total * word.itemsize
    score = make_strategy(StrategySpec(StrategyId.COMPLETE_GREEDY_MAX), spec)
    tracemalloc.start()
    try:
        decks = next(deck_chunks(word, [(0, mc._CHUNK)], 0))
        draw_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        score(decks)
        score_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert decks.nbytes == chunk_bytes
    assert draw_peak < chunk_bytes + 4 * 2**20
    assert score_peak < 4 * 2**20


def test_two_phase_chunk_memory_stays_near_the_chunk():
    # a (400,50) chunk of two-phase positions holds 10 games' 800 int64s,
    # 64 KB; drawing it and scoring it may each need only a little more
    spec = DeckSpec(400, 50)
    word = mc._deck_word(spec)
    reads = 2 * spec.multiplicity
    score = make_strategy(TWO_PHASE, spec)
    next(deck_chunks(word, [(0, 1)], 0, reads=reads))  # the stream's first use imports
    tracemalloc.start()
    try:
        positions = next(deck_chunks(word, [(0, mc._CHUNK)], 0, reads=reads))
        draw_peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        score(positions)
        score_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert positions.shape == (mc._STAGE_CELLS // reads, reads)
    assert draw_peak < positions.nbytes + 2**18
    assert score_peak < 2**16


def test_reduced_layout_places_types_1_and_2_uniformly():
    # at (2,3) the two 1s and two 2s fill 4 of 6 cells: 15 * 6 = 90 patterns
    word = mc._deck_word(DeckSpec(2, 3))
    trials = 45_000
    chunks = list(deck_chunks(word, mc._blocks(trials), 5, reads=4))
    # columns 0-1 hold the 1s' positions, columns 2-3 the 2s'
    counts = Counter(
        (frozenset(row[:2]), frozenset(row[2:])) for decks in chunks for row in decks.tolist()
    )
    assert sum(counts.values()) == trials
    expected_patterns = {
        tuple(frozenset(i for i, c in enumerate(deck) if c == t) for t in (1, 2))
        for deck in all_shuffles(2, 3)
    }
    assert len(expected_patterns) == 90
    assert set(counts) == expected_patterns
    expected = trials / 90
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 89 degrees of freedom; 136.0 is the 0.999 quantile
    assert chi2 < 136.0


def test_reduced_layout_over_the_whole_deck_is_a_shuffle():
    # at n = 2 two-phase reads both types, so each row deals every position
    spec = DeckSpec(3, 2)
    word = mc._deck_word(spec)
    trials = 20_000
    positions = np.concatenate(list(deck_chunks(word, mc._blocks(trials), 9, reads=spec.total)))
    assert (np.sort(positions, axis=1) == np.arange(spec.total)).all()
    # card j of the word lies at each row's position j
    decks = np.empty(positions.shape, dtype=word.dtype)
    np.put_along_axis(decks, positions, word, axis=1)
    counts = Counter(map(tuple, decks.tolist()))
    assert sorted(counts) == all_shuffles(3, 2)
    expected = trials / 20
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    # 19 degrees of freedom; 43.8 is the 0.999 quantile
    assert chi2 < 43.8


def test_play_game_record():
    class Recording:
        """Guesses 1 every turn and keeps the feedback it is shown."""

        def __init__(self):
            self.seen = []

        def next_guess(self):
            return 1

        def observe(self, obs):
            self.seen.append(obs)

    for model, feedback in [
        (FeedbackModel.NONE, [None, None]),
        (FeedbackModel.PARTIAL, [False, True]),
        (FeedbackModel.COMPLETE, [2, 1]),
    ]:
        strat = Recording()
        assert play(strat, model, [2, 1]) == 1
        assert strat.seen == feedback
    # a strategy sees only the cards drawn, so a prefix stops the game early
    spec = DeckSpec(2, 2)
    greedy = StrategySpec(StrategyId.COMPLETE_GREEDY_MAX)
    assert play(make_oracle(greedy, spec), FeedbackModel.COMPLETE, (1, 2, 2, 1)) == 3
    assert play(make_oracle(greedy, spec), FeedbackModel.COMPLETE, (1, 2, 2, 1)[:2]) == 2
    decks = np.array([(1, 2, 2, 1)], dtype=np.int16)
    assert make_strategy(greedy, spec)(decks).tolist() == [3]
    assert make_strategy(greedy, spec)(decks[:, :2]).tolist() == [2]


KERNEL_CASES = [
    (StrategySpec(StrategyId.COMPLETE_GREEDY_MAX), DeckSpec(3, 3)),
    (StrategySpec(StrategyId.COMPLETE_GREEDY_MIN), DeckSpec(3, 3)),
    (StrategySpec(StrategyId.NOFB_CONSTANT), DeckSpec(3, 3)),
    (StrategySpec(StrategyId.NOFB_CONSTANT, card=2), DeckSpec(3, 3)),
    (StrategySpec(StrategyId.NOFB_CYCLIC), DeckSpec(2, 4)),
    (StrategySpec(StrategyId.PARTIAL_UNIFORM, seed=3), DeckSpec(3, 3)),
    (StrategySpec(StrategyId.PARTIAL_TWO_PHASE), DeckSpec(3, 4)),
    (StrategySpec(StrategyId.PARTIAL_TWO_PHASE, phase=5, threshold=2), DeckSpec(3, 4)),
    (StrategySpec(StrategyId.PARTIAL_TWO_PHASE, phase=3, threshold=1), DeckSpec(3, 2)),
    (StrategySpec(StrategyId.PARTIAL_LADDER), DeckSpec(2, 4)),
    (StrategySpec(StrategyId.PARTIAL_MLE), DeckSpec(3, 3)),
    (StrategySpec(StrategyId.PARTIAL_MIN_MLE), DeckSpec(3, 3)),
]


@pytest.mark.parametrize(
    "sspec,deck", KERNEL_CASES, ids=[s.label() for s, _ in KERNEL_CASES]
)
def test_kernel_matches_generic_path(sspec, deck):
    # the kernels against the generic play loop of tests/oracles.py, game by
    # game; two blocks, the second cut short, so block and chunk edges show
    trials, seed = 5000, 42
    fast = np.concatenate(
        [mc._block_scores(deck, sspec, count, seed, b) for b, count in mc._blocks(trials)]
    )
    # strategies that read only types 1..k replay their dealt positions
    reads_types = _STRATEGIES[sspec.id].reads_types
    reads = None if reads_types is None else reads_types * deck.multiplicity
    decks = replayed_decks(
        mc._deck_word(deck), trials, seed, mc._DECK_TAG, mc.BLOCK_SIZE, reads
    )
    streams = {}
    if not sspec.deterministic:
        # one strategy stream per block, drawn game after game
        strategy_seed = sspec.resolve(deck)["seed"]
        for b, _ in mc._blocks(trials):
            streams[b] = mc.rng_stream(strategy_seed, mc._STRATEGY_TAG, b)
    slow = [
        play(make_oracle(sspec, deck, streams.get(t // mc.BLOCK_SIZE)), sspec.native_model, d)
        for t, d in enumerate(decks)
    ]
    assert fast.tolist() == slow
    summary = estimate_value(deck, sspec, trials, seed)
    assert summary.histogram == tuple(sorted(Counter(slow).items()))


INVALID_CASES = [
    (StrategyId.NOFB_CONSTANT, {"card": 0}, DeckSpec(2, 3), "card must lie in 1..3"),
    (StrategyId.NOFB_CONSTANT, {"card": 4}, DeckSpec(2, 3), "card must lie in 1..3"),
    (StrategyId.PARTIAL_TWO_PHASE, {"phase": -1}, DeckSpec(2, 3), "phase must lie in 0..6"),
    (StrategyId.PARTIAL_TWO_PHASE, {"phase": 7}, DeckSpec(2, 3), "phase must lie in 0..6"),
    (StrategyId.PARTIAL_TWO_PHASE, {}, DeckSpec(3, 1), "needs at least 2 types"),
    (StrategyId.PARTIAL_UNIFORM, {"seed": -1}, DeckSpec(2, 3), "seed must be nonnegative"),
]


@pytest.mark.parametrize(
    "sid,params,deck,message",
    INVALID_CASES,
    ids=["card=0", "card=n+1", "phase=-1", "phase=mn+1", "two-phase-at-n=1", "seed=-1"],
)
def test_invalid_spec_fails_alike_with_and_without_kernels(sid, params, deck, message):
    # simulation, enumeration and the kernel's own builder reject alike
    def failure(call):
        with pytest.raises(ValueError, match=message) as caught:
            call(StrategySpec(sid, **params))
        return str(caught.value)

    simulated = failure(lambda sspec: estimate_value(deck, sspec, 10, 0))
    assert failure(lambda sspec: exact_value(deck, sspec)) == simulated
    assert failure(lambda sspec: make_strategy(sspec, deck)) == simulated


def test_workers_do_not_change_results():
    spec = DeckSpec(2, 4)
    one = estimate_value(spec, CONSTANT, 5000, 11, workers=1)
    two = estimate_value(spec, CONSTANT, 5000, 11, workers=2)
    assert one.histogram == two.histogram
    assert one.trials == 5000
    # two-phase is dealt positions; each block still draws from its own stream
    spec = DeckSpec(3, 5)
    one = estimate_value(spec, TWO_PHASE, 9000, 11, workers=1)
    two = estimate_value(spec, TWO_PHASE, 9000, 11, workers=2)
    assert one.histogram == two.histogram
    assert one.trials == 9000
    # each worker builds its own partial-mle guess memo
    mle = StrategySpec(StrategyId.PARTIAL_MLE)
    one = estimate_value(DeckSpec(3, 4), mle, 9000, 11, workers=1)
    two = estimate_value(DeckSpec(3, 4), mle, 9000, 11, workers=2)
    assert one.histogram == two.histogram
    assert one.trials == 9000


def test_pool_never_exceeds_the_block_count(monkeypatch):
    import concurrent.futures

    sizes = []

    class InProcessPool:
        # records the pool size asked for and scores every block here
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 8)
    spec = DeckSpec(2, 4)
    one = estimate_value(spec, CONSTANT, 10, 11, workers=64)
    assert sizes == []  # one block: scored in-process, no pool
    assert one.histogram == estimate_value(spec, CONSTANT, 10, 11).histogram
    many = estimate_value(spec, CONSTANT, 9000, 11, workers=64)
    assert sizes == [3]  # 9,000 trials make three 4,096-row blocks
    assert many.histogram == estimate_value(spec, CONSTANT, 9000, 11).histogram
    # nor the CPU count, or one process when that is unknown
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    assert estimate_value(spec, CONSTANT, 9000, 11, workers=64).histogram == many.histogram
    assert sizes == [3, 2]
    monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
    assert estimate_value(spec, CONSTANT, 9000, 11, workers=64).histogram == many.histogram
    assert sizes == [3, 2]


def test_single_trial_and_validation():
    spec = DeckSpec(2, 2)
    summary = estimate_value(spec, CONSTANT, 1, 0)
    assert summary.trials == 1
    with pytest.raises(ValueError):
        estimate_value(spec, CONSTANT, 0, 0)
    with pytest.raises(ValueError):
        _resolve_model(StrategySpec(StrategyId.PARTIAL_MLE), FeedbackModel.COMPLETE)


def test_stat_summary_moments():
    summary = StatSummary.from_counter(Counter({2: 3, 5: 1}))
    assert summary.trials == 4
    assert summary.mean == pytest.approx(2.75)
    assert summary.variance == pytest.approx(2.25)
    assert summary.sd == pytest.approx(1.5)
    assert summary.se == pytest.approx(0.75)
    assert summary.min == 2
    assert summary.max == 5
    assert StatSummary.from_counter(Counter({3: 1})).variance == 0.0


def test_repeat_time_matches_exact_survival():
    spec = DeckSpec(2, 3)
    estimate = estimate_repeat_time(spec, 2, 20_000, 77)
    for t in (1, 2, 3):
        exact = brute_distinct_prefix(2, 3, t)
        assert exact == exact_distinct_prefix_probability(spec, t)
        se = max(estimate.survival_se(t), 1e-9)
        assert abs(estimate.survival(t) - float(exact)) <= 4 * se
    with pytest.raises(ValueError):
        estimate_repeat_time(spec, 0, 10, 0)
    with pytest.raises(ValueError):
        estimate_repeat_time(spec, 3, 10, 0)
    with pytest.raises(ValueError):
        estimate_repeat_time(spec, 2, 0, 0)


def test_repeat_time_exact_point():
    # P[second card repeats the first] = (m-1)/(mn-1) = 1/3 at (2,2)
    spec = DeckSpec(2, 2)
    assert 1 - exact_distinct_prefix_probability(spec, 2) == Fraction(1, 3)
    estimate = estimate_repeat_time(spec, 2, 20_000, 3)
    freq = dict(estimate.histogram).get(2, 0) / estimate.trials
    assert abs(freq - 1 / 3) <= 4 * np.sqrt(1 / 3 * 2 / 3 / 20_000)


def test_exact_distinct_prefix_edges():
    spec = DeckSpec(2, 3)
    assert exact_distinct_prefix_probability(spec, 0) == 1
    assert exact_distinct_prefix_probability(spec, 1) == 1
    assert exact_distinct_prefix_probability(spec, 4) == 0
    assert exact_distinct_prefix_probability(spec, 99) == 0
    with pytest.raises(ValueError):
        exact_distinct_prefix_probability(spec, -1)


def test_estimate_chain_matches_replayed_decks():
    spec = DeckSpec(2, 3)
    trials, seed = 3000, 21
    summary = estimate_chain(spec, trials, seed)
    word = np.array(spec.canonical_word(), dtype=np.int16)
    decks = replayed_decks(word, trials, seed, mc._DECK_TAG, mc.BLOCK_SIZE)
    hist = Counter(brute_chain(deck) for deck in decks)
    assert summary.histogram == tuple(sorted(hist.items()))
    exact = float(exact_chain_mean(spec))
    assert abs(summary.mean - exact) <= 4 * max(summary.se, 1e-9)


def test_repeat_time_matches_replayed_decks():
    # two blocks, the second cut short, so block and chunk edges both show
    spec = DeckSpec(3, 4)
    trials, seed, j = 5000, 8, 3
    estimate = estimate_repeat_time(spec, j, trials, seed)
    word = np.array(spec.canonical_word(), dtype=np.int16)
    hist = Counter()
    for deck in replayed_decks(word, trials, seed, mc._DECK_TAG, mc.BLOCK_SIZE):
        first = next(t for t in range(1, spec.total + 1) if max(Counter(deck[:t]).values()) == j)
        hist[first] += 1
    assert estimate.histogram == tuple(sorted(hist.items()))


@pytest.mark.parametrize(
    "sid, maximize",
    [(StrategyId.PARTIAL_MLE, True), (StrategyId.PARTIAL_MIN_MLE, False)],
)
def test_mle_matches_reference_on_replayed_decks(sid, maximize):
    # two blocks, the second cut short
    spec = DeckSpec(3, 4)
    trials, seed = 5000, 13
    summary = estimate_value(spec, StrategySpec(sid), trials, seed)
    word = np.array(spec.canonical_word(), dtype=np.int16)
    hist = Counter(
        play(ReferencePartialMle(spec, maximize), FeedbackModel.PARTIAL, deck)
        for deck in replayed_decks(word, trials, seed, mc._DECK_TAG, mc.BLOCK_SIZE)
    )
    assert summary.histogram == tuple(sorted(hist.items()))


def test_policy_player_simulation_consistent():
    spec = DeckSpec(1, 3)
    policy = swept_policy(spec, "max")
    word = np.array(spec.canonical_word(), dtype=np.int16)
    scores = [
        play(PolicyPlayer(spec, policy), FeedbackModel.PARTIAL, deck)
        for decks in deck_chunks(word, mc._blocks(4000), 17)
        for deck in decks.tolist()
    ]
    mean = np.mean(scores)
    se = np.std(scores, ddof=1) / np.sqrt(len(scores))
    assert abs(mean - 5 / 3) <= 4 * se
