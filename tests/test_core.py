import pytest

from guessbench.core import (
    DeckSpec,
    FeedbackModel,
    History,
    chain_length,
    derive_tallies,
    observe,
    validate_shuffle,
)
from oracles import all_shuffles, brute_chain


def test_deck_spec_basics():
    spec = DeckSpec(2, 3)
    assert spec.total == 6
    assert spec.canonical_word() == (1, 1, 2, 2, 3, 3)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-1, 2), (2, -2)])
def test_deck_spec_rejects_nonpositive(m, n):
    with pytest.raises(ValueError):
        DeckSpec(m, n)


def test_validate_shuffle():
    spec = DeckSpec(2, 2)
    assert validate_shuffle((1, 2, 2, 1), spec)
    assert not validate_shuffle((1, 2, 2), spec)
    assert not validate_shuffle((1, 1, 1, 2), spec)
    assert not validate_shuffle((1, 2, 3, 1), spec)
    for word in all_shuffles(2, 2):
        assert validate_shuffle(word, spec)


def test_observe_payloads():
    assert observe(FeedbackModel.NONE, 1, 2) is None
    assert observe(FeedbackModel.PARTIAL, 1, 1) is True
    assert observe(FeedbackModel.PARTIAL, 1, 2) is False
    assert observe(FeedbackModel.COMPLETE, 1, 2) == 2
    with pytest.raises(ValueError):
        observe("complete", 1, 2)


def test_history_payload_validation():
    with pytest.raises(ValueError):
        History(FeedbackModel.NONE, (1,), (True,))
    with pytest.raises(ValueError):
        History(FeedbackModel.PARTIAL, (1,), (2,))
    # bools are ints in Python; the complete channel must still reject them
    with pytest.raises(ValueError):
        History(FeedbackModel.COMPLETE, (1,), (True,))
    with pytest.raises(ValueError):
        History(FeedbackModel.PARTIAL, (1, 2), (True,))


def test_history_extension_and_flags():
    h = History(FeedbackModel.PARTIAL)
    h = h.extended(1, True).extended(2, False)
    assert len(h) == 2
    assert h.correct_flags() == (True, False)

    hc = History(FeedbackModel.COMPLETE, (1, 2), (1, 3))
    assert hc.correct_flags() == (True, False)

    hn = History(FeedbackModel.NONE, (1, 1), (None, None))
    assert hn.correct_flags() == (False, False)


def test_derive_tallies_partial():
    spec = DeckSpec(2, 2)
    h = History(FeedbackModel.PARTIAL, (1, 1, 2), (True, False, True))
    tallies = derive_tallies(h, spec)
    assert tallies.remaining == (1, 1)
    assert tallies.guess_counts == (2, 1)
    assert tallies.correct_total == 2
    assert tallies.time == 3


def test_derive_tallies_complete_reveals():
    spec = DeckSpec(2, 2)
    h = History(FeedbackModel.COMPLETE, (1, 1), (1, 2))
    tallies = derive_tallies(h, spec)
    assert tallies.remaining == (1, 2)
    assert tallies.correct_total == 1


def test_derive_tallies_rejects_bad_histories():
    spec = DeckSpec(1, 2)
    with pytest.raises(ValueError):
        derive_tallies(History(FeedbackModel.PARTIAL, (3,), (True,)), spec)
    with pytest.raises(ValueError):
        derive_tallies(
            History(FeedbackModel.PARTIAL, (1, 1), (True, True)), spec
        )
    with pytest.raises(ValueError):
        derive_tallies(History(FeedbackModel.COMPLETE, (1,), (5,)), spec)
    with pytest.raises(ValueError):
        derive_tallies(
            History(FeedbackModel.COMPLETE, (1, 1, 2), (2, 2, 1)), DeckSpec(1, 2)
        )
    long = History(FeedbackModel.PARTIAL, (1, 1, 1), (False, False, False))
    with pytest.raises(ValueError):
        derive_tallies(long, spec)


def test_chain_length_examples():
    assert chain_length((1, 2, 3)) == 3
    assert chain_length((2, 1, 2)) == 2
    assert chain_length((3, 2, 1)) == 1
    assert chain_length((2, 2, 1, 1)) == 1
    assert chain_length((1, 1, 2, 2)) == 2


def test_chain_length_matches_brute_force():
    for m, n in [(2, 3), (3, 2), (1, 4), (2, 4)]:
        for word in all_shuffles(m, n):
            assert chain_length(word) == brute_chain(word)
