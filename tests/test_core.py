import pytest

from guessbench.core import DeckSpec, FeedbackModel
from oracles import observe


def test_deck_spec_basics():
    spec = DeckSpec(2, 3)
    assert spec.total == 6
    assert spec.canonical_word() == (1, 1, 2, 2, 3, 3)


@pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-1, 2), (2, -2)])
def test_deck_spec_rejects_nonpositive(m, n):
    with pytest.raises(ValueError):
        DeckSpec(m, n)


def test_observe_payloads():
    assert observe(FeedbackModel.NONE, 1, 2) is None
    assert observe(FeedbackModel.PARTIAL, 1, 1) is True
    assert observe(FeedbackModel.PARTIAL, 1, 2) is False
    assert observe(FeedbackModel.COMPLETE, 1, 2) == 2
    with pytest.raises(ValueError):
        observe("complete", 1, 2)
