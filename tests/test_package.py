import guessbench


def test_public_names_resolve():
    names = guessbench.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(guessbench, name)]
    assert missing == []
