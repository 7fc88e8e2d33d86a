import ewb


def test_every_public_name_resolves_once():
    missing = [name for name in ewb.__all__ if not hasattr(ewb, name)]
    assert missing == []
    assert len(ewb.__all__) == len(set(ewb.__all__))
