import trenchrank


def test_every_exported_name_resolves():
    assert [name for name in trenchrank.__all__ if not hasattr(trenchrank, name)] == []
    assert len(set(trenchrank.__all__)) == len(trenchrank.__all__)
