import surfnitsche


def test_exports_resolve_without_duplicates():
    names = surfnitsche.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(surfnitsche, name)] == []
