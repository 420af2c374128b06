import uwb_locsim


def test_every_export_resolves_and_is_listed_once():
    names = uwb_locsim.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(uwb_locsim, name)] == []
