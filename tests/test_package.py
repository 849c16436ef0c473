"""The package's public names: exactly what `__all__` lists."""

import types

import effortlab as el


def test_all_lists_exactly_the_public_names():
    assert len(set(el.__all__)) == len(el.__all__)
    for name in el.__all__:
        assert not name.startswith("_"), name
        getattr(el, name)  # resolves, the CLI's lazy names included
    public = {name for name in dir(el) if not name.startswith("_")
              and not isinstance(getattr(el, name), types.ModuleType)}
    assert public - set(el.__all__) == set()
