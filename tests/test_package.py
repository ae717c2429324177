"""The package binds no names of its own: each name has one import route."""

import types

import circgnn


def test_every_public_package_attribute_is_a_submodule():
    public = {name: value for name, value in vars(circgnn).items() if not name.startswith("_")}
    assert not [name for name, value in public.items() if not isinstance(value, types.ModuleType)]
