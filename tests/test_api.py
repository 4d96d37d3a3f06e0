"""The package namespace: each module's ``__all__`` is the only list of its
public names, and ``sbtkit`` re-exports exactly those lists."""

import inspect

import sbtkit
from sbtkit import analysis, controllers, errors, lti, sim, transforms, tuning

MODULES = (errors, lti, transforms, controllers, analysis, tuning, sim)


def test_package_names_are_unique():
    assert len(sbtkit.__all__) == len(set(sbtkit.__all__))


def test_each_module_list_is_exported():
    for module in MODULES:
        assert set(module.__all__) <= set(sbtkit.__all__), module.__name__
    assert set(sbtkit.__all__) == {n for m in MODULES for n in m.__all__} | {"__version__"}


def test_each_name_is_the_object_its_module_defines():
    # a later star import that shadowed an earlier one would fail here
    for module in MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(sbtkit, name) is obj, name
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert obj.__module__ == module.__name__, name
