"""Each public name is listed once, in the ``__all__`` of the module that defines it.

``convexop.__all__`` is the sorted union of the nine modules' lists, so every
entry must resolve, and the entries must be sorted and unique.  At the parent
the modules had no ``__all__``; the package-level checks pin its list.
"""

import importlib

import pytest

import convexop

MODULES = ["errors", "hermitian", "spaces", "probes", "operational", "classical",
           "quantum", "lattice", "scenario"]


def test_every_package_entry_resolves_sorted_and_unique():
    assert convexop.__all__ == sorted(set(convexop.__all__))
    assert len(convexop.__all__) == 111
    for name in convexop.__all__:
        assert getattr(convexop, name) is not None, name


@pytest.mark.parametrize("module", MODULES)
def test_each_module_lists_what_it_defines_sorted_and_unique(module):
    mod = importlib.import_module(f"convexop.{module}")
    assert mod.__all__ == sorted(set(mod.__all__))
    for name in mod.__all__:
        value = getattr(mod, name)
        assert getattr(convexop, name) is value, name
        assert getattr(value, "__module__", mod.__name__) == mod.__name__, name


def test_the_package_list_is_the_union_of_the_module_lists():
    names = [n for m in MODULES for n in importlib.import_module(f"convexop.{m}").__all__]
    assert len(names) == len(set(names))
    assert sorted(names) == convexop.__all__
