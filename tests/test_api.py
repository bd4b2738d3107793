"""The public names: every entry of a module's ``__all__`` and of the package's
resolves, and ``from qnops import *`` imports them all."""

import importlib
import pkgutil

import pytest

import qnops

MODULES = sorted(m.name for m in pkgutil.iter_modules(qnops.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"qnops.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_all_resolves_and_star_import_works():
    assert len(qnops.__all__) == len(set(qnops.__all__))
    assert [n for n in qnops.__all__ if not hasattr(qnops, n)] == []
    namespace = {}
    exec("from qnops import *", namespace)
    assert set(qnops.__all__) <= set(namespace)
