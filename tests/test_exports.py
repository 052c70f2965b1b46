"""The public surface: every exported name resolves, none twice."""

import importlib
import pkgutil

import pytest

import fading_cvqkd

MODULES = ["fading_cvqkd", *(f"fading_cvqkd.{info.name}"
                             for info in pkgutil.iter_modules(fading_cvqkd.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(
        n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []

