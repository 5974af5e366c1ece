"""The ``>>>`` examples in the package's docstrings are run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import quadchar

MODULES = ["quadchar"] + sorted(
    m.name for m in pkgutil.iter_modules(quadchar.__path__, "quadchar.")
)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name: str) -> None:
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0
