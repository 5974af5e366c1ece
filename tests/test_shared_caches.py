"""No cache of the package carries state from one test to the next.

Every object of a ``quadchar`` module with a ``cache_clear`` (a module-level
``functools`` cache, or one on a class) is either cleared by the autouse
fixture ``fresh_shared_caches`` or listed in ``CONSTANT_CACHES``.
"""

from __future__ import annotations

import importlib
import pkgutil

import conftest
import pytest

import quadchar


def package_caches() -> dict[str, object]:
    """``{"module.name": cache}`` for every clearable cache a module defines, on it or a class."""
    found: dict[str, object] = {}
    for info in pkgutil.iter_modules(quadchar.__path__):
        module = importlib.import_module(f"quadchar.{info.name}")
        for name, value in vars(module).items():
            holders = [(name, value)]
            if isinstance(value, type) and value.__module__ == module.__name__:
                holders += [(f"{name}.{attr}", v) for attr, v in vars(value).items()]
            for key, obj in holders:
                obj = getattr(obj, "__func__", obj)  # a staticmethod or classmethod
                # a cache imported from another module is found in that one
                if hasattr(obj, "cache_clear") and obj.__module__ == module.__name__:
                    found[f"{info.name}.{key}"] = obj
    return found


def test_every_cache_is_cleared_between_tests_or_a_constant_table(monkeypatch: pytest.MonkeyPatch) -> None:
    caches = package_caches()
    assert set(conftest.CONSTANT_CACHES) <= set(caches)  # no stale entry
    cleared = []
    for key, obj in caches.items():
        monkeypatch.setattr(obj, "cache_clear", lambda key=key: cleared.append(key))
    conftest.fresh_shared_caches.__wrapped__()
    assert sorted(cleared) == sorted(set(caches) - set(conftest.CONSTANT_CACHES))


def test_the_cache_finder_sees_a_cache_on_a_class(monkeypatch: pytest.MonkeyPatch) -> None:
    from functools import cache

    from quadchar import galois_lattices

    @cache
    def probe(n: int) -> int:
        return n

    probe.__module__ = galois_lattices.__name__
    monkeypatch.setattr(galois_lattices.GaloisLattice, "probe", staticmethod(probe), raising=False)
    assert package_caches()["galois_lattices.GaloisLattice.probe"] is probe
