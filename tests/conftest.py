"""Shared test helpers and the acceptance-summary terminal hook."""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest

from quadchar import galois_lattices, root_orbits
from quadchar.residue_fields import ExtElement, FiniteField, QuadraticExtension

Matrix = tuple[tuple[int, ...], ...]

# One line per acceptance criterion, printed in the terminal summary so the
# pass/fail status of each criterion is always visible in the test output.
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:  # noqa: ANN001
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def fresh_shared_caches() -> None:
    """Start each test without the shared root systems, their roots, the
    root sets already checked and indexed, the systems' cached orbits, the
    generator matrices already read (by root systems and lattices alike,
    each with its order), the cocharacter lattices, the lattices shared per
    distinct action and the shared Tate groups.

    A helper that a test patches (a classification step, ``_neg``,
    ``compose_permutations``, ``line_orbits`` or
    ``FiniteAbelianGroup.from_factors``) then reaches
    every system, lattice and group the test builds, not only those no
    earlier test has built.  Every other cache of the package is a constant
    table (``CONSTANT_CACHES``), which ``test_shared_caches.py`` checks.
    """
    root_orbits.gln_root_system.cache_clear()
    root_orbits.unitary_root_system.cache_clear()
    root_orbits._general_linear_roots.cache_clear()
    root_orbits._root_set.cache_clear()
    galois_lattices.signed_permutation.cache_clear()
    galois_lattices.cocharacter_lattice.cache_clear()
    galois_lattices._lattice.cache_clear()
    galois_lattices._group.cache_clear()


# caches of pure functions of small integers that read no patchable helper,
# left filled between tests
CONSTANT_CACHES = ("galois_lattices.identity_matrix", "galois_lattices._signed_units")


def field_units(k: FiniteField) -> range:
    """The units ``1, ..., p - 1`` of the prime field ``k``, ascending."""
    return range(1, k.p)


def ext_elements(ext: QuadraticExtension) -> list[ExtElement]:
    """Every ``a + b*sqrt(u)`` of ``ext`` as ``(a, b)``, by ``b`` and then ``a``."""
    return [(a, b) for b in range(ext.q) for a in range(ext.q)]


def ext_units(ext: QuadraticExtension) -> list[ExtElement]:
    """The nonzero elements of ``ext``, in ``ext_elements`` order."""
    return ext_elements(ext)[1:]


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """The product of an ``m x k`` and a ``k x n`` matrix."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


def signed_permutation_matrices(n: int) -> Iterator[Matrix]:
    """All monomial matrices with entries in {0, +1, -1}, one per row/column."""
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            yield tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)
            )


def signed_permutation_involutions(n: int) -> list[Matrix]:
    """All signed permutation matrices squaring to the identity (identity included)."""
    eye = identity_matrix(n)
    return [m for m in signed_permutation_matrices(n) if mat_mul(m, m) == eye]


def commuting_involution_pairs(n: int) -> list[tuple[Matrix, Matrix]]:
    """Unordered pairs of commuting signed-permutation involutions."""
    invs = signed_permutation_involutions(n)
    out = []
    for i, a in enumerate(invs):
        for b in invs[i:]:
            if mat_mul(a, b) == mat_mul(b, a):
                out.append((a, b))
    return out
