"""Shared test helpers and the acceptance-summary terminal hook."""

from __future__ import annotations

import itertools
from operator import mul
from typing import Iterator

import pytest

from quadchar import galois_lattices, root_orbits
from quadchar.residue_fields import ExtElement, FiniteField, QuadraticExtension
from quadchar.root_orbits import TwistedRootSystem

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
    """Start each test without the shared root systems, their roots and
    root permutations, the root sets already checked and indexed, the
    systems' cached orbits, the generator matrices the lattices already read
    (each with its order), the cocharacter lattices, the lattices shared per
    distinct action and the shared Tate groups.

    A helper that a test patches (a classification step, ``_neg``,
    ``compose_permutations``, ``GaloisLattice.__post_init__``, which also
    walks the line orbits, or ``FiniteAbelianGroup.__post_init__``) then
    reaches every system, lattice and group the test builds, not only those
    no earlier test has built.  Every other cache of the package is a
    constant table (``CONSTANT_CACHES``), which ``test_shared_caches.py``
    checks.
    """
    root_orbits.gln_root_system.cache_clear()
    root_orbits.unitary_root_system.cache_clear()
    root_orbits._type_a.cache_clear()
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
    cols = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in a)


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


# ---------------------------------------------------------------------------
# the matrix oracle of root systems, which take root permutations
# ---------------------------------------------------------------------------


def root_permutation(roots: tuple, matrix: Matrix) -> bytes:
    """The root permutation of ``matrix``, read with ``mat_mul``: byte ``i`` the index
    of ``matrix`` times root ``i``.  An image off the roots reads as ``len(roots)``,
    so the bytes are then no permutation of the roots, and a root system refuses them."""
    index = {root: i for i, root in enumerate(roots)}
    images = zip(*mat_mul(matrix, tuple(zip(*roots))))
    return bytes(index.get(image, len(roots)) for image in images)


def matrix_system(rank: int, roots: tuple, generators: tuple) -> TwistedRootSystem:
    """A root system from ``(matrix, character value)`` generators, each read by
    ``root_permutation``."""
    return TwistedRootSystem(
        rank, roots, tuple((root_permutation(roots, mat), sign) for mat, sign in generators)
    )


def type_a_matrices(n: int) -> tuple[Matrix, Matrix]:
    """The shift ``e_i -> e_{i+1}`` of ``Z^n`` and its negative, the matrices of the
    ``gln`` and unitary type-A actions."""
    shift = tuple(tuple(int(j == (i - 1) % n) for j in range(n)) for i in range(n))
    return shift, tuple(tuple(-x for x in row) for row in shift)


def type_a_roots(n: int) -> tuple:
    """The roots ``e_i - e_j``, ``i != j``, of ``Z^n``, sorted."""
    eye = identity_matrix(n)
    pairs = itertools.permutations(range(n), 2)
    return tuple(sorted(tuple(a - b for a, b in zip(eye[i], eye[j])) for i, j in pairs))
