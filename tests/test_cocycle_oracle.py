"""Brute-force cohomology oracle: frozen hand counts and internal consistency.

The expected values below are computed by hand directly from the
definitions (norm kernel / augmentation image on small truncations) and
frozen here; the oracle must reproduce them before it is trusted as a
cross-check for the lattice engine.
"""

from __future__ import annotations

import ast
import pathlib

import pytest
from cocycle_oracle import (
    cyclic_one_cocycle_order,
    expected_truncated_order,
    truncated_tate_minus_one_order,
)
from conftest import signed_permutation_involutions
from hypothesis import given, settings
from hypothesis import strategies as st


NEG_ONE = ((-1,),)
IDENT_1 = ((1,),)
SWAP_2 = ((0, 1), (1, 0))


def test_sign_flip_on_rank_one() -> None:
    # ker(norm) = everything, augmentation = even vectors: order 8/4 = 2
    assert truncated_tate_minus_one_order([NEG_ONE], [2], 8) == 2


def test_swap_on_rank_two() -> None:
    # ker(1 + s) = antidiagonal (8 points), augmentation = antidiagonal: 1
    assert truncated_tate_minus_one_order([SWAP_2], [2], 8) == 1


def test_trivial_klein_action_weights_norm_with_multiplicity() -> None:
    # (Z/2)^2 acting trivially on Z: the norm is multiplication by 4 (the
    # group order), not by 1 — formal elements count with multiplicity.
    # ker(4 mod 8) = {0, 2, 4, 6}, augmentation = {0}: order 4.
    assert truncated_tate_minus_one_order([IDENT_1, IDENT_1], [2, 2], 8) == 4


def test_klein_acting_through_sign_quotient() -> None:
    # both generators act by -1: the norm is 1 - 1 - 1 + 1 = 0; the
    # augmentation is 2Z/8Z: order 8/4 = 2.
    assert truncated_tate_minus_one_order([NEG_ONE, NEG_ONE], [2, 2], 8) == 2


def test_identity_action_order_two_group() -> None:
    # norm = 2: kernel mod 8 = {0, 4}; augmentation = {0}: order 2.
    assert truncated_tate_minus_one_order([IDENT_1], [2], 8) == 2


def test_one_cocycle_counts() -> None:
    # s = -1 on Z/8: all 8 vectors are cocycles, coboundaries = 2Z/8: 2.
    assert cyclic_one_cocycle_order(NEG_ONE, 8) == 2
    # s = swap on (Z/8)^2: cocycles = antidiagonal (8), coboundaries = antidiagonal.
    assert cyclic_one_cocycle_order(SWAP_2, 8) == 1
    # s = id on Z/8: cocycles = {0, 4}, coboundaries = {0}: 2.
    assert cyclic_one_cocycle_order(IDENT_1, 8) == 2


def test_expected_truncated_order_bridge() -> None:
    assert expected_truncated_order(2, 1) == 2
    assert expected_truncated_order(1, 4) == 4


def test_guards() -> None:
    with pytest.raises(ValueError):
        truncated_tate_minus_one_order([], [], 8)
    with pytest.raises(ValueError):
        truncated_tate_minus_one_order([((1, 0, 0), (0, 1, 0), (0, 0, 1))], [2], 32)
    with pytest.raises(ValueError):
        cyclic_one_cocycle_order(((2,),), 8)  # not an involution
    with pytest.raises(ValueError):
        truncated_tate_minus_one_order([NEG_ONE], [2, 2], 8)  # orders mismatch


@given(data=st.data(), n=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_two_routes_agree_on_involutions(data: st.DataObject, n: int) -> None:
    """Norm-kernel route and literal 1-cocycle route agree for order-2 actions.

    For a cyclic group the degree 1 and degree -1 groups of any finite
    module are isomorphic, so the two counts must coincide.
    """
    mat = data.draw(st.sampled_from(signed_permutation_involutions(n)))
    assert truncated_tate_minus_one_order([mat], [2], 8) == cyclic_one_cocycle_order(mat, 8)


def test_oracle_imports_nothing_from_the_lattice_engine() -> None:
    # the oracle is a cross-check only while it shares no code with the engine
    path = pathlib.Path(__file__).with_name("cocycle_oracle.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    assert imported
    assert not any("galois_lattices" in name for name in imported), imported
