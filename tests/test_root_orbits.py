"""Orbit classification, the twisted stabilizer, and orbit classes from inertia."""

from __future__ import annotations

import itertools
import random
import re
from operator import mul

import pytest
from conftest import (
    identity_matrix,
    mat_mul,
    matrix_system,
    root_permutation,
    type_a_matrices,
    type_a_roots,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import root_orbits
from quadchar.char_engine import CLASS_TRIPLES, class_key
from quadchar.root_orbits import (
    Deg,
    OrbitRecord,
    Sym,
    TwistedRootSystem,
    classify_orbits,
    derive_op_data,
    gln_orbit_parity,
    gln_root_system,
    orbit_class,
    twisted_class,
    unitary_root_system,
)


# the one message of the root-set check, and the start of the generator check's one message
ROOT_SET_FAULT = "roots must be 1 to 256 distinct nonzero vectors"
GENERATOR_FAULT = "a generator must be a permutation of the"


def element(perm, sign):
    """The group element ``(root permutation, character value)`` whose
    permutation sends root ``i`` to root ``perm[i]``, from a sequence of indices."""
    return bytes(perm), sign


# elements of the rank-1 systems below, whose roots are (1,) and (-1,)
I1 = element((0, 1), 1)
A1 = element((1, 0), 1)  # negates the root, trivial character
B1 = element((0, 1), -1)  # fixes the root, nontrivial character
AB1 = element((1, 0), -1)


KLEIN = ((((-1,),), 1), (((1,),), -1))  # one generator flips, one twists
ORDER_TWO = ((((-1,),), -1),)  # one flip-and-twist generator


def rank_one_klein():
    """Rank-1 roots with the Klein action: one generator flips, one twists."""
    return matrix_system(1, ((1,), (-1,)), KLEIN)


def rank_one_order_two():
    """Rank-1 roots with a single flip-and-twist generator."""
    return matrix_system(1, ((1,), (-1,)), ORDER_TWO)


def type_a_generators(build, n):
    """The ``(matrix, character value)`` generator of a type-A builder's action."""
    return ((type_a_matrices(n)[build is unitary_root_system], -1),)


# ---------------------------------------------------------------------------
# oracles on the matrix group, closed here with conftest's mat_mul; a system
# takes root permutations, so each oracle takes the matrices it was built from
# ---------------------------------------------------------------------------


def apply(matrix, root):
    """The image of one root under a matrix."""
    return tuple(sum(map(mul, row, root)) for row in matrix)


def matrix_closure(rank, matrices):
    """The matrix group ``{(matrix, character value)}`` the generators make."""
    identity = (identity_matrix(rank), 1)
    group, frontier = {identity}, [identity]
    while frontier:
        mat, sign = frontier.pop()
        for gen, gen_sign in matrices:
            nxt = (mat_mul(mat, gen), sign * gen_sign)
            if nxt not in group:
                group.add(nxt)
                frontier.append(nxt)
    return group


def as_pair(system, g):
    """A matrix element ``g`` as ``(root permutation, character value)``, root by root."""
    mat, sign = g
    return root_permutation(system.roots, mat), sign


# ---------------------------------------------------------------------------
# classification of the concrete families
# ---------------------------------------------------------------------------


def test_type_a_cyclic_orbit_counts():
    for n, expected_orbits, expected_sym in [(2, 1, 1), (3, 2, 0), (4, 3, 1), (5, 4, 0), (7, 6, 0)]:
        report = gln_orbit_parity(n)
        assert report == {"orbits": expected_orbits, "symmetric": expected_sym, "parity_ok": True}


def test_type_a_cyclic_even_case_degrees():
    records = classify_orbits(gln_root_system(2))
    assert len(records) == 1
    rec = records[0]
    assert rec.sym_over_base and not rec.sym_over_e
    assert rec.degree == 1 and rec.e_suborbit_count == 2


def test_type_a_cyclic_odd_case_degrees():
    # odd cycle: every orbit is asymmetric and its stabilizer meets the
    # nontrivial character value, so the quadratic step does not split
    for n in (3, 5):
        for rec in classify_orbits(gln_root_system(n)):
            assert not rec.sym_over_base and not rec.sym_over_e
            assert rec.degree == 2 and rec.e_suborbit_count == 1
            assert len(rec.roots) == n


def test_unitary_odd_orbits_symmetric_split():
    for n, expected_orbits in [(3, 1), (5, 2)]:
        records = classify_orbits(unitary_root_system(n))
        assert len(records) == expected_orbits
        for rec in records:
            assert rec.sym_over_base and not rec.sym_over_e
            assert rec.degree == 1 and rec.e_suborbit_count == 2
            assert len(rec.roots) == 2 * n


def test_group_closure_tracks_character_separately():
    # the cyclic action of odd order is not faithful on signs: the identity
    # permutation appears with both character values and they stay distinct
    elements = gln_root_system(3).group_elements()
    assert {element(range(6), 1), element(range(6), -1)} <= set(elements)
    assert len(elements) == 6


def test_action_not_faithful_on_the_roots():
    # (-swap, +1) fixes both roots +-(1, -1) with character value 1, so the
    # matrix group of order 4 acts through a group of order 2; every
    # inertia subgroup's image gives the class its fixed fields give
    swap, minus = ((0, 1), (1, 0)), ((-1, 0), (0, -1))
    matrices = ((swap, -1), (minus, -1))
    system = matrix_system(2, ((-1, 1), (1, -1)), matrices)
    group = matrix_closure(2, matrices)
    assert (((0, -1), (-1, 0)), 1) in group and len(group) == 4
    assert system.group_elements() == (element((0, 1), 1), element((1, 0), -1))
    (rec,) = classify_orbits(system)
    base, kernel = rec.base_root, {g for g in group if g[1] == 1}
    images = {g: apply(g[0], base) for g in group}
    stab = {g for g, r in images.items() if r == base}
    stab_signed = {g for g, r in images.items() if r in (base, (1, -1))}
    # symmetric over the base (swap negates the root), not over E
    assert rec.roots == ((-1, 1), (1, -1)) and base == (-1, 1)
    assert {images[g] for g in kernel} == {base}
    assert rec.sym_over_base and not rec.sym_over_e
    subgroups = [
        set(h)
        for k in range(1, 5)
        for h in itertools.combinations(sorted(group), k)
        if (identity_matrix(2), 1) in h
        and all((mat_mul(a[0], b[0]), a[1] * b[1]) in h for a in h for b in h)
    ]
    assert len(subgroups) == 5
    classes = set()
    for inertia in subgroups:
        f_pm, f_a, e_a = fixed_fields(inertia, 4, stab_signed, stab, stab & kernel)
        expected = (step_kind(f_a, e_a), SYMMETRIC[step_kind(f_pm, f_a)], Sym.ASYM)
        image = {as_pair(system, g) for g in inertia}
        assert orbit_class(rec, image) == expected
        classes.add(expected)
    # <(-swap, +1)> has a trivial image but lies in the stabilizer
    assert classes == {(Deg.SPLIT, Sym.SYM_UNRAM, Sym.ASYM), (Deg.SPLIT, Sym.SYM_RAM, Sym.ASYM)}


def test_action_must_close_on_roots():
    # the swap moves both roots off the set, so the oracle reads no permutation
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match=GENERATOR_FAULT):
            matrix_system(2, ((1, 0), (-1, 0)), ((((0, 1), (1, 0)), -1),))


def test_action_checked_on_every_generator():
    # the first generator preserves the roots, only the second moves one out
    roots, flip = ((-1, 1), (1, -1)), ((1, 0), (0, -1))
    named = re.escape(f"{root_permutation(roots, flip)!r} with 1 is not")
    with pytest.raises(ValueError, match=GENERATOR_FAULT + ".*" + named):
        matrix_system(2, roots, ((((0, 1), (1, 0)), -1), (flip, 1)))


def test_a_unimodular_generator_that_is_no_signed_permutation_is_refused():
    # ((2, 1), (1, 1)) moves e_1 to (2, 1), off the roots: no permutation of them
    for _ in range(2):  # a refusal is not cached
        with pytest.raises(ValueError, match=GENERATOR_FAULT):
            matrix_system(
                2,
                ((1, 0), (-1, 0), (0, 1), (0, -1)),
                ((((0, 1), (1, 0)), -1), (((2, 1), (1, 1)), 1)),
            )


SIMPLE_A2_ROOTS = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1))
SIMPLE_REFLECTION = ((((-1, 1), (0, 1)), -1),)  # s_1 of A_2: a_1 -> -a_1, a_2 -> a_1 + a_2


def test_a_reflection_in_simple_root_coordinates_is_accepted():
    # no signed permutation, but it permutes the roots and commutes with negation,
    # so the system takes its root permutation and classifies it as the matrices do
    system = matrix_system(2, SIMPLE_A2_ROOTS, SIMPLE_REFLECTION)
    assert classify_orbits(system) == definitional_orbit_records(system, SIMPLE_REFLECTION)
    assert [len(r.roots) for r in classify_orbits(system)] == [2, 2, 2]


SQUARE_ROOTS = ((1, 0), (-1, 0), (0, 1), (0, -1))
SINGULAR = ((1, 1), (0, 0))  # e_1 and e_2 both to e_1, e_1 - e_2 to 0


@pytest.mark.parametrize(
    "generators",
    [
        # with -I: two "orbits" that share the root (-1, 0)
        ((SINGULAR, 1), (((-1, 0), (0, -1)), -1)),
        # with the swap: a 6-element "group" acting on orbits of 2 roots
        ((SINGULAR, -1), (((0, 1), (1, 0)), -1)),
    ],
    ids=["minus-identity", "swap"],
)
def test_a_singular_generator_is_refused(generators):
    # it sends (1, 0) and (0, 1) both to (1, 0): no permutation of the roots
    with pytest.raises(ValueError, match=GENERATOR_FAULT):
        matrix_system(2, SQUARE_ROOTS, generators)


def test_the_zero_vector_is_refused_as_a_root():
    # (0,) would be an orbit of its own, symmetric over both fields with degree 2,
    # that orbit_class then refuses with a misleading "inconsistent inertia"
    with pytest.raises(ValueError, match=ROOT_SET_FAULT):
        matrix_system(1, ((0,), (1,), (-1,)), ORDER_TWO)


def test_repeated_roots_rejected_at_construction():
    # a repeat would make the generator's root map (1, 2, 1), no permutation
    with pytest.raises(ValueError, match=ROOT_SET_FAULT):
        matrix_system(2, ((1, -1), (-1, 1), (1, -1)), ((((0, 1), (1, 0)), -1),))


def test_at_most_256_roots() -> None:
    # a root index is one byte of a permutation: (-128,) ... (128,) are 257 roots,
    # refused before any generator is read (none of 257 indices fits a byte)
    with pytest.raises(ValueError, match=ROOT_SET_FAULT):
        TwistedRootSystem(1, tuple((k,) for k in range(-128, 129)), ())
    # without (0,) there are 256, each orbit {k, -k} symmetric with a trivial step
    system = matrix_system(1, tuple((k,) for k in range(-128, 129) if k), ORDER_TWO)
    records = classify_orbits(system)
    assert len(records) == 128 and records[0].roots == ((-128,), (128,))
    assert all(r.sym_over_base and not r.sym_over_e and r.degree == 1 for r in records)


@pytest.mark.parametrize("rank", [128, 129])
def test_a_root_system_takes_any_rank(rank: int) -> None:
    # only the root count is read into bytes, so the rank has no cap of its own
    roots = ((1,) + (0,) * (rank - 1), (-1,) + (0,) * (rank - 1))
    system = matrix_system(rank, roots, ((identity_matrix(rank), -1),))
    assert system.generators == ((bytes((0, 1)), -1),)
    records = classify_orbits(system)
    assert [r.roots for r in records] == [(roots[1],), (roots[0],)]
    assert all(not r.sym_over_base and r.degree == 2 for r in records)


def test_roots_closed_under_negation_required():
    with pytest.raises(ValueError, match=ROOT_SET_FAULT):
        matrix_system(1, ((1,),), ((((1,),), -1),))


def test_character_index_two_required():
    trivial = matrix_system(1, ((1,), (-1,)), ((((-1,),), 1),))
    for _ in range(2):  # a failed classification is not cached
        with pytest.raises(ValueError, match="index-2"):
            classify_orbits(trivial)


def test_classification_closes_the_group_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # built afresh, not taken from the shared builders, so no test before
    # this one can have classified them already
    calls = []
    closure = TwistedRootSystem.group_elements

    def counted(self: TwistedRootSystem) -> tuple:
        calls.append(self)
        return closure(self)

    monkeypatch.setattr(TwistedRootSystem, "group_elements", counted)
    builders = (
        lambda: gln_root_system.__wrapped__(5),
        lambda: unitary_root_system.__wrapped__(5),
        rank_one_klein,
    )
    for build in builders:
        system = build()
        calls.clear()
        first = classify_orbits(system)
        assert classify_orbits(system) == first
        assert calls == [system]
        # an equal system built separately keeps its own orbits
        twin = build()
        assert twin == system and twin is not system
        assert classify_orbits(twin) == first
        assert len(calls) == 2 and calls[1] is twin


def test_the_type_a_builders_pass_the_check_and_a_shift_off_the_roots_is_refused(monkeypatch):
    for n in range(3, 16, 2):
        for build in (gln_root_system, unitary_root_system):
            assert len(build(n).generators) == 1
    type_a = root_orbits._type_a

    def flipped(n: int):
        # e_0 -> -e_1, still a signed permutation: e_0 - e_1 goes to -e_1 - e_2 under the
        # shift and to e_1 + e_2 under its negative, neither of them a root
        roots = type_a(n)[0]
        rows = [list(row) for row in type_a_matrices(n)[0]]
        rows[1] = [-x for x in rows[1]]
        negated = [[-x for x in row] for row in rows]
        return roots, root_permutation(roots, rows), root_permutation(roots, negated)

    def transposed(n: int):
        # the shift, then the transposition of the two least roots, which are not each
        # other's negatives: a permutation of the roots that does not commute with negation
        roots, *actions = type_a(n)
        swap = bytes((1, 0, *range(2, len(roots))))
        return roots, *(bytes(swap[i] for i in action) for action in actions)

    for mutant in (flipped, transposed):
        monkeypatch.setattr(root_orbits, "_type_a", mutant)
        for n in range(3, 16, 2):
            for build in (gln_root_system.__wrapped__, unitary_root_system.__wrapped__):
                with pytest.raises(ValueError, match=GENERATOR_FAULT):
                    build(n)


def test_builders_share_one_system_per_rank() -> None:
    for build in (gln_root_system, unitary_root_system):
        assert build(5) is build(5)
        assert build(3) is not build(5)
    assert gln_root_system(5).roots is unitary_root_system(5).roots  # one root tuple per rank


@pytest.mark.parametrize("first", ["gln", "un"])
def test_both_type_a_builders_share_one_validated_root_set(monkeypatch, first) -> None:
    # the roots of a rank are checked, indexed and negated once, whichever builder comes first
    negated = []
    real = root_orbits._neg
    monkeypatch.setattr(root_orbits, "_neg", lambda v: negated.append(len(v)) or real(v))
    builders = {"gln": gln_root_system, "un": unitary_root_system}
    for n in (3, 5):
        systems = [builders[first](n), *(b(n) for k, b in builders.items() if k != first)]
        assert systems[0]._root_set is systems[1]._root_set
        assert negated.count(n) == n * (n - 1)  # one _neg per root
    assert root_orbits._root_set.cache_info()[:2] == (2, 2)  # (hits, misses)


BAD_ROOT_SETS = {
    "empty": (),
    "repeated": ((1, -1), (-1, 1), (1, -1)),
    "over-256": tuple((k, 0) for k in range(-128, 129)),
    "wrong-length": ((1,), (-1,)),
    "zero-vector": ((0, 0), (1, -1), (-1, 1)),
    "not-closed": ((1, -1),),
}


@pytest.mark.parametrize("first", ["gln", "un"])
@pytest.mark.parametrize("roots", BAD_ROOT_SETS.values(), ids=BAD_ROOT_SETS)
def test_a_refused_root_set_raises_for_every_builder_that_reaches_it(monkeypatch, roots, first) -> None:
    # a refusal is not cached: each builder raises it, in either order and again
    monkeypatch.setattr(root_orbits, "_type_a", lambda n: (roots, b"", b""))
    builders = {"gln": gln_root_system, "un": unitary_root_system}
    order = [builders[first], *(b for k, b in builders.items() if k != first)]
    for build in order * 2:
        with pytest.raises(ValueError, match=ROOT_SET_FAULT):
            build(2)
    assert root_orbits._root_set.cache_info().currsize == 0


def test_classification_returns_a_new_list_each_call() -> None:
    system = gln_root_system(3)
    first = classify_orbits(system)
    expected = list(first)
    first.clear()
    second = classify_orbits(system)
    assert second == expected and second is not first


def test_character_values_validated():
    with pytest.raises(ValueError, match=GENERATOR_FAULT):
        matrix_system(1, ((1,), (-1,)), ((((1,),), 2),))


# type A from rank 2; the negation of A_2 in Z^3 is 0 <-> 5, 1 <-> 4, 2 <-> 3
SPEC_ROOT_SETS = {
    1: ((1,), (-1,)),
    2: ((1, -1), (-1, 1)),
    3: tuple(r for r in itertools.product((-1, 0, 1), repeat=3) if sorted(r) == [-1, 0, 1]),
}


@st.composite
def permutation_candidates(draw, roots):
    """A permutation of the root indices; the oracle's reading of a signed permutation
    matrix, which may move a root off the set; or any bytes up to one longer than the
    roots, with entries up to their count."""
    size, rank = len(roots), len(roots[0])
    kind = draw(st.sampled_from(["permutation", "matrix", "bytes"]))
    if kind == "permutation":
        return bytes(draw(st.permutations(range(size))))
    if kind == "matrix":
        perm = draw(st.permutations(range(rank)))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=rank, max_size=rank))
        matrix = tuple(tuple(signs[i] * (j == perm[i]) for j in range(rank)) for i in range(rank))
        return root_permutation(roots, matrix)
    return bytes(draw(st.lists(st.integers(0, size), max_size=size + 1)))


def oracle_accepts(roots, perm, sign) -> bool:
    """Whether ``(perm, sign)`` permutes the root indices, commutes with negation,
    and has character value 1 or -1."""
    negation = [roots.index(tuple(-x for x in r)) for r in roots]
    return (
        sign in (1, -1)
        and sorted(perm) == list(range(len(roots)))
        and all(perm[negation[i]] == negation[perm[i]] for i in range(len(roots)))
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda rank: st.tuples(
            st.just(rank),
            st.lists(
                st.tuples(
                    permutation_candidates(SPEC_ROOT_SETS[rank]),
                    st.sampled_from((1, -1) * 4 + (0, 2)),
                ),
                max_size=3,
            ),
        )
    )
)
# a transposition of two roots that are not each other's negatives, the reading of a
# flip that moves (1, -1) off the roots, and bytes too short, repeated, too long or off
@example((3, [(bytes((1, 0, 2, 3, 4, 5)), -1)]))
@example((2, [(bytes((1, 0)), -1), (root_permutation(SPEC_ROOT_SETS[2], ((1, 0), (0, -1))), 1)]))
@example((2, [(b"\x00", -1)]))
@example((2, [(b"\x00\x00", -1)]))
@example((2, [(b"\x00\x01\x02", -1)]))
@example((2, [(b"\x01\x02", -1)]))
def test_a_root_system_accepts_exactly_the_generators_the_oracle_accepts(case) -> None:
    rank, generators = case
    roots, generators = SPEC_ROOT_SETS[rank], tuple(generators)
    if all(oracle_accepts(roots, perm, sign) for perm, sign in generators):
        system = TwistedRootSystem(rank, roots, generators)
        assert system.generators == generators
        # and so does every element of the closure
        assert all(oracle_accepts(roots, perm, sign) for perm, sign in system.group_elements())
    else:
        with pytest.raises(ValueError, match=GENERATOR_FAULT):
            TwistedRootSystem(rank, roots, generators)


# ---------------------------------------------------------------------------
# orbit classes from inertia, for every classification shape
# ---------------------------------------------------------------------------
# Each case gives the fields of its tower as (e, f) over the base: E is the
# kernel field, F_a and F_+-a the fixed fields of the stabilizer and the
# signed stabilizer, E_a that of the stabilizer inside the kernel, F_op that
# of the twisted stabilizer.  The inertia subgroup is chosen so that the
# tame rule gives those fields, which ``fixed_fields`` checks first.

RAM = (2, 1)
UNRAM = (1, 2)
KER = frozenset({I1, A1})  # the character kernel of the Klein action
STAB = frozenset({I1, B1})  # the stabilizer of the root
TWISTED = frozenset({I1, AB1})  # its twisted stabilizer


def compact_id(value):
    """Test ids with no spaces: ``2ur`` for ``Deg.UNRAM``, ``sym_ur`` for ``Sym.SYM_UNRAM``."""
    if isinstance(value, Deg):
        return value.value.replace(" ", "")
    if isinstance(value, Sym):
        return value.value.replace(" ", "_")
    return None  # pytest's own id


def fixed_fields(inertia, order, *subgroups):
    """``(e, f)`` of each subgroup's fixed field: ``[I : I & H]`` and ``[Q : H] / e``."""
    inertia = set(inertia)
    fields = []
    for h in subgroups:
        e = len(inertia) // len(inertia & set(h))
        fields.append((e, order // len(h) // e))
    return fields


def step_kind(lower, upper):
    """The kind of a step of degree 1 or 2 between two fields' ``(e, f)``."""
    ratio = (upper[0] // lower[0], upper[1] // lower[1])
    return {(1, 1): Deg.SPLIT, (2, 1): Deg.RAM, (1, 2): Deg.UNRAM}[ratio]


# a symmetric orbit's symmetry is the kind of its step from F_+-a up to F_a
SYMMETRIC = {Deg.UNRAM: Sym.SYM_UNRAM, Deg.RAM: Sym.SYM_RAM}


def klein_class(inertia, e_field=None, stab_field=None, twisted_field=None):
    """The Klein orbit's class; the fields of E, F_a and F_op are checked when given."""
    if e_field is not None:
        fields = fixed_fields(inertia, 4, KER, STAB, TWISTED, {I1})
        assert fields == [e_field, stab_field, twisted_field, (2, 2)]
    (rec,) = classify_orbits(rank_one_klein())
    return orbit_class(rec, inertia)


def test_tower_ramified_stab_unramified_step():
    # base step ramified, orbit-field step unramified, twisted field unramified
    triple = klein_class(TWISTED, RAM, RAM, UNRAM)
    assert triple == (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_UNRAM)
    assert derive_op_data(*triple) == (Sym.SYM_UNRAM, Deg.RAM)


def test_tower_unramified_stab_ramified_step():
    triple = klein_class(STAB, RAM, UNRAM, RAM)
    assert triple == (Deg.RAM, Sym.SYM_UNRAM, Sym.SYM_UNRAM)
    assert derive_op_data(*triple) == (Sym.SYM_RAM, Deg.UNRAM)


def test_tower_both_lower_steps_ramified():
    triple = klein_class(KER, UNRAM, RAM, RAM)
    assert triple == (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_RAM)
    assert derive_op_data(*triple) == (Sym.SYM_RAM, Deg.UNRAM)


@pytest.mark.parametrize(
    "quad,expected_sym,expected_twisted_deg",
    [(RAM, Sym.SYM_RAM, Deg.RAM), (UNRAM, Sym.SYM_UNRAM, Deg.UNRAM)],
    ids=compact_id,
)
def test_tower_split_step_asymmetric_over_e(quad, expected_sym, expected_twisted_deg):
    # one flip-and-twist generator: symmetric orbit whose stabilizer sits
    # inside the character kernel, asymmetric over the kernel field
    system = rank_one_order_two()
    (rec,) = classify_orbits(system)
    assert rec.degree == 1 and rec.sym_over_base and not rec.sym_over_e
    inertia = system.group_elements() if quad == RAM else {I1}
    assert fixed_fields(inertia, 2, rec.stab) == [quad]
    triple = orbit_class(rec, inertia)
    assert triple == (Deg.SPLIT, expected_sym, Sym.ASYM)
    assert rec.stab_twisted == rec.stab_signed  # the twisted field is the base
    assert derive_op_data(*triple) == (Sym.ASYM, expected_twisted_deg)


def test_tower_fully_asymmetric_split():
    # coordinate swap with nontrivial character: two asymmetric orbits,
    # trivial stabilizer, so every field in the tower coincides
    swap = ((0, 1), (1, 0))
    system = matrix_system(2, ((1, 0), (0, 1), (-1, 0), (0, -1)), ((swap, -1),))
    records = classify_orbits(system)
    assert len(records) == 2
    rec = records[0]
    assert not rec.sym_over_base and rec.degree == 1
    inertia = system.group_elements()
    assert fixed_fields(inertia, 2, rec.stab, rec.stab_e, rec.stab_twisted) == [RAM] * 3
    triple = orbit_class(rec, inertia)
    assert triple == (Deg.SPLIT, Sym.ASYM, Sym.ASYM)
    assert derive_op_data(*triple) == (Sym.ASYM, Deg.SPLIT)


@pytest.mark.parametrize(
    "e_alpha,expected_deg,expected_twisted_sym",
    [((1, 6), Deg.UNRAM, Sym.SYM_UNRAM), ((2, 3), Deg.RAM, Sym.SYM_RAM)],
    ids=compact_id,
)
def test_tower_asymmetric_nonsplit_cyclic(e_alpha, expected_deg, expected_twisted_sym):
    system = gln_root_system(3)
    rec = classify_orbits(system)[0]
    # F_a is the unramified cubic; E_a is ramified over it under inertia {1, g^3}
    inertia = rec.stab if e_alpha == (2, 3) else rec.stab_e
    assert fixed_fields(inertia, 6, rec.stab, rec.stab_e) == [(1, 3), e_alpha]
    triple = orbit_class(rec, inertia)
    assert triple == (expected_deg, Sym.ASYM, Sym.ASYM)
    # twisted field is the orbit field itself; the twisted orbit becomes
    # symmetric with the flavor of the original quadratic step
    assert rec.stab_twisted == rec.stab_e
    assert derive_op_data(*triple) == (expected_twisted_sym, Deg.SPLIT)


@pytest.mark.parametrize(
    "e_quad,top4,expected_sym",
    [(UNRAM, (1, 4), Sym.SYM_UNRAM), (UNRAM, (2, 2), Sym.SYM_RAM)],
    ids=compact_id,
)
def test_tower_symmetric_split_over_both(e_quad, top4, expected_sym):
    # dihedral action: flip inside the kernel, swap outside it; the orbit
    # is symmetric over base and kernel with a trivial quadratic step
    system = dihedral_square()
    (rec,) = classify_orbits(system)
    assert rec.sym_over_base and rec.sym_over_e and rec.degree == 1
    # trivial inertia leaves Q/I = Q dihedral, not cyclic; the rule for
    # e and f needs only that I is normal
    inertia = rec.stab_signed if top4 == (2, 2) else {element(range(4), 1)}
    assert fixed_fields(inertia, 8, rec.stab_signed, rec.stab) == [e_quad, top4]
    triple = orbit_class(rec, inertia)
    assert triple == (Deg.SPLIT, expected_sym, expected_sym)
    assert rec.stab_twisted == rec.stab
    assert derive_op_data(*triple) == (expected_sym, Deg.SPLIT)


@pytest.mark.parametrize(
    "splitting,pm_field,expected_sym,expected_twisted_deg",
    [((2, 3), (1, 3), Sym.SYM_RAM, Deg.RAM), ((1, 6), (1, 3), Sym.SYM_UNRAM, Deg.UNRAM)],
    ids=compact_id,
)
def test_tower_unitary_odd(splitting, pm_field, expected_sym, expected_twisted_deg):
    system = unitary_root_system(3)
    (rec,) = classify_orbits(system)
    # inertia is {1, h^3} (h^3 negates every root) or trivial
    inertia = rec.stab_signed if splitting == (2, 3) else rec.stab
    assert fixed_fields(inertia, 6, rec.stab_signed, rec.stab) == [pm_field, splitting]
    triple = orbit_class(rec, inertia)
    assert triple == (Deg.SPLIT, expected_sym, Sym.ASYM)
    assert rec.stab_twisted == rec.stab_signed
    assert derive_op_data(*triple) == (Sym.ASYM, expected_twisted_deg)


def test_tower_rejects_contradictory_twisted_field(monkeypatch: pytest.MonkeyPatch) -> None:
    # the diamond forces an unramified twisted field; a derivation that
    # claims a ramified twisted step contradicts the inertia data
    assert klein_class(TWISTED) == (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_UNRAM)
    monkeypatch.setattr(root_orbits, "derive_op_data", lambda *triple: (Sym.SYM_UNRAM, Deg.UNRAM))
    with pytest.raises(ValueError, match="twisted step"):
        klein_class(TWISTED)


def test_orbit_class_rejects_inertia_that_is_no_normal_subgroup():
    with pytest.raises(ValueError, match="identity"):
        klein_class({A1})
    with pytest.raises(ValueError, match="closed under products"):
        klein_class({I1, A1, B1})
    # A_2 with its Weyl group S_3 and the sign character: the signed
    # stabilizer of the base root e_2 - e_0 has index 3 and meets the
    # inertia <(0 1)>, which is not normal, trivially, so the residue degree
    # of its fixed field would be 3/2
    a2 = a2_weyl()
    s1 = as_pair(a2, A2_WEYL[0])
    (rec,) = classify_orbits(a2)
    assert rec.base_root == (-1, 0, 1) and len(rec.stab_signed) == 2 and s1 not in rec.stab_signed
    with pytest.raises(ValueError, match="normal"):
        orbit_class(rec, {element(range(6), 1), s1})


@pytest.mark.parametrize(
    "build,unram_class,ram_class",
    [(gln_root_system, 2, 3), (unitary_root_system, 4, 7)],
    ids=["gln", "un"],
)
@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_cyclic_families_classes_follow_the_character_on_inertia(build, unram_class, ram_class, n):
    # every subgroup <g^k> of the cyclic group Q = <g> as inertia: each
    # orbit gets the ramified class exactly when inertia meets the -1 coset
    system = build(n)
    (g,) = type_a_generators(build, n)
    powers = [(identity_matrix(n), 1)]
    while len(powers) < 2 * n:
        powers.append((mat_mul(powers[-1][0], g[0]), powers[-1][1] * g[1]))
    powers = [as_pair(system, power) for power in powers]
    assert len(set(powers)) == len(system.group_elements())
    records = classify_orbits(system)
    for k in range(len(powers)):
        inertia = {powers[k * j % len(powers)] for j in range(len(powers))}
        expected = ram_class if any(s == -1 for _, s in inertia) else unram_class
        assert {class_key(orbit_class(rec, inertia)) for rec in records} == {expected}


# ---------------------------------------------------------------------------
# opposition data: structural table and involution
# ---------------------------------------------------------------------------

OP_TABLE = {
    (Deg.SPLIT, Sym.ASYM, Sym.ASYM): (Sym.ASYM, Deg.SPLIT),
    (Deg.UNRAM, Sym.ASYM, Sym.ASYM): (Sym.SYM_UNRAM, Deg.SPLIT),
    (Deg.RAM, Sym.ASYM, Sym.ASYM): (Sym.SYM_RAM, Deg.SPLIT),
    (Deg.SPLIT, Sym.SYM_UNRAM, Sym.ASYM): (Sym.ASYM, Deg.UNRAM),
    (Deg.SPLIT, Sym.SYM_UNRAM, Sym.SYM_UNRAM): (Sym.SYM_UNRAM, Deg.SPLIT),
    (Deg.RAM, Sym.SYM_UNRAM, Sym.SYM_UNRAM): (Sym.SYM_RAM, Deg.UNRAM),
    (Deg.SPLIT, Sym.SYM_RAM, Sym.ASYM): (Sym.ASYM, Deg.RAM),
    (Deg.SPLIT, Sym.SYM_RAM, Sym.SYM_RAM): (Sym.SYM_RAM, Deg.SPLIT),
    (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_RAM): (Sym.SYM_RAM, Deg.UNRAM),
    (Deg.UNRAM, Sym.SYM_RAM, Sym.SYM_UNRAM): (Sym.SYM_UNRAM, Deg.RAM),
}


def test_op_data_frozen_table():
    for (deg, sym_f, sym_e), expected in OP_TABLE.items():
        assert derive_op_data(deg, sym_f, sym_e) == expected


def test_op_data_is_involutive_on_classes():
    # the twisted class of the twisted class is the original class
    for (deg, sym_f, sym_e), (sym_op, deg_op) in OP_TABLE.items():
        assert derive_op_data(deg_op, sym_op, sym_e) == (sym_f, deg)
        assert twisted_class((deg, sym_f, sym_e)) == (deg_op, sym_op, sym_e)
        assert twisted_class((deg_op, sym_op, sym_e)) == (deg, sym_f, sym_e)


def test_op_data_rejects_inconsistent_triples():
    with pytest.raises(ValueError, match="forces symmetric"):
        derive_op_data(Deg.SPLIT, Sym.ASYM, Sym.SYM_UNRAM)
    with pytest.raises(ValueError, match="trivial step"):
        derive_op_data(Deg.UNRAM, Sym.SYM_UNRAM, Sym.ASYM)
    with pytest.raises(ValueError, match="alternate"):
        derive_op_data(Deg.UNRAM, Sym.SYM_UNRAM, Sym.SYM_UNRAM)
    with pytest.raises(ValueError, match="alternate"):
        derive_op_data(Deg.RAM, Sym.SYM_RAM, Sym.SYM_RAM)
    with pytest.raises(ValueError, match="exactly one unramified"):
        derive_op_data(Deg.RAM, Sym.SYM_UNRAM, Sym.SYM_RAM)


def test_op_data_accepts_exactly_the_ten_classes():
    accepted = set()
    for triple in itertools.product(Deg, Sym, Sym):
        try:
            derive_op_data(*triple)
        except ValueError:
            continue
        accepted.add(triple)
    assert accepted == set(CLASS_TRIPLES)
    with pytest.raises(ValueError, match="equal symmetry flavors"):
        derive_op_data(Deg.SPLIT, Sym.SYM_UNRAM, Sym.SYM_RAM)
    with pytest.raises(ValueError, match="equal symmetry flavors"):
        derive_op_data(Deg.SPLIT, Sym.SYM_RAM, Sym.SYM_UNRAM)


# ---------------------------------------------------------------------------
# opposition twist on systems
# ---------------------------------------------------------------------------


def op_twist(system):
    """Follow each generator of character value -1 by negation, as scaling its
    matrix by its value does; an involution.

    An oracle for ``stab_twisted``: the stabilizer of a root in the twisted
    system is the image of the twisted stabilizer.
    """
    minus = tuple(tuple(-x for x in row) for row in identity_matrix(system.rank))
    negation = root_permutation(system.roots, minus)
    return TwistedRootSystem(
        rank=system.rank,
        roots=system.roots,
        generators=tuple(
            (perm if s == 1 else bytes(negation[i] for i in perm), s)
            for perm, s in system.generators
        ),
    )


def character_kernel(system):
    """The kernel of the character: group elements of character value 1."""
    return [g for g in system.group_elements() if g[1] == 1]


def test_op_twist_is_involutive():
    for system in (gln_root_system(3), unitary_root_system(3), rank_one_klein()):
        assert op_twist(op_twist(system)) == system


def test_op_twist_swaps_unitary_and_linear_actions():
    assert op_twist(gln_root_system(3)) == unitary_root_system(3)
    assert op_twist(unitary_root_system(5)) == gln_root_system(5)


def test_op_twist_realizes_twisted_stabilizer():
    # the stabilizer of a root in the twisted system is the image of the
    # twisted stabilizer under (matrix, s) -> (s * matrix, s), which on
    # root permutations follows an element of value -1 by negation
    system = rank_one_klein()
    (rec,) = classify_orbits(system)
    twisted_system = op_twist(system)
    twisted_records = classify_orbits(twisted_system)
    rec_op = next(r for r in twisted_records if rec.base_root in r.roots)
    roots = system.roots
    negation = [roots.index(tuple(-x for x in r)) for r in roots]
    image = {element(p if s == 1 else [negation[i] for i in p], s) for p, s in rec.stab_twisted}
    b = roots.index(rec.base_root)
    direct = {g for g in twisted_system.group_elements() if g[0][b] == b}
    assert image == direct
    assert rec_op.sym_over_e == rec.sym_over_e


def test_op_twist_preserves_kernel_elements():
    for system in (gln_root_system(4), unitary_root_system(3)):
        assert set(character_kernel(system)) == set(character_kernel(op_twist(system)))


# ---------------------------------------------------------------------------
# property-based invariants over random signed-permutation systems
# ---------------------------------------------------------------------------


def small_root_set(n):
    roots = set()
    for i in range(n):
        e_i = tuple(1 if k == i else 0 for k in range(n))
        roots.add(e_i)
        roots.add(tuple(-x for x in e_i))
        for j in range(n):
            if i != j:
                for sj in (1, -1):
                    v = tuple(
                        (1 if k == i else 0) + (sj if k == j else 0) for k in range(n)
                    )
                    roots.add(v)
                    roots.add(tuple(-x for x in v))
    return tuple(sorted(roots))


@st.composite
def signed_perm_systems(draw):
    """A small signed-permutation system, as ``(system, its matrix generators)``."""
    n = draw(st.integers(min_value=2, max_value=3))
    count = draw(st.integers(min_value=1, max_value=2))
    generators = []
    for idx in range(count):
        perm = draw(st.permutations(list(range(n))))
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
        matrix = tuple(
            tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)
        )
        e_sign = -1 if idx == 0 else draw(st.sampled_from((1, -1)))
        generators.append((matrix, e_sign))
    return matrix_system(n, small_root_set(n), tuple(generators)), tuple(generators)


@settings(max_examples=60, deadline=None)
@given(signed_perm_systems())
def test_orbit_partition_invariants(case):
    system, _ = case
    records = classify_orbits(system)
    order = len(system.group_elements())
    seen = []
    for rec in records:
        assert order % len(rec.roots) == 0
        assert rec.e_suborbit_count in (1, 2)
        assert (rec.degree == 1) == (rec.e_suborbit_count == 2)
        if rec.sym_over_e:
            assert rec.sym_over_base
        assert rec.stab <= rec.stab_signed
        assert rec.stab_e == rec.stab & frozenset(character_kernel(system))
        seen.extend(rec.roots)
    assert sorted(seen) == sorted(system.roots)


@settings(max_examples=60, deadline=None)
@given(signed_perm_systems())
def test_op_twist_involution_and_kernel(case):
    system, _ = case
    assert op_twist(op_twist(system)) == system
    assert set(character_kernel(system)) == set(character_kernel(op_twist(system)))


def definitional_orbit_records(system, matrices):
    """The orbit records by direct sweeps over the group the matrices make, as an oracle.

    Each stabilizer is swept over the matrices, then mapped to its root
    permutations.
    """
    elements = matrix_closure(system.rank, matrices)
    root_set = set(system.roots)
    assert all(apply(g[0], r) in root_set for g in elements for r in system.roots)
    pair = {g: as_pair(system, g) for g in elements}
    remaining = set(system.roots)
    records = []
    while remaining:
        base = min(remaining)
        neg = tuple(-x for x in base)
        orbit = sorted({apply(g[0], base) for g in elements})
        e_orbit = {apply(g[0], base) for g in elements if g[1] == 1}
        stab = [g for g in elements if apply(g[0], base) == base]
        stab_signed = [g for g in elements if apply(g[0], base) in (base, neg)]
        records.append(
            OrbitRecord(
                base_root=base,
                roots=tuple(orbit),
                sym_over_base=neg in orbit,
                sym_over_e=neg in e_orbit,
                degree=1 if all(g[1] == 1 for g in stab) else 2,
                e_suborbit_count=len(orbit) // len(e_orbit),
                stab=frozenset(map(pair.get, stab)),
                stab_signed=frozenset(map(pair.get, stab_signed)),
                stab_twisted=frozenset(
                    pair[g] for g in elements
                    if tuple(g[1] * x for x in apply(g[0], base)) == base
                ),
                stab_e=frozenset(pair[g] for g in stab if g[1] == 1),
                stab_signed_e=frozenset(pair[g] for g in stab_signed if g[1] == 1),
            )
        )
        remaining -= set(orbit)
    return records


def shuffled(system, seed):
    """``system`` with its roots listed in a seeded random order, each generator
    re-indexed to act on the same roots."""
    order = list(range(len(system.roots)))  # new index k holds old root order[k]
    random.Random(seed).shuffle(order)
    position = {old: new for new, old in enumerate(order)}
    generators = tuple(
        (bytes(position[perm[old]] for old in order), sign) for perm, sign in system.generators
    )
    return TwistedRootSystem(system.rank, tuple(system.roots[i] for i in order), generators)


def type_a_case(build, n):
    """A type-A builder's system with its matrix generators."""
    return build(n), type_a_generators(build, n)


@st.composite
def sweep_systems(draw):
    """Small signed-permutation systems and the families at odd n, as built or
    shuffled, each with its matrix generators.

    In a shuffled tuple the first root by index is seldom the least root,
    which is the orbit's base.
    """
    family = st.builds(
        type_a_case,
        st.sampled_from((gln_root_system, unitary_root_system)),
        st.sampled_from((3, 5, 7)),
    )
    system, matrices = draw(st.one_of(signed_perm_systems(), family))
    if draw(st.booleans()):
        system = shuffled(system, draw(st.integers(0, 2**16)))
    return system, matrices


@settings(max_examples=60, deadline=None)
@given(sweep_systems())
@example(type_a_case(gln_root_system, 7))
@example((shuffled(unitary_root_system(7), 0), type_a_generators(unitary_root_system, 7)))
def test_classify_orbits_matches_definitional_sweeps(case):
    system, matrices = case
    assert classify_orbits(system) == definitional_orbit_records(system, matrices)


@pytest.mark.parametrize("build", [gln_root_system, unitary_root_system])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_shuffled_roots_give_the_same_orbits_and_bases(build, n):
    system = build(n)
    for seed in range(3):
        other = shuffled(system, seed)
        assert other.roots != system.roots
        got = classify_orbits(other)
        assert [(r.base_root, r.roots) for r in got] == [
            (r.base_root, r.roots) for r in classify_orbits(system)
        ]
        assert got == definitional_orbit_records(other, type_a_generators(build, n))


@pytest.mark.parametrize("build", [gln_root_system, unitary_root_system], ids=["gln", "un"])
@pytest.mark.parametrize("n", range(2, 16))
def test_the_type_a_builders_match_the_matrix_oracle(build, n):
    # at every n the suites allow and the even n they do not: the roots e_i - e_j, the
    # generator read off the oracle's shift, and the orbit records of the matrix group
    matrices = type_a_generators(build, n)
    system = build(n)
    assert system.roots == type_a_roots(n)
    assert system.generators == tuple((root_permutation(system.roots, m), s) for m, s in matrices)
    assert classify_orbits(system) == definitional_orbit_records(system, matrices)


# ---------------------------------------------------------------------------
# root permutations composed in the closure, against per-element products
# ---------------------------------------------------------------------------

DIHEDRAL = ((((-1, 0), (0, 1)), 1), (((0, 1), (1, 0)), -1))  # a flip in the kernel, a swap outside
A2_WEYL = (  # the transpositions (0 1) and (1 2) as permutation matrices
    (((0, 1, 0), (1, 0, 0), (0, 0, 1)), -1),
    (((1, 0, 0), (0, 0, 1), (0, 1, 0)), -1),
)


def dihedral_square():
    """The square's dihedral group: a flip inside the character kernel, a swap outside."""
    return matrix_system(2, ((1, 0), (-1, 0), (0, 1), (0, -1)), DIHEDRAL)


def a2_weyl():
    """A_2 in ``Z^3``, roots ``e_i - e_j``, with its Weyl group S_3 and the sign character."""
    roots = ((1, -1, 0), (-1, 1, 0), (0, 1, -1), (0, -1, 1), (1, 0, -1), (-1, 0, 1))
    return matrix_system(3, roots, A2_WEYL)


def product_images(system, matrices):
    """Oracle: each element of the matrix group mapped to ``(root permutation,
    character value)``, from its matrix times the roots taken as columns, one
    product per element."""
    index = {r: i for i, r in enumerate(system.roots)}
    columns = tuple(zip(*system.roots))
    return {
        g: (tuple(index[image] for image in zip(*mat_mul(g[0], columns))), g[1])
        for g in matrix_closure(system.rank, matrices)
    }


def orbit_records_from_images(system, images):
    """Oracle: the orbit records read off a map from each matrix element to its
    ``(root permutation, character value)``; the stabilizers are sets of images."""
    roots = system.roots
    index = {r: i for i, r in enumerate(roots)}
    remaining = set(roots)
    records = []
    while remaining:
        base = min(remaining)
        b, nb = index[base], index[tuple(-x for x in base)]
        image = {pair: pair[0][b] for pair in images.values()}
        orbit = set(image.values())
        e_orbit = {r for pair, r in image.items() if pair[1] == 1}
        stab = frozenset(pair for pair, r in image.items() if r == b)
        stab_signed = frozenset(pair for pair, r in image.items() if r in (b, nb))
        orbit_roots = {roots[i] for i in orbit}
        records.append(
            OrbitRecord(
                base_root=base,
                roots=tuple(sorted(orbit_roots)),
                sym_over_base=nb in orbit,
                sym_over_e=nb in e_orbit,
                degree=1 if all(pair[1] == 1 for pair in stab) else 2,
                e_suborbit_count=len(orbit) // len(e_orbit),
                stab=stab,
                stab_signed=stab_signed,
                stab_twisted=frozenset(
                    pair for pair, r in image.items() if r == (b if pair[1] == 1 else nb)
                ),
                stab_e=frozenset(pair for pair in stab if pair[1] == 1),
                stab_signed_e=frozenset(pair for pair in stab_signed if pair[1] == 1),
            )
        )
        remaining -= orbit_roots
    return records


PERMUTATION_SYSTEMS = {
    **{f"gln{n}": lambda n=n: type_a_case(gln_root_system, n) for n in range(2, 8)},
    **{f"un{n}": lambda n=n: type_a_case(unitary_root_system, n) for n in range(2, 8)},
    "rank-one-klein": lambda: (rank_one_klein(), KLEIN),
    "dihedral-square": lambda: (dihedral_square(), DIHEDRAL),
    "a2-weyl": lambda: (a2_weyl(), A2_WEYL),
}


@settings(max_examples=60, deadline=None)
@given(st.one_of(signed_perm_systems(), st.builds(PERMUTATION_SYSTEMS["a2-weyl"])))
def test_group_elements_are_the_image_of_the_matrix_closure(case):
    system, matrices = case
    images = {as_pair(system, g) for g in matrix_closure(system.rank, matrices)}
    assert system.group_elements() == tuple(sorted(images))


def tuple_perms(elements):
    """Elements with each permutation as the oracle writes it, ``tuple(perm)``."""
    return [(tuple(perm), sign) for perm, sign in elements]


@pytest.mark.parametrize("build", PERMUTATION_SYSTEMS.values(), ids=PERMUTATION_SYSTEMS)
def test_composed_root_permutations_match_per_element_products(build):
    system, matrices = build()
    images = product_images(system, matrices)
    # the closure is the sorted image of the matrix group
    assert tuple_perms(system.group_elements()) == sorted(set(images.values()))
    records = classify_orbits(system)
    expected = orbit_records_from_images(system, images)
    assert len(records) == len(expected)
    for got, want in zip(records, expected):
        for field in OrbitRecord._fields:
            value = getattr(got, field)
            if field.startswith("stab"):
                value = frozenset(tuple_perms(value))
            assert value == getattr(want, field), field


FAMILIES = (
    rank_one_klein(),
    *(gln_root_system(n) for n in (2, 3, 4, 5)),
    *(unitary_root_system(n) for n in (2, 3, 4, 5)),
)


@settings(max_examples=80, deadline=None)
@given(st.one_of(signed_perm_systems().map(lambda case: case[0]), st.sampled_from(FAMILIES)))
def test_twisted_stabilizer_is_another_stabilizer_outside_the_biquadratic_shape(system):
    # outside the biquadratic shape the twisted stabilizer is already one of
    # the four, so its field, which orbit_class cross-checks, is one of theirs
    for rec in classify_orbits(system):
        if not rec.sym_over_base:
            assert rec.stab_twisted == rec.stab_e
        elif not rec.sym_over_e:
            assert rec.degree == 1
            assert rec.stab_twisted == rec.stab_signed
        elif rec.degree == 1:
            assert rec.stab_twisted == rec.stab
        else:
            others = (rec.stab, rec.stab_signed, rec.stab_e, rec.stab_signed_e)
            assert rec.stab_twisted not in others
