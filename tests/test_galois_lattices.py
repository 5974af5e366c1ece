"""Lattice cohomology engine: SNF, Tate groups, catalog, kernel identity.

The engine is validated four ways: frozen hand-computed values, the
independent brute-force cocycle oracle on finite truncations, structural
invariants (Shapiro, coinvariant-torsion consistency, multiplicativity),
and the Tate groups' orbit closed form against two routes that read no
orbits: Smith forms (``snf_tate_zero`` in degree 0, and in degree -1 the
coinvariant torsion, since ``ker(N) / I_G M = tors(M_G)`` for every
lattice) and, for one involution, Reiner's rank formula (``reiner_orders``).
The kernel identity compares its orbit route (left) with its coinvariant
route (right) at every quadratic step of the diamond; both sides count one
group by the algebra, so it checks the two computations, not the algebra.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from cocycle_oracle import (
    cyclic_one_cocycle_order,
    expected_truncated_order,
    truncated_tate_minus_one_order,
)
from conftest import (
    commuting_involution_pairs,
    signed_permutation_involutions,
    signed_permutation_matrices,
)
from conftest import identity_matrix as oracle_identity
from conftest import mat_mul
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quadchar import galois_lattices
from quadchar.galois_lattices import (
    FIELD_LEVELS,
    FiniteAbelianGroup,
    GaloisLattice,
    Gm,
    Prod,
    Res,
    U1,
    UnsupportedTorusError,
    action_matrix,
    cocharacter_lattice,
    component_group_dual,
    compose_permutations,
    compositum,
    field_contains,
    field_degree,
    galois_group,
    mat_vec,
    norm_quotient,
    prasad_torus_identity,
    Quotient,
    quotient,
    smith_normal_form,
    tate_cohomology,
    torus_catalog,
    torus_label,
)

NEG_ONE = ((-1,),)
SWAP = ((0, 1), (1, 0))
ROTATION = ((0, -1), (1, 0))  # order 4
RES_TORUS = Res("E1", "F", U1("K", "E1"))
# the one message of the generator reader, and the start of the lattice check's one message
READER_FAULT = "generator matrices must be signed permutations"
LATTICE_FAULT = "a lattice takes a rank of 0 to 128"


def lattice(rank: int, gens, orders) -> GaloisLattice:
    return GaloisLattice(rank=rank, generator_matrices=tuple(gens), generator_orders=tuple(orders))


def transpose(m):
    return tuple(zip(*m))


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

matrix_strategy = st.integers(1, 4).flatmap(
    lambda n: st.integers(1, 4).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-6, 6), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
)


def oracle_det(m) -> int:
    """Leibniz expansion; the matrices here are at most 4 x 4."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        term = (-1) ** inversions
        for i, j in enumerate(perm):
            term *= m[i][j]
        total += term
    return total


def determinantal_divisor(a, k: int) -> int:
    """The gcd of the k x k minors of ``a`` (0 when they all vanish)."""
    rows, cols = range(len(a)), range(len(a[0]))
    return math.gcd(
        *(
            oracle_det([[a[i][j] for j in cs] for i in rs])
            for rs in itertools.combinations(rows, k)
            for cs in itertools.combinations(cols, k)
        )
    )


@given(matrix_strategy)
@settings(max_examples=150, deadline=None)
@example([[0, 0], [0, 0]])
@example([[2, 0], [0, 3]])  # diagonal, but not a divisor chain
@example([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
def test_smith_normal_form_properties(rows: list[list[int]]) -> None:
    a = tuple(tuple(r) for r in rows)
    group = smith_normal_form(a)
    width = len(a[0])
    v = transpose(group.coordinates)  # u @ a @ v is diagonal, and the generators are v^-1
    assert mat_mul(v, group.generators) == oracle_identity(width)
    diag = group.diag
    assert len(diag) == width  # padded with zeros to the width
    rank = sum(1 for x in diag if x)
    assert all(not any(row[rank:]) for row in mat_mul(a, v))
    for x, y in zip(diag, diag[1:]):
        if x != 0:
            assert y % x == 0
        else:
            assert y == 0
    # d1 ... dk is the k-th determinantal divisor, which fixes the diagonal
    for k in range(1, min(len(a), width) + 1):
        assert math.prod(diag[:k]) == determinantal_divisor(a, k)


def integer_kernel(rows, width: int):
    """``(basis, coordinates)`` of ``ker(rows)`` from one Smith form.

    The rows of the form's ``coordinates`` past the rank (columns of ``v``)
    are the basis (as columns), and the matching ``generators`` (rows of
    ``v^-1``) map a kernel vector to its coordinates.
    """
    form = smith_normal_form(rows or [(0,) * width])
    rank = sum(1 for d in form.diag if d)
    return tuple(row[rank:] for row in transpose(form.coordinates)), form.generators[rank:]


@given(matrix_strategy)
@settings(max_examples=80, deadline=None)
def test_integer_kernel_annihilates(rows: list[list[int]]) -> None:
    a = tuple(tuple(r) for r in rows)
    basis, coordinates = integer_kernel(a, len(a[0]))
    assert all(not any(row) for row in mat_mul(a, basis))
    # the coordinates invert the basis, so its columns are independent
    assert mat_mul(coordinates, basis) == oracle_identity(len(coordinates))


def _prime_divisors(n: int) -> list[int]:
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % q for q in range(2, p))]


def assert_quotient_contract(group: Quotient, relations) -> None:
    """The generators invert the coordinates, every relation is 0, generator
    ``i`` has order ``diag[i]`` and ``diag`` is a divisor chain padded to the width."""
    width = len(group.diag)
    assert mat_mul(group.generators, transpose(group.coordinates)) == oracle_identity(width)
    assert all(group.is_zero_class(r) for r in relations)
    for i, d in enumerate(group.diag):
        generator = group.generators[i]
        if d == 0:  # coordinate i is kept exactly, so no multiple vanishes
            assert group.normalize(tuple(2 * x for x in generator))[i] == 2
        else:
            assert group.is_zero_class(tuple(d * x for x in generator))
            for p in _prime_divisors(d):
                assert not group.is_zero_class(tuple(d // p * x for x in generator))
    for x, y in zip(group.diag, group.diag[1:]):
        assert y % x == 0 if x else y == 0


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_quotient_with_relations(data: st.DataObject) -> None:
    width = data.draw(st.integers(1, 4))
    row = st.lists(st.integers(-6, 6), min_size=width, max_size=width).map(tuple)
    relations = data.draw(st.lists(row, max_size=4))
    group = quotient(width, relations)
    assert len(group.diag) == width
    assert_quotient_contract(group, relations)
    # one representative per torsion class, each of finite order
    representatives = group.torsion_representatives()
    assert len({group.normalize(rep) for rep in representatives}) == group.torsion.order
    order = group.torsion.order
    assert all(group.is_zero_class(tuple(order * x for x in rep)) for rep in representatives)

    # zero rows, repeats and negations of relations change no span
    extra = [(0,) * width, *relations, *(tuple(-x for x in r) for r in relations)]
    added = data.draw(st.lists(st.sampled_from(extra), max_size=6))
    padded_group = quotient(width, data.draw(st.permutations([*relations, *added])))
    assert padded_group.diag == group.diag
    identity = mat_mul(padded_group.generators, transpose(padded_group.coordinates))
    assert identity == oracle_identity(width)
    assert all(padded_group.is_zero_class(r) for r in relations)


def test_coinvariant_quotients_keep_the_quotient_contract() -> None:
    """On the catalog's coinvariant lattices and every involution lattice of rank <= 3."""
    lattices = [
        cocharacter_lattice(torus, level) for torus in torus_catalog() for level in FIELD_LEVELS
    ]
    for n in (1, 2, 3):
        lattices += [lattice(n, [m], [2]) for m in signed_permutation_involutions(n)]
        lattices += [lattice(n, pair, [2, 2]) for pair in commuting_involution_pairs(n)]
    assert len(lattices) == 50 + 162
    for lat in lattices:
        relations = [col for g in lat.generator_matrices for col in zip(*shifted(g, -1))]
        assert len(lat.coinvariants.diag) == lat.rank
        assert_quotient_contract(lat.coinvariants, relations)


def test_quotient_rejects_vectors_of_another_length() -> None:
    group = quotient(2, [(2, -2), (0, 0), (-2, 2)])  # Z/2 on (1, -1), Z on (0, 1)
    assert group.torsion.invariant_factors == (2,)
    assert not group.is_zero_class((1, -1)) and not group.is_zero_class((0, 1))
    assert group.is_zero_class((4, -4))
    assert quotient(2, []).diag == (0, 0)  # no relations: the quotient is Z^2
    # a dropped zero relation still has to have the right length
    with pytest.raises(ValueError, match="dimension mismatch"):
        quotient(2, [(0, 0, 0)])
    with pytest.raises(ValueError, match="dimension mismatch"):
        group.is_zero_class((1, 1, 1))


DENSE_ENTRIES = st.integers(-9, 9)
SPARSE_ENTRIES = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 1, -1, 3, -2))  # mostly zero, mostly +-1


def _int_matrix(rows: int, cols: int, entries=DENSE_ENTRIES):
    row = st.lists(entries, min_size=cols, max_size=cols).map(tuple)
    return st.lists(row, min_size=rows, max_size=rows).map(tuple)


def _signed_permutation(n: int):
    return st.tuples(
        st.permutations(range(n)), st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n)
    ).map(lambda ps: tuple(tuple(ps[1][i] * (j == ps[0][i]) for j in range(n)) for i in range(n)))


def _operand(rows: int, cols: int):
    """Dense, mostly zero, or (when square) a signed permutation."""
    kinds = [_int_matrix(rows, cols), _int_matrix(rows, cols, SPARSE_ENTRIES)]
    if rows == cols:
        kinds.append(_signed_permutation(rows))
    return st.one_of(kinds)


# (a, v) with a of shape n x k and v of length k
product_operands = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(_operand(s[0], s[1]), _int_matrix(1, s[1]))
)


@given(product_operands)
@example((((), ()), ((),)))  # two rows, no columns
@example(((), ((3,),)))  # no rows
@settings(max_examples=150, deadline=None)
def test_products_match_index_loops(operands) -> None:
    a, (v,) = operands
    k = len(v)
    assert mat_vec(a, v) == tuple(sum(a[i][t] * v[t] for t in range(k)) for i in range(len(a)))


# ---------------------------------------------------------------------------
# finite abelian groups
# ---------------------------------------------------------------------------


def test_invariant_factor_normalization() -> None:
    assert FiniteAbelianGroup.from_factors([2, 3]).invariant_factors == (6,)
    assert FiniteAbelianGroup.from_factors([2, 2]).invariant_factors == (2, 2)
    assert FiniteAbelianGroup.from_factors([4, 2]).invariant_factors == (2, 4)
    assert FiniteAbelianGroup.from_factors([6, 4]).invariant_factors == (2, 12)
    assert FiniteAbelianGroup.from_factors([1, 1]).invariant_factors == ()
    assert FiniteAbelianGroup.from_factors([6, 4]).order == 24


def prime_power_chain(factors) -> tuple[int, ...]:
    """Invariant factors via primary components: the k-th largest power of
    every prime multiply into the k-th largest invariant factor."""
    powers: dict[int, list[int]] = {}
    for n in factors:
        p = 2
        while n > 1:
            k = 0
            while n % p == 0:
                n, k = n // p, k + 1
            if k:
                powers.setdefault(p, []).append(p**k)
            p += 1
    for column in powers.values():
        column.sort(reverse=True)
    depth = max(map(len, powers.values()), default=0)
    chain = [math.prod(c[k] for c in powers.values() if k < len(c)) for k in range(depth)]
    return tuple(reversed(chain))


factor_lists = st.lists(st.integers(1, 60), max_size=6)


@given(factor_lists, factor_lists)
@settings(max_examples=200, deadline=None)
@example([6, 4], [])
@example([1, 1], [1])
@example([60, 60, 60], [8, 9, 5])
def test_invariant_factors_match_prime_power_oracle(first: list[int], second: list[int]) -> None:
    a, b = FiniteAbelianGroup.from_factors(first), FiniteAbelianGroup.from_factors(second)
    assert a.invariant_factors == prime_power_chain(first)
    product = FiniteAbelianGroup.from_factors(a.invariant_factors + b.invariant_factors)
    assert product.invariant_factors == prime_power_chain(first + second)
    assert a.order == math.prod(first)


def test_invariant_factor_validation() -> None:
    with pytest.raises(ValueError):
        FiniteAbelianGroup((3, 2))
    with pytest.raises(ValueError):
        FiniteAbelianGroup((1,))
    with pytest.raises(ValueError):
        FiniteAbelianGroup.from_factors([2, 0])


def test_group_describe() -> None:
    assert FiniteAbelianGroup(()).describe() == "1"
    assert FiniteAbelianGroup((2, 4)).describe() == "Z/2 x Z/4"


# ---------------------------------------------------------------------------
# Tate cohomology: frozen values
# ---------------------------------------------------------------------------


def test_sign_action_on_z() -> None:
    lat = lattice(1, [NEG_ONE], [2])
    assert tate_cohomology(lat, -1).invariant_factors == (2,)
    assert tate_cohomology(lat, 0).order == 1


def test_swap_action_on_z2_is_cohomologically_trivial() -> None:
    lat = lattice(2, [SWAP], [2])
    assert tate_cohomology(lat, -1).order == 1
    assert tate_cohomology(lat, 0).order == 1


def test_trivial_klein_action_weights_norm() -> None:
    eye = ((1,),)
    lat = lattice(1, [eye, eye], [2, 2])
    assert tate_cohomology(lat, -1).order == 1
    assert tate_cohomology(lat, 0).invariant_factors == (4,)


def test_klein_through_sign_quotient() -> None:
    lat = lattice(1, [NEG_ONE, NEG_ONE], [2, 2])
    assert tate_cohomology(lat, -1).invariant_factors == (2,)
    assert tate_cohomology(lat, 0).order == 1


def test_rejects_non_invertible_generator_and_bad_degree() -> None:
    with pytest.raises(ValueError):
        lattice(1, [((2,),)], [2])
    with pytest.raises(ValueError):
        tate_cohomology(lattice(1, [NEG_ONE], [2]), 1)
    with pytest.raises(ValueError):
        lattice(1, [NEG_ONE], [3])  # wrong declared order
    with pytest.raises(ValueError):
        lattice(2, [SWAP, ((1, 0), (0, -1))], [2, 2])  # generators do not commute


def formal_norm(rank: int, gens, orders):
    """The norm enumerated as the sum over every formal group element.

    The elements are listed as the products of one power of each generator,
    each power and each product formed once.
    """
    elements = [oracle_identity(rank)]
    for g, order in zip(gens, orders):
        powers = [oracle_identity(rank)]
        for _ in range(order - 1):
            powers.append(mat_mul(powers[-1], g))
        elements = [mat_mul(e, power) for e in elements for power in powers]
    return tuple(tuple(map(sum, zip(*rows))) for rows in zip(*elements))


def test_both_tate_degrees_read_the_one_orbit_walk_made_at_construction(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    builds, chains = [], []
    check, group = GaloisLattice.__post_init__, galois_lattices._group
    monkeypatch.setattr(GaloisLattice, "__post_init__", lambda lat: builds.append(lat) or check(lat))
    monkeypatch.setattr(galois_lattices, "_group", lambda chain: chains.append(chain) or group(chain))
    lat = lattice(2, [SWAP, ((-1, 0), (0, -1))], [2, 2])
    orbits = lat.line_orbits
    assert orbits == ((2, True, (0, 1)),)  # walked when the lattice was built
    assert (tate_cohomology(lat, -1).describe(), tate_cohomology(lat, 0).describe()) == ("Z/2", "1")
    assert builds == [lat] and lat.line_orbits is orbits  # one walk, which both degrees read
    assert chains == [(2,), ()]  # each degree one lookup of the chain the walk gave
    assert "coinvariants" not in vars(lat)  # the closed form needs no Smith form


@pytest.mark.parametrize("order", [1, 2, 4])
def test_lattice_accepts_exactly_the_signed_permutations_of_its_order(order: int) -> None:
    # rows of units that repeat a column (so singular) fail the read, as other rows do;
    # only a signed permutation reaches the order check
    eye = ((1, 0), (0, 1))
    accepted = 0
    for a, b, c, d in itertools.product(range(-2, 3), repeat=4):
        g = ((a, b), (c, d))
        power = eye
        for _ in range(order):
            power = mat_mul(power, g)
        units = all(sorted(map(abs, row)) == [0, 1] for row in g)
        signed = units and abs(a * d - b * c) == 1
        if signed and power == eye:
            lattice(2, [g], [order])
            accepted += 1
        else:
            with pytest.raises(ValueError, match=LATTICE_FAULT if signed else READER_FAULT):
                lattice(2, [g], [order])
    assert accepted == {1: 1, 2: 6, 4: 8}[order]  # I; then the involutions; then all 8


@pytest.mark.parametrize("order,accepted", [(10**18, True), (10**18 + 1, False)])
def test_a_declared_order_is_checked_in_time_free_of_its_size(order: int, accepted: bool) -> None:
    # SWAP has order 2 on the signed lines, read off its cycle lengths, so a declared
    # order is judged by one division, not by composing SWAP with itself order - 1 times
    start = time.perf_counter()
    if accepted:
        GaloisLattice(2, (SWAP,), (order,))
    else:
        with pytest.raises(ValueError, match=LATTICE_FAULT):
            GaloisLattice(2, (SWAP,), (order,))
    assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize("rank", range(5))
def test_the_order_read_off_cycle_lengths_is_the_least_power_to_the_identity(rank: int) -> None:
    eye = oracle_identity(rank)
    for g in itertools.islice(signed_permutation_matrices(rank), 0, None, 7):
        power, least = g, 1
        while power != eye:
            power, least = mat_mul(power, g), least + 1
        assert galois_lattices.signed_permutation(g)[2] == least


def signed_line_order(lines: bytes) -> int:
    """The lcm of the cycle lengths of a permutation of the ``2 rank`` signed lines, walked
    point by point over the bytes; the reader reads the same order off the ``rank`` rows."""
    order, seen = 1, bytearray(len(lines))
    for start in range(len(lines)):
        length, i = 0, start
        while not seen[i]:
            seen[i], i, length = 1, lines[i], length + 1
        if length:
            order = math.lcm(order, length)
    return order


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_the_order_read_off_the_rows_is_that_of_the_signed_lines(data) -> None:
    g = fresh_signed_permutation(data.draw, data.draw(st.integers(0, 12)))
    _, lines, order = galois_lattices.signed_permutation(g)
    assert order == signed_line_order(lines)
    power, least = lines, 1
    while power != bytes(range(len(lines))):
        power, least = compose_permutations(lines, power), least + 1
    assert least == order  # the least power of the lines that is the identity


def test_a_rejected_generator_raises_again_on_every_call() -> None:
    read = galois_lattices.signed_permutation
    for _ in range(3):
        with pytest.raises(ValueError, match=READER_FAULT):
            lattice(2, [((1, 1), (0, -1))], [2])
        with pytest.raises(ValueError, match=LATTICE_FAULT):
            lattice(2, [ROTATION], [2])
    assert read.cache_info().currsize == 1  # only the signed permutation
    # by row; on the signed lines, +-e_0 to -+e_1 (points 3, 2) and +-e_1 to +-e_0 (0, 1);
    # and its order, one 4-cycle
    assert read(ROTATION) == (((1, -1), (0, 1)), bytes((3, 2, 0, 1)), 4)
    lattice(2, [ROTATION], [4])  # the same read, judged at another order
    info = read.cache_info()  # a refusal is read again each call, ROTATION once
    assert (info.misses, info.currsize) == (3 + 1, 1)


def test_each_distinct_generator_is_read_once() -> None:
    read = galois_lattices.signed_permutation
    pairs = commuting_involution_pairs(4)
    for pair in pairs:
        lattice(4, pair, [2, 2])
    info = read.cache_info()
    assert (len(pairs), info.misses, info.hits) == (982, 76, 1888)  # 2 * 982 reads
    # the matrices are the keys, so they must be tuples of rows
    with pytest.raises(TypeError, match="unhashable"):
        lattice(4, [list(map(list, g)) for g in pairs[0]], [2, 2])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 256).flatmap(lambda n: st.tuples(*[st.permutations(range(n))] * 2)))
@example((tuple(range(256)), tuple(range(255, -1, -1))))
def test_compose_permutations_matches_tuple_composition(pair) -> None:
    a, b = pair
    assert tuple(compose_permutations(bytes(a), bytes(b))) == tuple(a[i] for i in b)


def test_lattice_rank_fits_the_signed_lines_in_a_byte() -> None:
    # 2 * 128 signed lines are the most a byte indexes
    assert tate_cohomology(lattice(128, [oracle_identity(128)], [1]), 0).order == 1
    with pytest.raises(ValueError, match=LATTICE_FAULT):
        lattice(129, [oracle_identity(129)], [1])


def test_a_declared_order_must_be_an_integer_whatever_was_built_before() -> None:
    # 2.0 == 2 with equal hashes, so no cache keyed on the order may judge it
    for _ in range(2):  # in a fresh cache state, then after the integer order was accepted
        with pytest.raises(TypeError):
            GaloisLattice(1, (((1,),),), (2.0,))
        assert tate_cohomology(GaloisLattice(1, (((1,),),), (2,)), 0).describe() == "Z/2"


@pytest.mark.parametrize(
    "matrix",
    [((-1.0,),), ((0.0, -1.0), (-1.0, 0.0)), ((True,),), ((False, True), (True, False))],
    ids=["float", "float-swap", "bool", "bool-swap"],
)
def test_float_and_bool_entries_compute_as_their_int_twins_whatever_was_built_before(matrix) -> None:
    # 1.0 == True == 1 with equal hashes, so the reader serves a matrix and its twin as one key
    twin = tuple(tuple(map(int, row)) for row in matrix)

    def computed(g) -> list[str]:
        lat = lattice(len(g), [g], [2])
        tate = [tate_cohomology(lat, degree).describe() for degree in (-1, 0)]
        return [*tate, repr(lat.coinvariants)]

    first = computed(matrix)  # in a fresh cache state, the non-int matrix read first
    assert computed(twin) == first
    assert computed(matrix) == first  # and after its twin was built
    assert "." not in "".join(first) and "True" not in "".join(first)


# ---------------------------------------------------------------------------
# the generators that lattices accept
# ---------------------------------------------------------------------------


def fresh_signed_permutation(draw, n: int):
    perm = draw(st.permutations(range(n)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    return tuple(tuple(signs[i] * (j == perm[i]) for j in range(n)) for i in range(n))


@st.composite
def generator_candidates(draw, rank: int):
    """A signed permutation of size ``rank`` or of size 0-4, one of size ``rank`` with an
    entry changed, or any small matrix: square or not, rows ragged or not, entries in -2..2."""
    kind = draw(st.sampled_from(["signed", "resized", "changed", "any"]))
    entry = st.integers(-2, 2)
    if kind != "any":
        size = draw(st.integers(0, 4)) if kind == "resized" else rank
        g = [list(row) for row in fresh_signed_permutation(draw, size)]
        if kind == "changed" and rank:
            i, j = draw(st.tuples(*[st.integers(0, rank - 1)] * 2))
            g[i][j] = draw(entry)
        return tuple(map(tuple, g))
    size = draw(st.integers(0, 4))
    ragged = st.lists(st.integers(0, 4), min_size=size, max_size=size)
    widths = draw(st.one_of(st.just([size] * size), ragged))
    return tuple(tuple(draw(st.lists(entry, min_size=w, max_size=w))) for w in widths)


def oracle_signed_permutation(rank: int, g) -> bool:
    """Whether ``g`` is a signed permutation of size ``rank``: rows as long as the
    matrix, and ``g g^T = 1`` for an integer ``g``."""
    return len(g) == rank and all(len(row) == rank for row in g) and (
        mat_mul(g, transpose(g)) == oracle_identity(rank)
    )


# ---------------------------------------------------------------------------
# engine vs the independent truncation oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_engine_matches_oracle_on_all_involutions(n: int) -> None:
    for mat in signed_permutation_involutions(n):
        lat = lattice(n, [mat], [2])
        product = tate_cohomology(lat, -1).order * tate_cohomology(lat, 0).order
        assert truncated_tate_minus_one_order([mat], [2], 8) == expected_truncated_order(
            tate_cohomology(lat, -1).order, tate_cohomology(lat, 0).order
        )
        assert cyclic_one_cocycle_order(mat, 8) == product


@pytest.mark.parametrize("n", [1, 2])
def test_engine_matches_oracle_on_commuting_pairs(n: int) -> None:
    for a, b in commuting_involution_pairs(n):
        lat = lattice(n, [a, b], [2, 2])
        product = tate_cohomology(lat, -1).order * tate_cohomology(lat, 0).order
        assert truncated_tate_minus_one_order([a, b], [2, 2], 8) == product


@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_engine_matches_oracle_on_sampled_rank3_pairs(data: st.DataObject) -> None:
    pair = data.draw(st.sampled_from(commuting_involution_pairs(3)))
    lat = lattice(3, list(pair), [2, 2])
    product = tate_cohomology(lat, -1).order * tate_cohomology(lat, 0).order
    assert truncated_tate_minus_one_order(list(pair), [2, 2], 8) == product


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_herbrand_quotient_of_every_involution(n: int) -> None:
    # |H^0| / |H^-1| = 2**trace for an involution lattice
    for mat in signed_permutation_involutions(n):
        lat = lattice(n, [mat], [2])
        trace = sum(mat[i][i] for i in range(n))
        minus, zero = tate_cohomology(lat, -1), tate_cohomology(lat, 0)
        assert zero.order * 2 ** max(0, -trace) == minus.order * 2 ** max(0, trace), mat


@pytest.mark.parametrize("n", [1, 2, 3])
def test_group_order_kills_tate_groups_of_commuting_pairs(n: int) -> None:
    for a, b in commuting_involution_pairs(n):
        lat = lattice(n, [a, b], [2, 2])
        factors = tate_cohomology(lat, -1).invariant_factors
        factors += tate_cohomology(lat, 0).invariant_factors
        assert all(4 % d == 0 for d in factors), (a, b)


def test_tate_cohomology_takes_no_smith_form(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []
    snf = galois_lattices.smith_normal_form
    monkeypatch.setattr(galois_lattices, "smith_normal_form", lambda a: calls.append(a) or snf(a))
    swap_negate = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
    lat = lattice(3, [swap_negate, ((-1, 0, 0), (0, -1, 0), (0, 0, 1))], [2, 2])
    for degree in (-1, 0):
        tate_cohomology(lat, degree)
    assert calls == []
    # the coinvariants take one Smith form, however often they are read
    group = lat.coinvariants
    assert lat.coinvariants is group and len(calls) == 1
    # its generators and coordinates come with that form: reading classes takes no other
    group.torsion_representatives()
    group.is_zero_class((0, 0, 0))
    assert len(calls) == 1


def test_tate_reads_build_each_invariant_factor_chain_once(monkeypatch: pytest.MonkeyPatch) -> None:
    # the conftest fixture has emptied the shared groups, so every chain is built here
    lattices = []
    for n in (1, 2, 3):
        lattices += [lattice(n, [m], [2]) for m in signed_permutation_involutions(n)]
        lattices += [lattice(n, pair, [2, 2]) for pair in commuting_involution_pairs(n)]
    lattices += [
        cocharacter_lattice(torus, level) for torus in torus_catalog() for level in FIELD_LEVELS
    ]
    assert len(lattices) == 162 + 50
    builds = []
    check = FiniteAbelianGroup.__post_init__
    monkeypatch.setattr(
        FiniteAbelianGroup, "__post_init__", lambda group: builds.append(group) or check(group)
    )
    reads = [tate_cohomology(lat, degree) for lat in lattices for degree in (-1, 0)]
    shared = {}
    for group in reads:  # equal chains are one object
        assert shared.setdefault(group.invariant_factors, group) is group
    assert len(builds) == len(shared) < len(reads)


def test_signed_permutation_lattices_take_no_matrix_product() -> None:
    # validation composes the generators' bytes and the orbit walk reads their rows:
    # each distinct matrix meets the one reader once, and no matrix product exists
    assert not hasattr(galois_lattices, "mat_mul")
    lattices = []
    for n in (1, 2, 3, 4):
        lattices += [lattice(n, [m], [2]) for m in signed_permutation_involutions(n)]
        lattices += [lattice(n, pair, [2, 2]) for pair in commuting_involution_pairs(n)]
    lattices += [
        cocharacter_lattice.__wrapped__(torus, level)
        for torus in torus_catalog()
        for level in FIELD_LEVELS
    ]
    assert len(lattices) == 162 + 76 + 982 + 50
    for lat in lattices:
        tate_cohomology(lat, -1), tate_cohomology(lat, 0)
    matrices = {g for lat in lattices for g in lat.generator_matrices}
    info = galois_lattices.signed_permutation.cache_info()
    assert info.misses == info.currsize == len(matrices)


def test_lattice_rejects_a_generator_that_is_no_signed_permutation() -> None:
    # an involution that commutes with -I, so only the signed-permutation check refuses it
    g, minus = ((1, 1), (0, -1)), ((-1, 0), (0, -1))
    for gens in ([g], [minus, g], [g, minus]):
        with pytest.raises(ValueError, match="signed permutation"):
            lattice(2, gens, [2] * len(gens))
    # the Smith forms still read the matrices: Z[C2], and Z^2 / (2 Z^2 + Z (1, -2)) = Z/2
    assert snf_coinvariant_torsion(2, [g]).order == 1
    assert snf_coinvariant_torsion(2, [minus, g]).order == 2


# ---------------------------------------------------------------------------
# the orbit closed form vs Smith forms, and Reiner's formula for involutions
# ---------------------------------------------------------------------------


def shifted(g, s: int):
    """``g + s`` for an integer ``s``."""
    eye = oracle_identity(len(g))
    return [[x + s * e for x, e in zip(row, eye_row)] for row, eye_row in zip(g, eye)]


def snf_tate_zero(rank: int, gens, orders) -> FiniteAbelianGroup:
    """``M^G / N M`` by two Smith forms: the stacked rows of ``g - 1`` cut out ``M^G``.

    With no generators a zero row cuts out all of ``M``.  The norm columns
    are written in the kernel basis of ``M^G``, and their span has finite
    index there.  Reads the matrices alone, so any integer action will do.
    """
    fixed = [row for g in gens for row in shifted(g, -1)]
    _, coordinates = integer_kernel(fixed, rank)
    norm = formal_norm(rank, gens, orders)
    group = quotient(len(coordinates), (mat_vec(coordinates, c) for c in zip(*norm)))
    assert 0 not in group.diag, "the norm image has finite index in the fixed points"
    return group.torsion


def snf_coinvariant_torsion(rank: int, gens) -> FiniteAbelianGroup:
    """Torsion of ``M / sum (g - 1) M`` from the matrices, by one Smith form."""
    return quotient(rank, (col for g in gens for col in zip(*shifted(g, -1)))).torsion


def assert_closed_form_matches_smith_forms(lat: GaloisLattice) -> None:
    assert tate_cohomology(lat, -1) == lat.coinvariants.torsion, lat
    zero = snf_tate_zero(lat.rank, lat.generator_matrices, lat.generator_orders)
    assert tate_cohomology(lat, 0) == zero, lat


def test_closed_form_matches_smith_forms_on_every_small_lattice() -> None:
    lattices = []
    for n in (1, 2, 3, 4):
        lattices += [lattice(n, [m], [2]) for m in signed_permutation_involutions(n)]
        lattices += [lattice(n, pair, [2, 2]) for pair in commuting_involution_pairs(n)]
    assert len(lattices) == 162 + 76 + 982  # rank <= 3, then rank-4 singles and pairs
    lattices.append(lattice(2, [ROTATION], [4]))
    lattices.append(lattice(2, [ROTATION, ((-1, 0), (0, -1))], [4, 2]))
    lattices.append(lattice(2, [ROTATION], [8]))  # declared order a multiple of the true one
    lattices += [
        cocharacter_lattice(torus, level) for torus in torus_catalog() for level in FIELD_LEVELS
    ]
    for lat in lattices:
        assert_closed_form_matches_smith_forms(lat)


SWAP_NEGATE = ((0, 1, 0), (1, 0, 0), (0, 0, -1))
NEGATE_TWO = ((-1, 0, 0), (0, -1, 0), (0, 0, 1))


@pytest.mark.parametrize(
    "rank, gens, orbits",
    [
        # SWAP alone leaves {e0, e1} unsigned; -I meets e0 as -e0 only after it
        (2, [SWAP, ((-1, 0), (0, -1))], ((2, True, (0, 1)),)),
        # NEGATE_TWO alone signs {e0, e1} and SWAP_NEGATE alone {e2}, so in either
        # order one orbit's sign comes from the later generator
        (3, [SWAP_NEGATE, NEGATE_TWO], ((2, True, (0, 1)), (4, True, (2,)))),
        (3, [NEGATE_TWO, SWAP_NEGATE], ((2, True, (0, 1)), (4, True, (2,)))),
    ],
)
def test_a_sign_met_only_through_a_later_generator_signs_the_orbit(rank, gens, orbits) -> None:
    lat = lattice(rank, gens, [2, 2])
    assert lat.line_orbits == orbits
    assert tate_cohomology(lat, -1).order == 2 ** len(orbits)
    assert_closed_form_matches_smith_forms(lat)


def _order(g) -> int:
    eye, power, order = oracle_identity(len(g)), g, 1
    while power != eye:
        power, order = mat_mul(power, g), order + 1
    return order


def _cycles(perm: list[int]) -> list[list[int]]:
    seen: set[int] = set()
    out = []
    for start in perm:
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(start)
            start = perm[start]
        if cycle:
            out.append(cycle)
    return out


def test_closed_form_matches_smith_forms_on_random_orders_3_4_6() -> None:
    """Seeded lattices with a generator ``g`` of order 3, 4 or 6, an optional
    second generator that commutes with it, and declared orders that are
    multiples of the true ones."""
    rng = random.Random(20261018)
    seen_orders: set[int] = set()
    checked = 0
    while checked < 300:
        n = rng.randint(2, 5)
        perm, signs = rng.sample(range(n), n), [rng.choice((1, -1)) for _ in range(n)]
        cycles = _cycles(perm)
        # a cycle whose signs multiply to -1 has twice its length as order
        cycle_orders = [len(c) * (2 - (math.prod(signs[i] for i in c) == 1)) for c in cycles]
        if math.lcm(*cycle_orders) not in (3, 4, 6):
            continue
        g = tuple(tuple(signs[i] * (j == perm[i]) for j in range(n)) for i in range(n))
        gens = [g]
        if rng.random() < 0.5:
            # on each cycle of g, a signed power of g: it commutes with g
            powers = [oracle_identity(n)]
            for _ in range(11):
                powers.append(mat_mul(powers[-1], g))
            rows = {}
            for cycle in cycles:
                sign, power = rng.choice((1, -1)), rng.choice(powers)
                rows.update({i: tuple(sign * x for x in power[i]) for i in cycle})
            gens.append(tuple(rows[i] for i in range(n)))
        orders = [_order(x) * rng.choice((1, 2, 3)) for x in gens]
        seen_orders.update(orders)
        assert_closed_form_matches_smith_forms(lattice(n, gens, orders))
        checked += 1
    assert {3, 4, 6, 8, 9, 12} <= seen_orders  # faithful and non-faithful declarations


@st.composite
def lattice_presentations(draw) -> tuple[int, list, list[int]]:
    """Rank 0-5, 0-3 generators, declared orders -1..8.

    A generator is a fresh signed permutation, a product of earlier ones
    (which may commute with them) or a ``generator_candidates`` matrix,
    which may be no signed permutation or of another size; an order is any
    of -1..8, or a multiple of a signed permutation's true order, so that
    both verdicts of every invariant are drawn.
    """
    n = draw(st.integers(0, 5))
    gens, signed = [], []
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["fresh", "candidate", *["product"] * bool(signed)]))
        if kind == "product":
            g = oracle_identity(n)
            for h in draw(st.lists(st.sampled_from(signed), min_size=1, max_size=3)):
                g = mat_mul(g, h)
        elif kind == "fresh":
            g = fresh_signed_permutation(draw, n)
        else:
            g = draw(generator_candidates(n))
        if oracle_signed_permutation(n, g):
            signed.append(g)
        gens.append(g)
    orders = []
    for g in gens:
        anything = st.integers(-1, 8)
        multiples = [k for k in range(1, 9) if g in signed and k % _order(g) == 0]
        orders.append(draw(st.one_of(anything, st.sampled_from(multiples)) if multiples else anything))
    return n, gens, orders


@given(lattice_presentations())
@settings(max_examples=300, deadline=None)
@example((2, [SWAP, ((1, 0), (0, -1))], [2, 2]))  # the orders hold, the pair does not commute
@example((2, [SWAP, ROTATION], [2, 4]))
@example((1, [NEG_ONE], [3]))
@example((2, [SWAP, ROTATION, ((1, 1), (0, 1))], [2, 0, 2]))  # an order below 1, a shear
def test_lattice_accepts_exactly_the_presentations_the_oracle_accepts(presentation) -> None:
    n, gens, orders = presentation
    eye = oracle_identity(n)
    # each generator: a signed permutation of the rank, and an order of at least 1 that it meets
    fault = False
    for g, order in zip(gens, orders):
        if order < 1 or not oracle_signed_permutation(n, g):
            fault = True
            continue
        power = eye
        for _ in range(order):
            power = mat_mul(power, g)
        fault |= power != eye
    # the generators commute
    if not fault:
        fault = any(mat_mul(g, h) != mat_mul(h, g) for g, h in itertools.combinations(gens, 2))
    if fault:
        with pytest.raises(ValueError):
            lattice(n, gens, orders)
    else:
        assert_closed_form_matches_smith_forms(lattice(n, gens, orders))


def _rank(rows, mod2: bool = False) -> int:
    """Rank of an integer matrix over Q, or over F_2, by Gaussian elimination."""
    reduce = (lambda x: x % 2) if mod2 else (lambda x: x)
    rows = [[reduce(Fraction(x)) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]  # over F_2 the pivot is 1
            rows[r] = [reduce(a - f * b) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reiner_orders(sigma) -> tuple[int, int]:
    """``(|H^0|, |H^-1|)`` for one involution ``sigma`` on ``Z^n``, by ranks alone.

    Reiner (Proc. AMS 8, 1957; cite only): the lattice is ``Z^a + Z_-^b +
    Z[C2]^c``, so ``H^0 = (Z/2)^a`` and ``H^-1 = (Z/2)^b``, where
    ``c = rank_F2(1 + sigma)``, ``a + c = rank ker(sigma - 1)`` and
    ``b + c = rank ker(sigma + 1)``.
    """
    n = len(sigma)
    c = _rank(shifted(sigma, 1), mod2=True)
    return 2 ** (n - _rank(shifted(sigma, -1)) - c), 2 ** (n - _rank(shifted(sigma, 1)) - c)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reiner_formula_matches_closed_form_on_every_involution(n: int) -> None:
    for sigma in signed_permutation_involutions(n):
        lat = lattice(n, [sigma], [2])
        zero, minus = reiner_orders(sigma)
        assert (tate_cohomology(lat, 0).order, tate_cohomology(lat, -1).order) == (zero, minus)


def test_reiner_formula_matches_smith_forms_on_conjugated_involutions() -> None:
    """Involutions ``u sigma u^-1`` for unimodular ``u``: no lattice is built from
    them, so the Smith forms of the matrices and Reiner's ranks are compared directly."""
    rng = random.Random(7919)
    involutions = {n: signed_permutation_involutions(n) for n in (2, 3, 4)}
    checked = 0
    while checked < 12:
        n = rng.randint(2, 4)
        sigma = rng.choice(involutions[n])
        u = u_inv = oracle_identity(n)
        for _ in range(3):  # a product of transvections and its inverse
            i, j = rng.sample(range(n), 2)
            t = rng.choice((-2, -1, 1, 2))
            step = [list(row) for row in oracle_identity(n)]
            back = [list(row) for row in oracle_identity(n)]
            step[i][j], back[i][j] = t, -t
            u, u_inv = mat_mul(u, step), mat_mul(back, u_inv)
        conjugate = mat_mul(mat_mul(u, sigma), u_inv)
        if all(sum(map(abs, row)) == 1 for row in conjugate):
            continue  # still a signed permutation: the sweep above covers it
        with pytest.raises(ValueError, match="signed permutation"):
            lattice(n, [conjugate], [2])
        zero, minus = reiner_orders(conjugate)
        smith = snf_tate_zero(n, [conjugate], [2]), snf_coinvariant_torsion(n, [conjugate])
        assert (smith[0].order, smith[1].order) == (zero, minus)
        assert reiner_orders(sigma) == (zero, minus)  # conjugation changes no group
        checked += 1


# ---------------------------------------------------------------------------
# the tower and cocharacter lattices
# ---------------------------------------------------------------------------


def test_tower_structure() -> None:
    assert field_contains("E", "F") and field_contains("K", "E1")
    assert not field_contains("E", "E1")
    assert field_degree("K", "F") == 4
    assert field_degree("E", "F") == 2
    assert compositum("E", "E1") == "K"
    assert compositum("E", "E") == "E"


def test_u1_action_matrices() -> None:
    t = U1("E", "F")
    assert action_matrix(t, 1) == ((1,),)  # fixes E
    assert action_matrix(t, 2) == ((-1,),)  # moves E


def test_res_action_matrices_frozen() -> None:
    assert action_matrix(RES_TORUS, 1) == ((0, 1), (1, 0))
    assert action_matrix(RES_TORUS, 2) == ((-1, 0), (0, -1))


def test_quadratic_step_over_every_ordered_pair_of_levels() -> None:
    generators, degree_one_or_four, uncontained = {}, 0, 0
    for top, bottom in itertools.product(FIELD_LEVELS, repeat=2):
        if not field_contains(top, bottom):
            with pytest.raises(ValueError, match=f"^{top} does not contain {bottom}$") as raised:
                galois_lattices._quadratic_step(top, bottom)
            assert not isinstance(raised.value, UnsupportedTorusError)
            uncontained += 1
        elif field_degree(top, bottom) != 2:
            with pytest.raises(UnsupportedTorusError, match=f"quadratic step, got {top}/{bottom}$"):
                galois_lattices._quadratic_step(top, bottom)
            degree_one_or_four += 1
        else:
            s = galois_lattices._quadratic_step(top, bottom)
            assert s in galois_group(bottom) and s not in galois_group(top)
            generators[top, bottom] = s
    assert (len(generators), degree_one_or_four, uncontained) == (6, 6, 13)
    # the first element outside Gal(K/top): 2 moves E, 1 moves E1 and E2, 3 fixes E2
    assert generators == {
        ("E", "F"): 2, ("E1", "F"): 1, ("E2", "F"): 1, ("K", "E"): 1, ("K", "E1"): 2, ("K", "E2"): 3
    }


def test_a_step_is_checked_before_its_base() -> None:
    torus = U1("K", "E1")
    for check in (norm_quotient, prasad_torus_identity):
        # K/F is not quadratic and E1 is not F: the step is reported
        with pytest.raises(UnsupportedTorusError, match="^need a quadratic step, got K/F$"):
            check(torus, ("K", "F"))
        with pytest.raises(UnsupportedTorusError, match="does not match the step base F$"):
            check(torus, ("E", "F"))
        with pytest.raises(ValueError, match="^E does not contain E1$"):
            check(torus, ("E", "E1"))


def test_action_matrices_multiply_as_the_xor_group() -> None:
    """``g ^ h`` acts as ``g`` after ``h`` on every torus of the quadratic-step pairs."""
    tori = dict.fromkeys(torus for torus, _ in quadratic_step_pairs())
    assert set(torus_catalog()) <= set(tori)
    for t in tori:
        group = galois_group(t.base)
        assert action_matrix(t, 0) == oracle_identity(t.rank)
        for g, h in itertools.product(group, repeat=2):
            product = mat_mul(action_matrix(t, g), action_matrix(t, h))
            assert action_matrix(t, g ^ h) == product, (t, g, h)
        for g in set(range(4)) - set(group):
            with pytest.raises(ValueError, match="does not fix the base field"):
                action_matrix(t, g)


def test_cocharacter_level_validation() -> None:
    with pytest.raises(ValueError):
        cocharacter_lattice(U1("K", "E1"), "F")  # F does not contain E1
    with pytest.raises(UnsupportedTorusError, match="^need a quadratic step, got K/F$"):
        U1("K", "F")  # not a quadratic step
    with pytest.raises(UnsupportedTorusError, match="^need a quadratic step, got K/F$"):
        Res("K", "F", Gm("K"))
    with pytest.raises(UnsupportedTorusError):
        Res("E1", "F", U1("K", "E2"))  # inner torus over the wrong field
    with pytest.raises(UnsupportedTorusError):
        Prod((Gm("F"), Gm("E")))  # mixed bases


def test_every_catalog_lattice_passes_the_check_and_a_non_commuting_action_is_refused(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    for torus in torus_catalog():
        for level in FIELD_LEVELS:
            assert cocharacter_lattice(torus, level).rank == torus.rank
    # at F the lattice takes the actions of 1 and 2: two involutions that do not commute
    pair = {1: SWAP, 2: ((1, 0), (0, -1))}
    monkeypatch.setattr(galois_lattices, "action_matrix", lambda torus, g: pair[g])
    with pytest.raises(ValueError, match=LATTICE_FAULT):
        cocharacter_lattice.__wrapped__(Prod((U1("E1", "F"), U1("E2", "F"))), "F")


def test_cocharacter_lattice_is_built_once(monkeypatch: pytest.MonkeyPatch) -> None:
    torus = Prod((RES_TORUS, U1("E1", "F")))
    low, high = cocharacter_lattice(torus, "F"), cocharacter_lattice(torus, "E")
    assert cocharacter_lattice(torus, "F") is low and cocharacter_lattice(torus, "E") is high
    builds = []
    check = GaloisLattice.__post_init__
    monkeypatch.setattr(GaloisLattice, "__post_init__", lambda lat: builds.append(lat) or check(lat))
    component_group_dual(torus, "E")
    prasad_torus_identity(torus)
    assert builds == []  # both read the two lattices built above
    assert tate_cohomology(low, -1) == tate_cohomology(cocharacter_lattice(torus, "F"), -1)
    # and the identity's Smith forms are the ones cached on those two lattices
    assert "coinvariants" in vars(low) and "coinvariants" in vars(high)


def test_shapiro_restriction_equals_inner() -> None:
    """Cohomology of a quadratic restriction at the base equals the inner
    torus' cohomology over the intermediate field, in both degrees."""
    cases = [
        (Res("E1", "F", U1("K", "E1")), U1("K", "E1"), "E1"),
        (Res("E", "F", U1("K", "E")), U1("K", "E"), "E"),
        (Res("E2", "F", Gm("E2")), Gm("E2"), "E2"),
    ]
    for restricted, inner, level in cases:
        for degree in (-1, 0):
            outer = tate_cohomology(cocharacter_lattice(restricted, "F"), degree)
            inner_grp = tate_cohomology(cocharacter_lattice(inner, level), degree)
            assert outer == inner_grp, (restricted, degree)


@pytest.mark.parametrize("torus", torus_catalog(), ids=str)
@pytest.mark.parametrize("level", ["F", "E", "E1", "E2"])
def test_minus_one_order_equals_coinvariant_torsion(torus, level) -> None:
    """The orbit closed form and the coinvariant quotient, two independent
    routes, give the same cardinality at every level."""
    group = tate_cohomology(cocharacter_lattice(torus, level), -1)
    dual = component_group_dual(torus, level)
    assert group.order == dual.order


def test_minus_one_group_is_the_coinvariant_torsion() -> None:
    """``|G| x - N x`` lies in the augmentation, so ``ker(N) / I M = tors(M_G)``.

    On representatives: the sums of first lines of signed orbits, which the
    left side of ``prasad_torus_identity`` takes as the classes of ``H^-1``,
    lie in ``ker(N)`` and fill the torsion of the coinvariants, one class each.
    """
    lattices = [
        lattice(n, gens, [2, 2])
        for n in (1, 2, 3)
        for a, b in commuting_involution_pairs(n)
        for gens in {(a, b), (b, a)}
    ]
    lattices += [
        cocharacter_lattice(torus, level) for torus in torus_catalog() for level in FIELD_LEVELS
    ]
    lattices.append(lattice(2, [ROTATION], [4]))
    for lat in lattices:
        norm = formal_norm(lat.rank, lat.generator_matrices, lat.generator_orders)
        order = math.prod(lat.generator_orders)
        firsts = [lines[0] for _, signed, lines in lat.line_orbits if signed]
        classes = set()
        for bits in itertools.product((0, 1), repeat=len(firsts)):
            x = [0] * lat.rank
            for j, bit in zip(firsts, bits):
                x[j] = bit
            assert not any(mat_vec(norm, x)), lat
            assert lat.coinvariants.is_zero_class([order * c for c in x]), lat  # torsion
            classes.add(lat.coinvariants.normalize(x))
        assert len(classes) == 2 ** len(firsts) == lat.coinvariants.torsion.order, lat


# ---------------------------------------------------------------------------
# norm quotients
# ---------------------------------------------------------------------------


def test_norm_quotient_frozen_table() -> None:
    assert norm_quotient(Gm("F")).describe() == "Z/2"
    assert norm_quotient(U1("E", "F")).describe() == "1"
    assert norm_quotient(U1("E1", "F")).describe() == "Z/2"
    assert norm_quotient(U1("E2", "F")).describe() == "Z/2"
    assert norm_quotient(RES_TORUS).describe() == "1"


def test_norm_quotient_multiplicative() -> None:
    prod = Prod((Gm("F"), U1("E1", "F"), U1("E", "F")))
    assert norm_quotient(prod).invariant_factors == (2, 2)


def test_norm_quotient_rejections() -> None:
    with pytest.raises(UnsupportedTorusError):
        norm_quotient(U1("K", "E1"), ("E", "F"))  # base mismatch
    with pytest.raises(UnsupportedTorusError):
        norm_quotient(Gm("F"), ("K", "F"))  # not quadratic


# ---------------------------------------------------------------------------
# the kernel-cardinality identity
# ---------------------------------------------------------------------------

EXPECTED_KERNELS = {
    str(Gm("F")): 1,
    str(U1("E", "F")): 2,
    str(U1("E1", "F")): 2,
    str(U1("E2", "F")): 2,
    str(RES_TORUS): 2,
}


@pytest.mark.parametrize("torus", torus_catalog(), ids=str)
def test_identity_holds_on_catalog(torus) -> None:
    verdict = prasad_torus_identity(torus)
    assert verdict.equal, (torus, verdict)


def test_identity_frozen_cardinalities() -> None:
    for torus in torus_catalog():
        if str(torus) in EXPECTED_KERNELS:
            verdict = prasad_torus_identity(torus)
            assert verdict.lhs == EXPECTED_KERNELS[str(torus)]
            assert verdict.rhs == EXPECTED_KERNELS[str(torus)]


def test_torus_labels_name_the_catalog_as_the_reports_do() -> None:
    assert [*map(torus_label, torus_catalog())] == [
        "Gm(F)",
        "U1(E/F)",
        "U1(E1/F)",
        "U1(E2/F)",
        "Res(E1/F)[U1(K/E1)]",
        "Gm(F) x U1(E/F)",
        "U1(E1/F) x U1(E2/F)",
        "Gm(F) x U1(E1/F) x U1(E/F)",
        "Res(E1/F)[U1(K/E1)] x U1(E1/F)",
        "Res(E1/F)[U1(K/E1)] x Gm(F)",
    ]
    with pytest.raises(UnsupportedTorusError, match="unknown torus expression"):
        torus_label("Gm(F)")


def test_identity_multiplicative_over_products() -> None:
    for torus in torus_catalog():
        if isinstance(torus, Prod):
            whole = prasad_torus_identity(torus)
            parts = 1
            for f in torus.factors:
                parts *= prasad_torus_identity(f).lhs
            assert whole.lhs == parts


def quadratic_step_pairs() -> list:
    """The catalog at E/F, E1/F and E2/F, and four tori over each L at K/L."""
    pairs = [(torus, (top, "F")) for torus in torus_catalog() for top in ("E", "E1", "E2")]
    for level in ("E", "E1", "E2"):
        tori = (U1("K", level), Gm(level), Res("K", level, Gm("K")))
        pairs += [(torus, ("K", level)) for torus in (*tori, Prod(tori))]
    return pairs


def test_identity_holds_at_every_quadratic_step() -> None:
    """The left side reads line orbits and the right side coinvariant
    quotients; they share no Smith form or quotient code, so a fault in
    either side shows as a mismatch.
    """
    pairs = quadratic_step_pairs()
    assert len(pairs) == 42
    kernels = []
    for torus, step in pairs:
        verdict = prasad_torus_identity(torus, step)
        assert verdict.lhs == verdict.rhs, (torus, step, verdict)
        kernels.append(verdict.lhs)
    assert sorted(set(kernels)) == [1, 2, 4]


def test_catalog_takes_one_smith_form_per_lattice(monkeypatch: pytest.MonkeyPatch) -> None:
    calls = []
    snf = galois_lattices.smith_normal_form
    monkeypatch.setattr(galois_lattices, "smith_normal_form", lambda a: calls.append(a) or snf(a))
    # the conftest fixture has emptied the shared lattices, so every form is taken here
    catalog = torus_catalog()
    for torus in catalog:
        for level in FIELD_LEVELS:
            component_group_dual(torus, level)
    by_pair = {
        (torus, level): cocharacter_lattice(torus, level) for torus in catalog for level in FIELD_LEVELS
    }
    # equal (torus, level) actions share one lattice, so its one Smith form
    shared = {}
    for lat in by_pair.values():
        key = (lat.rank, lat.generator_matrices, lat.generator_orders)
        assert shared.setdefault(key, lat) is lat
    assert len(by_pair) == 50 and len(shared) == len(calls) == 29
    assert len({id(lat) for lat in by_pair.values()}) == 29
    assert all("coinvariants" in vars(lat) for lat in shared.values())  # so one Smith form each
    for torus in catalog:
        for top in ("E", "E1", "E2"):
            prasad_torus_identity(torus, (top, "F"))
    assert len(calls) == 29
    assert galois_lattices._lattice.cache_info().currsize == 29


def test_identity_rejects_wrong_base() -> None:
    with pytest.raises(UnsupportedTorusError):
        prasad_torus_identity(U1("K", "E1"), ("E", "F"))
