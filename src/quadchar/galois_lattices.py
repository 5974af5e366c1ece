"""Integral Galois lattices, Tate cohomology, and the torus-kernel identity.

The splitting tower used throughout is a fixed biquadratic diamond

        K
      / | \\
    E   E1  E2          Gal(K/F) = (Z/2)^2, elements written as the ints 0..3
      \\ | /
        F

with the group law ``^`` (XOR) and the convention that ``g & 2`` moves ``E``
and ``g & 1`` moves ``E1`` (so ``g == 1`` or ``2`` moves ``E2``); thus
``Gal(K/E) = (0, 1)``, ``Gal(K/E1) = (0, 2)`` and ``Gal(K/E2) = (0, 3)``.
A quadratic step ``A/B`` is read as its generator, the first element of
``Gal(K/B)`` outside ``Gal(K/A)``.  The tori, levels and steps are the fixed
ones of ``torus_catalog`` and the suites, so nothing here checks that a step
is quadratic, that a level lies over a torus' base or that a product's factors
share one: no caller builds any other.

Tori are expressions built from ``Gm``, norm-one tori ``U1`` of quadratic
steps, quadratic Weil restrictions ``Res`` and finite products; their
cocharacter lattices with the Galois action at any level of the tower are
produced by ``cocharacter_lattice``, one lattice per distinct action.  Every
action matrix is a signed permutation, the only generator a lattice takes;
this is the one module that reads matrices (a root system, in
``root_orbits``, takes root permutations and borrows only
``compose_permutations``).  ``signed_permutation`` reads each distinct
matrix once per process: by row, as a permutation of the signed lines
``+-e_j`` in bytes, and its order, from the cycles of its rows; it refuses
a matrix that is none.  A lattice checks its invariants once, at
construction (``GaloisLattice``), commutation on the bytes
(``compose_permutations``).  The group permutes the lines ``Z e_j``.  By
Shapiro's lemma an orbit with line stabiliser ``H`` spans
``Ind_H^G(chi)``, ``chi`` the sign of ``H`` on ``e_j`` (cite only: Serre,
*Local Fields*, ch. VII-VIII; Reiner, Proc. AMS 8, 1957).  So the one orbit
walk a lattice makes at construction gives both Tate degrees, and no Smith
form: ``H^-1`` is ``Z/2`` per orbit with ``chi != 1`` and ``H^0`` is ``Z/|H|``
per orbit with ``chi == 1``, where ``|H| = |G| / |orbit|`` and ``|G|`` is the
product of the *declared* orders (so actions that factor through a quotient
weight correctly).  The Tate groups and the coinvariant torsion are shared,
one per chain of factors: few chains occur, and each group is built once.

The same walk gives representatives: in ``H^-1 = ker(N) / sum (g - 1) M``
a signed orbit's class is that of its first line, and a vector of ``ker(N)``
is zero exactly when its coordinate sum is even on every signed orbit (``g``
moves each coordinate within its orbit up to sign).  The coinvariants
``M / sum (g - 1) M`` are a quotient ``Z^n / span(R)`` from one Smith normal
form (implemented here), cached on the lattice.

``prasad_torus_identity`` verifies, for a torus ``S`` over the lower field
of a quadratic step ``A/B``, the cardinality identity

    #ker( H^-1(G_B, X) --transfer--> H^-1(G_A, X) )
      =
    #ker( tors(X_{G_B}) --transfer--> tors(X_{G_A}) ),

where the transfer is the degree-(-1) restriction map, realised on
representatives by ``m -> m + s.m`` for ``s`` generating ``G_B/G_A``.  The
right-hand side counts, by duality, the cokernel of the norm on the
component groups of the fixed points of the dual torus (corestriction on
the dual side).  Each side counts the torsion classes of the lower group
that ``1 + s`` sends to the zero class of the upper one, the left through
the line orbits and the right through the coinvariant quotients, which
share no code.  They still count one group: ``|G| x - N x`` lies in
``sum (g - 1) M``, so ``ker(N) / sum (g - 1) M`` is exactly ``tors(M_G)``,
and the identity checks two computations of its transfer kernel, not a
second derivation of it.
"""

from __future__ import annotations

import itertools
import math
from functools import cache, cached_property
from operator import add, index, mul, neg
from typing import Iterable, Sequence, Union

from ._value import Value

Matrix = tuple[tuple[int, ...], ...]
SignedPerm = tuple[tuple[int, int], ...]  # (j, x) per row i: the row is x e_j


# ---------------------------------------------------------------------------
# the diamond tower as a subgroup lattice of (Z/2)^2
# ---------------------------------------------------------------------------

FIELD_LEVELS = ("F", "E", "E1", "E2", "K")

_GAL: dict[str, tuple[int, ...]] = {
    "F": (0, 1, 2, 3),
    "E": (0, 1),
    "E1": (0, 2),
    "E2": (0, 3),
    "K": (0,),
}


def compositum(a: str, b: str) -> str:
    target = set(_GAL[a]) & set(_GAL[b])
    for level, grp in _GAL.items():
        if set(grp) == target:
            return level
    raise AssertionError("the tower is closed under compositum")


def _quadratic_step(top: str, bottom: str) -> int:
    """The generator of ``Gal(top/bottom)`` in ``Gal(K/bottom)``, for a quadratic step."""
    return next(g for g in _GAL[bottom] if g not in _GAL[top])


# ---------------------------------------------------------------------------
# finite abelian groups by invariant factors
# ---------------------------------------------------------------------------


class FiniteAbelianGroup(Value):
    """A finite abelian group by its invariant-factor chain ``d1 | d2 | ...``.

    The empty chain is the trivial group.  Every factor is at least 2: the
    package builds groups only through ``from_factors`` (shared as ``_group``),
    which normalizes positive cyclic factors into such a chain.
    """

    invariant_factors: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    def describe(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)

    @staticmethod
    def from_factors(factors: Iterable[int]) -> "FiniteAbelianGroup":
        """Normalize arbitrary cyclic factors into an invariant-factor chain.

        Each factor ``n`` sweeps the chain so far by ``Z/a + Z/n = Z/gcd +
        Z/lcm``; that keeps a divisor chain, whose leading 1s are dropped.
        """
        chain: list[int] = []
        for n in factors:
            for i, d in enumerate(chain):
                chain[i], n = math.gcd(d, n), math.lcm(d, n)
            chain.append(n)
        return FiniteAbelianGroup(tuple(d for d in chain if d > 1))


# ---------------------------------------------------------------------------
# integer matrix utilities and Smith normal form with transforms
# ---------------------------------------------------------------------------


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(map(mul, row, v)) for row in a)


@cache
def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def compose_permutations(a: bytes, b: bytes) -> bytes:
    """``a`` after ``b``, ``a[b[i]]`` at ``i``, on at most 256 points: the one compose kernel."""
    return b.translate(a.ljust(256, b"\0"))


@cache
def _signed_units(n: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """``{x e_j: (j, x)}`` over the rows of signed permutations."""
    return {(0,) * j + (x,) + (0,) * (n - 1 - j): (j, x) for j in range(n) for x in (1, -1)}


def _add_identity(move: SignedPerm, c: int) -> Matrix:
    """``g + c`` for an integer ``c``, ``g`` the signed permutation that ``move`` reads."""
    n = len(move)
    return tuple(
        tuple(x * (k == j) + c * (k == i) for k in range(n)) for i, (j, x) in enumerate(move)
    )


@cache
def signed_permutation(g: Matrix) -> tuple[SignedPerm, bytes, int]:
    """The one generator reader of lattices, once per distinct matrix:
    ``g`` by row, ``(j, x)`` for ``x e_j``; on the signed lines, ``2 j`` for ``+e_j`` and
    ``2 j + 1`` for ``-e_j``; and its order, the lcm of the signed-line cycle lengths, read
    off the row cycles: one of length ``L`` whose signs multiply to -1 is one signed-line
    cycle of length ``2 L``, any other two of length ``L``.  Raises unless every row is
    ``+-e_j`` and no ``j`` repeats, which a singular matrix fails."""
    move = tuple(map(_signed_units(len(g)).get, g))
    if None in move or len(dict(move)) != len(move):
        raise ValueError("generator matrices must be signed permutations")
    lines = bytes((2 * j + (x < 0)) ^ s for j, x in move for s in (0, 1))
    order, seen = 1, bytearray(len(move))
    for start in range(len(move)):
        length, sign, i = 0, 1, start
        while not seen[i]:
            seen[i], (i, x) = 1, move[i]
            length, sign = length + 1, sign * x
        if length:
            order = math.lcm(order, length if sign > 0 else 2 * length)
    return move, lines, order


def smith_normal_form(a: Sequence[Sequence[int]]) -> "Quotient":
    """``Z^m / rowspace(a)`` for an ``n x m`` matrix ``a``, read off ``u @ a @ v`` diagonal."""
    n = len(a)
    m = len(a[0]) if n else 0
    d = [list(row) for row in a]
    # the rows of vt are the columns of v (the coordinates) and those of v_inv
    # the generators; rows of both are only replaced or swapped, never changed
    # in place, so they may start as shared tuples
    vt = list(identity_matrix(m))
    v_inv = list(identity_matrix(m))
    # row operations act on d alone (no row transform is kept); column
    # operations skip the rows above t, which are zero from column t on
    for t in range(min(n, m)):
        # pivot on the smallest nonzero entry of the remaining block
        while block := [(abs(x), i, j) for i in range(t, n) for j, x in enumerate(d[i][t:], t) if x]:
            _, i, j = min(block)
            d[t], d[i] = d[i], d[t]
            for row in d[t:]:
                row[t], row[j] = row[j], row[t]
            vt[t], vt[j] = vt[j], vt[t]
            v_inv[t], v_inv[j] = v_inv[j], v_inv[t]
            # clear the pivot's column, then its row, by floor division
            pivot, top = d[t][t], d[t]
            for i in range(t + 1, n):
                if q := d[i][t] // pivot:
                    d[i] = [x - q * y for x, y in zip(d[i], top)]
            for j in range(t + 1, m):
                if q := top[j] // pivot:
                    # col_j -= q * col_t on d and v; the inverse adds on rows
                    for row in d[t:]:
                        row[j] -= q * row[t]
                    vt[j] = [x - q * y for x, y in zip(vt[j], vt[t])]
                    v_inv[t] = [x + q * y for x, y in zip(v_inv[t], v_inv[j])]
            if pivot in (1, -1):
                break  # a unit leaves no remainder and divides every entry
            if any(top[t + 1 :]):
                continue  # a remainder in the pivot row is smaller than the pivot
            # a row below that the pivot does not divide (a remainder in its
            # column among them) goes into the pivot row, to be cleared again
            offender = next((row for row in d[t + 1 :] if any(x % pivot for x in row)), None)
            if offender is None:
                break
            d[t] = list(map(add, top, offender))

    diag = tuple(abs(d[i][i]) for i in range(min(n, m)))
    return Quotient(diag + (0,) * (m - len(diag)), tuple(map(tuple, vt)), tuple(map(tuple, v_inv)))


# ---------------------------------------------------------------------------
# quotients Z^n / span(R)
# ---------------------------------------------------------------------------


class Quotient(Value):
    """The group ``Z^n / span(R)``, as ``smith_normal_form`` reads it off the relations as rows.

    ``diag`` is a divisor chain padded with zeros to ``n``.  The ``generators``
    (rows) are a basis of ``Z^n`` in which generator ``i`` has order ``diag[i]``,
    infinite when 0; ``coordinates`` maps a vector to its coordinates in that
    basis, so ``generators @ coordinates^T`` is the identity.
    """

    diag: tuple[int, ...]
    coordinates: Matrix
    generators: Matrix

    def normalize(self, x: Sequence[int]) -> tuple[int, ...]:
        """The class of ``x``: coordinate ``i`` mod ``diag[i]``, exact where that is 0."""
        return tuple(c % d if d else c for c, d in zip(mat_vec(self.coordinates, x), self.diag))

    def is_zero_class(self, x: Sequence[int]) -> bool:
        return not any(self.normalize(x))

    @property
    def torsion(self) -> FiniteAbelianGroup:
        return _group(tuple(d for d in self.diag if d >= 2))

    def torsion_representatives(self) -> list[tuple[int, ...]]:
        """One representative per torsion class."""
        ranges = [range(d) if d >= 2 else range(1) for d in self.diag]
        columns = tuple(zip(*self.generators))
        return [mat_vec(columns, w) for w in itertools.product(*ranges)]


def _distinct_rows(rows: Iterable[Sequence[int]], width: int) -> list[tuple[int, ...]]:
    """The nonzero rows of a given width, each once up to sign, in order.

    They span what ``rows`` spans, which is all a Smith form reads off; a
    zero row stands in for none, so the form stays ``width`` columns wide.
    """
    kept: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for row in rows:
        row = tuple(row)
        if row not in seen and any(row):
            seen.add(row)
            seen.add(tuple(map(neg, row)))
            kept.append(row)
    return kept or [(0,) * width]


def quotient(width: int, relations: Iterable[Sequence[int]]) -> Quotient:
    """``Z^width / span(relations)`` from one Smith form of the relations as rows.

    The form needs no row transform, and sees only the distinct nonzero
    relations up to sign.  Every relation has length ``width``.
    """
    return smith_normal_form(_distinct_rows(relations, width))


# ---------------------------------------------------------------------------
# Galois lattices
# ---------------------------------------------------------------------------


class GaloisLattice(Value):
    """A free Z-module of finite rank with an action of a finite abelian group.

    The group is presented as a product of cyclic groups: generator ``i``
    has declared order ``generator_orders[i]``.  The action need not be
    faithful — the norm is the sum over the formal group elements.
    Construction checks, with one message, that the rank is 0 to 128 (so a
    byte indexes each signed line) and that the generators are commuting
    signed permutations of that size (tuples of rows), one per declared
    order, an integer of at least 1 that the generator's order divides.  A
    generator that is no signed permutation raises the reader's message
    (``signed_permutation``, one cached lookup per generator).  Construction
    then walks the reads once: ``line_orbits`` holds ``(|H|, -e_j in the orbit
    of e_j, lines)`` per orbit of the lines ``Z e_j``, ``|H| = |G| / |orbit|``
    and ``lines`` the ``j`` of the orbit, its first line first; the factor
    chains of both Tate degrees, which ``tate_cohomology`` looks up, are kept too.
    """

    rank: int
    generator_matrices: tuple[Matrix, ...]
    generator_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        rank, orders = self.rank, self.generator_orders
        valid = 0 <= rank <= 128 and len(self.generator_matrices) == len(orders)
        reads = []
        for g, order in zip(self.generator_matrices, orders):
            # only a generator of the checked rank is read: its lines fit in bytes
            valid = valid and len(g) == rank and index(order) >= 1
            if valid:
                reads.append(read := signed_permutation(g))
                valid = order % read[2] == 0
        for (_, g, _), (_, h, _) in itertools.combinations(reads, 2):
            if compose_permutations(g, h) != compose_permutations(h, g):
                valid = False
        if not valid:
            raise ValueError(
                "a lattice takes a rank of 0 to 128 and commuting signed permutations of that rank, "
                "one per declared order, an int of at least 1 that the generator's order divides"
            )
        # the line orbits, walked over the reads: g^T, in G too, sends e_i to x e_j for
        # move[i] = (j, x); sign[j] is +-1 once +-e_j is reached from its orbit's first line
        moves, size, orbits = [move for move, _, _ in reads], math.prod(orders), []
        sign, minus_one, zero = [0] * rank, 0, []
        for first in range(rank):
            if sign[first]:
                continue
            sign[first], lines, signed = 1, [first], False
            for i in lines:  # the walk appends to the list it runs over
                s_i = sign[i]
                for move in moves:
                    j, x = move[i]
                    if not sign[j]:
                        sign[j] = x * s_i
                        lines.append(j)
                    elif sign[j] != x * s_i:
                        signed = True
            orbits.append((h := size // len(lines), signed, tuple(lines)))
            minus_one += signed
            if h > 1 and not signed:
                zero.append(h)
        object.__setattr__(self, "_moves", moves)
        object.__setattr__(self, "line_orbits", tuple(orbits))
        object.__setattr__(self, "_tate_chains", {-1: (2,) * minus_one, 0: tuple(sorted(zero))})

    @cached_property
    def coinvariants(self) -> Quotient:
        """``M / sum (g - 1) M``: one Smith form per lattice, however often it is read.

        Its relations, the columns of each ``g - 1``, are built from the read
        rows, so they are ints whatever type the entries of ``g`` have.
        """
        return quotient(
            self.rank, (col for move in self._moves for col in zip(*_add_identity(move, -1)))
        )


# shared groups keyed by the sorted factors above 1, for a 2-group the chain itself,
# and one shared lattice per distinct (rank, generator matrices, orders)
_group = cache(FiniteAbelianGroup.from_factors)
_lattice = cache(GaloisLattice)


def tate_cohomology(lattice: GaloisLattice, degree: int) -> FiniteAbelianGroup:
    """Tate cohomology of a lattice in degree -1 or 0, the shared group of the chain its
    construction read off the line orbits."""
    return _group(lattice._tate_chains[degree])


# ---------------------------------------------------------------------------
# torus expressions over the diamond tower
# ---------------------------------------------------------------------------


class Gm(Value):
    """The split multiplicative group over ``base``."""

    base: str = "F"

    @property
    def rank(self) -> int:
        return 1


class U1(Value):
    """The norm-one torus of the quadratic step ``top/base``."""

    top: str
    base: str

    @property
    def rank(self) -> int:
        return 1


class Res(Value):
    """Weil restriction through the quadratic step ``through/base``."""

    through: str
    base: str
    inner: "TorusExpr"

    @property
    def rank(self) -> int:
        return 2 * self.inner.rank


class Prod(Value):
    """A finite product of tori over a common base."""

    factors: tuple["TorusExpr", ...]

    @property
    def base(self) -> str:
        return self.factors[0].base

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)


TorusExpr = Union[Gm, U1, Res, Prod]


def torus_label(torus: TorusExpr) -> str:
    """The torus as the reports name it, such as ``Res(E1/F)[U1(K/E1)]``."""
    if isinstance(torus, Gm):
        return f"Gm({torus.base})"
    if isinstance(torus, U1):
        return f"U1({torus.top}/{torus.base})"
    if isinstance(torus, Res):
        return f"Res({torus.through}/{torus.base})[{torus_label(torus.inner)}]"
    return " x ".join(map(torus_label, torus.factors))


def action_matrix(torus: TorusExpr, g: int) -> Matrix:
    """The matrix of ``g`` in ``Gal(K/base)`` on the cocharacter lattice."""
    if isinstance(torus, Gm):
        return ((1,),)
    if isinstance(torus, U1):
        return ((-1,),) if g not in _GAL[torus.top] else ((1,),)
    if isinstance(torus, Res):
        # g sends the coset of rep i to that of rep j, acting there by the
        # h of Gal(K/through) with g ^ rep_i = rep_j ^ h
        reps = (0, _quadratic_step(torus.through, torus.base))
        r = torus.inner.rank
        blocks = []
        for i, rep in enumerate(reps):
            j = int(g ^ rep not in _GAL[torus.through])
            blocks.append((j * r, i * r, action_matrix(torus.inner, g ^ rep ^ reps[j])))
        return _block_matrix(torus.rank, blocks)
    offsets = itertools.accumulate((f.rank for f in torus.factors), initial=0)
    return _block_matrix(
        torus.rank, [(k, k, action_matrix(f, g)) for k, f in zip(offsets, torus.factors)]
    )


def _block_matrix(n: int, blocks: Iterable[tuple[int, int, Matrix]]) -> Matrix:
    """The ``n x n`` matrix, zero but for each ``(row, col, block)`` placed at that corner."""
    rows = [[0] * n for _ in range(n)]
    for r, c, block in blocks:
        for i, block_row in enumerate(block, r):
            rows[i][c : c + len(block_row)] = block_row
    return tuple(map(tuple, rows))


@cache
def cocharacter_lattice(torus: TorusExpr, level: str) -> GaloisLattice:
    """The cocharacter lattice of ``torus`` with the ``Gal(K/level)`` action.

    ``level`` contains the base field of the torus, as at every caller, so
    ``Gal(K/level)`` lies in ``Gal(K/base)`` and its action is the restriction
    of the full one.  Memoised, and equal actions share one lattice, its cached
    orbits and its cached coinvariants: the catalog's 50 (torus, level) pairs
    make 29 lattices.
    """
    gens = _GAL[level][1:3]  # 1 and 2 for F, the one nontrivial element below it
    return _lattice(torus.rank, tuple(action_matrix(torus, g) for g in gens), (2,) * len(gens))


def component_group_dual(torus: TorusExpr, level: str) -> FiniteAbelianGroup:
    """Torsion of the coinvariant lattice at the given level.

    By duality this is (the dual of) the component group of the fixed
    points of the dual torus; only its isomorphism type is used.
    """
    return cocharacter_lattice(torus, level).coinvariants.torsion


# ---------------------------------------------------------------------------
# norm quotients S(B)/Nm S(A) over a quadratic step A/B
# ---------------------------------------------------------------------------


def norm_quotient(torus: TorusExpr, step: tuple[str, str] = ("E", "F")) -> FiniteAbelianGroup:
    """The quotient of ``torus(B)`` by norms from ``torus(A)``, ``A/B`` quadratic, ``B`` the base.

    It is killed by 2 (``x^2 = N(x)`` for ``x`` in ``torus(B)``), so it is
    ``(Z/2)^k``, with ``k`` counted by the structural rules:

    * ``Gm``: local index of norms of a quadratic extension — one ``Z/2``;
    * ``U1(T/B)`` with ``T == A``: none (every norm-one element is a
      quotient ``x / conj(x)``, and those are norms);
    * ``U1(T/B)`` with ``T != A``: one;
    * ``Res`` through ``L/B``: if ``L == A`` the norm is split surjective;
      otherwise push down to the step ``compositum(A, L)/L``;
    * products: the sum over the factors.
    """
    return _group((2,) * _norm_quotient_rank(torus, step[0]))


def _norm_quotient_rank(torus: TorusExpr, top: str) -> int:
    """``k`` for the step ``top/torus.base``, which ``Res`` and ``Prod`` keep quadratic."""
    if isinstance(torus, Gm):
        return 1
    if isinstance(torus, U1):
        return int(torus.top != top)
    if isinstance(torus, Res):
        inner_top = compositum(top, torus.through)
        return 0 if torus.through == top else _norm_quotient_rank(torus.inner, inner_top)
    return sum(_norm_quotient_rank(f, top) for f in torus.factors)


# ---------------------------------------------------------------------------
# the kernel-cardinality identity
# ---------------------------------------------------------------------------


class IdentityVerdict(Value):
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _minus_one_transfer_kernel(low: GaloisLattice, high: GaloisLattice, transfer: Matrix) -> int:
    """How many classes of ``H^-1`` of ``low`` the transfer sends to zero in ``H^-1`` of ``high``.

    A class is a sum of first lines of signed orbits of ``low``; it maps to
    zero when its image has an even coordinate sum on each signed orbit of ``high``.
    """
    firsts = [lines[0] for _, signed, lines in low.line_orbits if signed]
    targets = [lines for _, signed, lines in high.line_orbits if signed]
    return sum(
        all(
            sum(transfer[i][j] for i in target for j in itertools.compress(firsts, bits)) % 2 == 0
            for target in targets
        )
        for bits in itertools.product((0, 1), repeat=len(firsts))
    )


def prasad_torus_identity(
    torus: TorusExpr, step: tuple[str, str] = ("E", "F")
) -> IdentityVerdict:
    """Compare the two kernel counts of the transfer across a quadratic step.

    Left: kernel of the transfer on degree -1 Tate cohomology, read off the
    line orbits of the two lattices (one ``Z/2`` per signed orbit, told
    apart by coordinate-sum parities).  Right: kernel of the transfer on
    coinvariant torsion, from the cached coinvariant quotients of the two
    lattices (by duality, the cokernel of the norm on dual component
    groups).  The two sides share no Smith form and no quotient code, but
    they present one group (``ker(N) / sum (g - 1) M = tors(M_G)``), so the
    counts agree by the algebra.
    """
    s = _quadratic_step(*step)
    top, bottom = step
    low, high = cocharacter_lattice(torus, bottom), cocharacter_lattice(torus, top)
    # the transfer is 1 + s on the lattice, s generating Gal(A/B)
    transfer = _add_identity(signed_permutation(action_matrix(torus, s))[0], 1)
    return IdentityVerdict(
        _minus_one_transfer_kernel(low, high, transfer),
        sum(
            high.coinvariants.is_zero_class(mat_vec(transfer, rep))
            for rep in low.coinvariants.torsion_representatives()
        ),
    )


# ---------------------------------------------------------------------------
# the torus catalog
# ---------------------------------------------------------------------------


def torus_catalog() -> list[TorusExpr]:
    """The tori over F used in the verification suites, products up to rank 3."""
    res = Res("E1", "F", U1("K", "E1"))
    return [
        Gm("F"),
        U1("E", "F"),
        U1("E1", "F"),
        U1("E2", "F"),
        res,
        Prod((Gm("F"), U1("E", "F"))),
        Prod((U1("E1", "F"), U1("E2", "F"))),
        Prod((Gm("F"), U1("E1", "F"), U1("E", "F"))),
        Prod((res, U1("E1", "F"))),
        Prod((res, Gm("F"))),
    ]
