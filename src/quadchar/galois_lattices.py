"""Integral Galois lattices, Tate cohomology, and the torus-kernel identity.

The splitting tower used throughout is a fixed biquadratic diamond

        K
      / | \\
    E   E1  E2          Gal(K/F) = (Z/2)^2, elements written as bit pairs
      \\ | /
        F

with the convention that the bit pair ``g = (x, y)`` moves ``E`` iff
``y = 1``, moves ``E1`` iff ``x = 1`` and moves ``E2`` iff ``x != y``; thus
``Gal(K/E) = {(0,0), (1,0)}``, ``Gal(K/E1) = {(0,0), (0,1)}`` and
``Gal(K/E2) = {(0,0), (1,1)}``.

Tori are expressions built from ``Gm``, norm-one tori ``U1`` of quadratic
steps, quadratic Weil restrictions ``Res`` and finite products; their
cocharacter lattices with the Galois action at any level of the tower are
produced by ``cocharacter_lattice``.

Tate cohomology in degrees -1 and 0 is computed by exact integer linear
algebra (Smith normal form with unimodular transforms, implemented here):

    H^-1(G, M) = ker(norm) / augmentation-submodule,
    H^0(G, M)  = fixed-points / norm-image,

where the norm is the sum over the *formal* group elements (so actions
that factor through a quotient weight correctly).

``prasad_torus_identity`` verifies, for a torus ``S`` over the lower field
of a quadratic step ``A/B``, the cardinality identity

    #ker( H^-1(G_B, X) --transfer--> H^-1(G_A, X) )
      =
    #ker( tors(X_{G_B}) --transfer--> tors(X_{G_A}) ),

where the transfer is the degree-(-1) restriction map, realised on
representatives by ``m -> m + s.m`` for ``s`` generating ``G_B/G_A``.  The
right-hand side counts, by duality, the cokernel of the norm on the
component groups of the fixed points of the dual torus (corestriction on
the dual side); both sides are computed by *independent* linear-algebra
pipelines — the left through norm kernels, the right through coinvariant
torsion — and only their cardinalities are compared.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .residue_fields import _factorize

__all__ = [
    "FiniteAbelianGroup",
    "GaloisLattice",
    "Gm",
    "U1",
    "Res",
    "Prod",
    "TorusExpr",
    "IdentityVerdict",
    "UnsupportedTorusError",
    "FIELD_LEVELS",
    "galois_group",
    "compositum",
    "smith_normal_form",
    "tate_cohomology",
    "cocharacter_lattice",
    "component_group_dual",
    "norm_quotient",
    "prasad_torus_identity",
    "torus_catalog",
]

Matrix = tuple[tuple[int, ...], ...]
Bit = tuple[int, int]


class UnsupportedTorusError(ValueError):
    """Raised when an operation is asked for a torus outside its catalog."""


# ---------------------------------------------------------------------------
# the diamond tower as a subgroup lattice of (Z/2)^2
# ---------------------------------------------------------------------------

FIELD_LEVELS = ("F", "E", "E1", "E2", "K")

_GAL: dict[str, tuple[Bit, ...]] = {
    "F": ((0, 0), (1, 0), (0, 1), (1, 1)),
    "E": ((0, 0), (1, 0)),
    "E1": ((0, 0), (0, 1)),
    "E2": ((0, 0), (1, 1)),
    "K": ((0, 0),),
}

_CANONICAL_GENERATORS: dict[str, tuple[Bit, ...]] = {
    "F": ((1, 0), (0, 1)),
    "E": ((1, 0),),
    "E1": ((0, 1),),
    "E2": ((1, 1),),
    "K": (),
}


def galois_group(level: str) -> tuple[Bit, ...]:
    """Elements of ``Gal(K/level)`` as bit pairs."""
    if level not in _GAL:
        raise ValueError(f"unknown tower level {level!r}; expected one of {FIELD_LEVELS}")
    return _GAL[level]


def field_contains(bigger: str, smaller: str) -> bool:
    """Whether ``smaller`` is a subfield of ``bigger`` in the tower."""
    return set(galois_group(bigger)) <= set(galois_group(smaller))


def field_degree(top: str, bottom: str) -> int:
    if not field_contains(top, bottom):
        raise ValueError(f"{top} does not contain {bottom}")
    return len(galois_group(bottom)) // len(galois_group(top))


def compositum(a: str, b: str) -> str:
    target = set(galois_group(a)) & set(galois_group(b))
    for level, grp in _GAL.items():
        if set(grp) == target:
            return level
    raise AssertionError("the tower is closed under compositum")


def _bit_add(a: Bit, b: Bit) -> Bit:
    return (a[0] ^ b[0], a[1] ^ b[1])


# ---------------------------------------------------------------------------
# finite abelian groups by invariant factors
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite abelian group by its invariant-factor chain ``d1 | d2 | ...``.

    The empty chain is the trivial group.  Every factor is at least 2.
    """

    invariant_factors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for a, b in zip(self.invariant_factors, self.invariant_factors[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a divisor chain, got {self.invariant_factors}")
        if any(d < 2 for d in self.invariant_factors):
            raise ValueError("invariant factors must be at least 2")

    @property
    def order(self) -> int:
        out = 1
        for d in self.invariant_factors:
            out *= d
        return out

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def describe(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)

    @staticmethod
    def from_factors(factors: Iterable[int]) -> "FiniteAbelianGroup":
        """Normalize arbitrary cyclic factors into an invariant-factor chain."""
        primepowers: dict[int, list[int]] = {}
        for n in factors:
            if n < 1:
                raise ValueError("cyclic factors must be positive")
            for p, k in _factorize(n).items():
                primepowers.setdefault(p, []).append(p**k)
        for p in primepowers:
            primepowers[p].sort()
        chain: list[int] = []
        while any(primepowers.values()):
            d = 1
            for p in primepowers:
                if primepowers[p]:
                    d *= primepowers[p].pop()
            chain.append(d)
        chain.reverse()
        return FiniteAbelianGroup(tuple(chain))

    def __mul__(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        return FiniteAbelianGroup.from_factors(self.invariant_factors + other.invariant_factors)


TRIVIAL_GROUP = FiniteAbelianGroup()
Z2 = FiniteAbelianGroup((2,))


# ---------------------------------------------------------------------------
# integer matrix utilities and Smith normal form with transforms
# ---------------------------------------------------------------------------


def _ident(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols))
        for i in range(rows)
    )


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(sum(a[i][k] * v[k] for k in range(len(v))) for i in range(len(a)))


def mat_add(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(row) for row in _ident(n))


def det_int(a: Sequence[Sequence[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[-1][-1]


@dataclass(frozen=True)
class SmithForm:
    """``u @ a @ v == d`` with ``u, v`` unimodular and ``d`` diagonal.

    ``u_inv`` is the exact integer inverse of ``u``; the diagonal entries
    form a divisor chain ``d1 | d2 | ...`` (nonnegative, zeros trailing).
    """

    d: Matrix
    u: Matrix
    v: Matrix
    u_inv: Matrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0)))


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    n = len(a)
    m = len(a[0]) if n else 0
    d = [list(row) for row in a]
    u = _ident(n)
    u_inv = _ident(n)
    v = _ident(m)

    def row_sub(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j on d and u; the inverse transform adds on columns
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]
        for r in range(n):
            u_inv[r][j] += q * u_inv[r][i]

    def col_sub(j: int, i: int, q: int) -> None:
        # col_j -= q * col_i on d and v
        for r in range(n):
            d[r][j] -= q * d[r][i]
        for r in range(m):
            v[r][j] -= q * v[r][i]

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in range(n):
            u_inv[r][i], u_inv[r][j] = u_inv[r][j], u_inv[r][i]

    def col_swap(i: int, j: int) -> None:
        for r in range(n):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(m):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in range(n):
            u_inv[r][i] = -u_inv[r][i]

    t = 0
    while t < min(n, m):
        # choose the smallest nonzero entry in the remaining block as pivot
        pivot = None
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best, pivot = abs(d[i][j]), (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            row_swap(t, pivot[0])
            col_swap(t, pivot[1])
        while True:
            restart = False
            for i in range(t + 1, n):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_sub(i, t, q)
                    if d[i][t]:
                        row_swap(i, t)
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, m):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_sub(j, t, q)
                    if d[t][j]:
                        col_swap(j, t)
                        restart = True
                        break
            if restart:
                continue
            # enforce divisibility of the remaining block by the pivot
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, m):
                    if d[i][j] % d[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_sub(t, offender, -1)  # add the offending row to the pivot row
        if d[t][t] < 0:
            row_negate(t)
        t += 1

    return SmithForm(
        d=tuple(tuple(row) for row in d),
        u=tuple(tuple(row) for row in u),
        v=tuple(tuple(row) for row in v),
        u_inv=tuple(tuple(row) for row in u_inv),
    )


def integer_kernel_basis(a: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """A basis (as columns) of ``{x : a x = 0}``; the span is saturated."""
    n = len(a)
    m = len(a[0]) if n else 0
    snf = smith_normal_form(a)
    diag = list(snf.diagonal) + [0] * (m - len(snf.diagonal))
    return [tuple(snf.v[r][j] for r in range(m)) for j in range(m) if diag[j] == 0]


def solve_columns(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    """Solve ``a @ x = b`` exactly over the integers (columns of ``b`` jointly).

    Raises if some column of ``b`` is not in the integer column span of ``a``.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    cols = len(b[0]) if b and b[0] is not None and len(b) else 0
    if n and b and len(b) != n:
        raise ValueError("row count mismatch")
    snf = smith_normal_form(a) if m else None
    out_cols: list[list[int]] = []
    for c in range(cols):
        target = [b[i][c] for i in range(n)]
        if m == 0:
            if any(target):
                raise ValueError("inconsistent system: empty matrix, nonzero target")
            out_cols.append([])
            continue
        assert snf is not None
        w = [sum(snf.u[i][k] * target[k] for k in range(n)) for i in range(n)]
        diag = list(snf.diagonal) + [0] * (max(n, m) - len(snf.diagonal))
        y = [0] * m
        for i in range(n):
            di = diag[i] if i < m else 0
            if i < m and di != 0:
                if w[i] % di != 0:
                    raise ValueError("system has no integer solution")
                y[i] = w[i] // di
            elif w[i] != 0:
                raise ValueError("system has no integer solution")
        x = [sum(snf.v[r][k] * y[k] for k in range(m)) for r in range(m)]
        out_cols.append(x)
    return tuple(tuple(out_cols[c][r] for c in range(cols)) for r in range(m))


# ---------------------------------------------------------------------------
# quotient presentations Z^k / column-span(X)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientPresentation:
    """The quotient ``Z^dim / column-span(relations)`` in normal coordinates.

    ``normalize(v)`` maps an integer vector to its canonical residue tuple:
    coordinate ``i`` is taken mod ``diag[i]`` when ``diag[i] > 0`` and kept
    exact when ``diag[i] == 0`` (a free coordinate).
    """

    dim: int
    diag: tuple[int, ...]
    u: Matrix
    u_inv: Matrix

    def normalize(self, v: Sequence[int]) -> tuple[int, ...]:
        if len(v) != self.dim:
            raise ValueError("dimension mismatch")
        w = [sum(self.u[i][k] * v[k] for k in range(self.dim)) for i in range(self.dim)]
        return tuple(w[i] % self.diag[i] if self.diag[i] else w[i] for i in range(self.dim))

    def is_zero_class(self, v: Sequence[int]) -> bool:
        return all(x == 0 for x in self.normalize(v))

    def torsion_invariants(self) -> tuple[int, ...]:
        return tuple(d for d in self.diag if d >= 2)

    def torsion_representatives(self) -> list[tuple[int, ...]]:
        """One integer representative in ``Z^dim`` per torsion class."""
        ranges = [range(d) if d >= 2 else range(1) for d in self.diag]
        reps = []
        for w in itertools.product(*ranges):
            reps.append(tuple(
                sum(self.u_inv[r][k] * w[k] for k in range(self.dim)) for r in range(self.dim)
            ))
        return reps


def quotient_presentation(dim: int, relations: Sequence[Sequence[int]]) -> QuotientPresentation:
    """Presentation of ``Z^dim`` modulo the column span of ``relations``."""
    if dim == 0:
        return QuotientPresentation(dim=0, diag=(), u=(), u_inv=())
    cols = len(relations[0]) if relations and len(relations) else 0
    if cols == 0:
        eye = identity_matrix(dim)
        return QuotientPresentation(dim=dim, diag=(0,) * dim, u=eye, u_inv=eye)
    snf = smith_normal_form(relations)
    diag = list(snf.diagonal) + [0] * (dim - len(snf.diagonal))
    return QuotientPresentation(dim=dim, diag=tuple(diag[:dim]), u=snf.u, u_inv=snf.u_inv)


# ---------------------------------------------------------------------------
# Galois lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaloisLattice:
    """A free Z-module of finite rank with an action of a finite abelian group.

    The group is presented as a product of cyclic groups: generator ``i``
    has declared order ``generator_orders[i]``; generators must commute and
    satisfy their orders.  The action need not be faithful — norms are
    always summed over the formal group elements.
    """

    rank: int
    generator_matrices: tuple[Matrix, ...]
    generator_orders: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        if len(self.generator_matrices) != len(self.generator_orders):
            raise ValueError("need one order per generator matrix")
        eye = identity_matrix(self.rank)
        for g, order in zip(self.generator_matrices, self.generator_orders):
            if len(g) != self.rank or any(len(row) != self.rank for row in g):
                raise ValueError("generator matrices must be square of the declared rank")
            if order < 1:
                raise ValueError("generator orders must be positive")
            power = eye  # g**order == I also forces det(g) = +-1
            for _ in range(order):
                power = mat_mul(power, g)
            if power != eye:
                raise ValueError("generator does not satisfy its declared order")
        for g, h in itertools.combinations(self.generator_matrices, 2):
            if mat_mul(g, h) != mat_mul(h, g):
                raise ValueError("generators must commute (abelian presentation)")

    @property
    def group_order(self) -> int:
        out = 1
        for o in self.generator_orders:
            out *= o
        return out

    def group_element_matrices(self) -> list[Matrix]:
        """Matrices of all formal group elements, with multiplicity."""
        eye = identity_matrix(self.rank)
        powers: list[list[Matrix]] = []
        for g, order in zip(self.generator_matrices, self.generator_orders):
            row = [eye]
            for _ in range(order - 1):
                row.append(mat_mul(row[-1], g))
            powers.append(row)
        out: list[Matrix] = []
        for combo in itertools.product(*(range(o) for o in self.generator_orders)):
            mat = eye
            for idx, k in enumerate(combo):
                mat = mat_mul(mat, powers[idx][k])
            out.append(mat)
        return out

    def norm_matrix(self) -> Matrix:
        mats = self.group_element_matrices()
        n = self.rank
        return tuple(
            tuple(sum(g[i][j] for g in mats) for j in range(n)) for i in range(n)
        )

    def augmentation_columns(self) -> list[tuple[int, ...]]:
        """Columns spanning the augmentation submodule ``sum (g - 1) M``."""
        eye = identity_matrix(self.rank)
        cols: list[tuple[int, ...]] = []
        for g in self.generator_matrices:
            for j in range(self.rank):
                cols.append(tuple(g[i][j] - eye[i][j] for i in range(self.rank)))
        return cols

    def fixed_point_constraints(self) -> list[tuple[int, ...]]:
        """Rows of the stacked system ``(g - 1) x = 0`` over all generators."""
        eye = identity_matrix(self.rank)
        rows: list[tuple[int, ...]] = []
        for g in self.generator_matrices:
            for i in range(self.rank):
                rows.append(tuple(g[i][j] - eye[i][j] for j in range(self.rank)))
        return rows


def _columns_matrix(cols: Sequence[Sequence[int]], dim: int) -> Matrix:
    return tuple(tuple(col[i] for col in cols) for i in range(dim))


@dataclass(frozen=True)
class _MinusOneData:
    kernel_basis: tuple[tuple[int, ...], ...]  # columns, in lattice coordinates
    quotient: QuotientPresentation  # of Z^k, k = number of kernel basis vectors


def _tate_minus_one_data(lattice: GaloisLattice) -> _MinusOneData:
    n = lattice.rank
    norm = lattice.norm_matrix() if lattice.generator_matrices else identity_matrix(n)
    kernel = integer_kernel_basis(norm) if n else []
    k = len(kernel)
    aug = lattice.augmentation_columns()
    if k == 0:
        return _MinusOneData(kernel_basis=(), quotient=quotient_presentation(0, []))
    kernel_matrix = _columns_matrix(kernel, n)
    if aug:
        aug_matrix = _columns_matrix(aug, n)
        x = solve_columns(kernel_matrix, aug_matrix)
    else:
        x = tuple(() for _ in range(k))
    quotient = quotient_presentation(k, x)
    if any(d == 0 for d in quotient.diag):
        raise AssertionError("degree -1 Tate cohomology of a lattice is finite")
    return _MinusOneData(kernel_basis=tuple(kernel), quotient=quotient)


def _tate_zero_group(lattice: GaloisLattice) -> FiniteAbelianGroup:
    n = lattice.rank
    if not lattice.generator_matrices:
        return TRIVIAL_GROUP  # trivial group: M^G / N M = M / M
    constraints = lattice.fixed_point_constraints()
    fixed = integer_kernel_basis(constraints) if constraints else [
        tuple(1 if i == j else 0 for i in range(n)) for j in range(n)
    ]
    r = len(fixed)
    if r == 0:
        return TRIVIAL_GROUP
    fixed_matrix = _columns_matrix(fixed, n)
    x = solve_columns(fixed_matrix, lattice.norm_matrix())
    quotient = quotient_presentation(r, x)
    if any(d == 0 for d in quotient.diag):
        raise AssertionError("the norm image has finite index in the fixed points")
    return FiniteAbelianGroup.from_factors(quotient.torsion_invariants())


def tate_cohomology(lattice: GaloisLattice, degree: int) -> FiniteAbelianGroup:
    """Tate cohomology of the lattice in degree -1 or 0."""
    if degree == -1:
        data = _tate_minus_one_data(lattice)
        return FiniteAbelianGroup.from_factors(data.quotient.torsion_invariants())
    if degree == 0:
        return _tate_zero_group(lattice)
    raise ValueError(f"only degrees -1 and 0 are provided, got {degree}")


# ---------------------------------------------------------------------------
# torus expressions over the diamond tower
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gm:
    """The split multiplicative group over ``base``."""

    base: str = "F"

    def __post_init__(self) -> None:
        galois_group(self.base)

    @property
    def rank(self) -> int:
        return 1


@dataclass(frozen=True)
class U1:
    """The norm-one torus of the quadratic step ``top/base``."""

    top: str
    base: str

    def __post_init__(self) -> None:
        if field_degree(self.top, self.base) != 2:
            raise UnsupportedTorusError(f"U1 needs a quadratic step, got {self.top}/{self.base}")

    @property
    def rank(self) -> int:
        return 1


@dataclass(frozen=True)
class Res:
    """Weil restriction through the quadratic step ``through/base``."""

    through: str
    base: str
    inner: "TorusExpr"

    def __post_init__(self) -> None:
        if field_degree(self.through, self.base) != 2:
            raise UnsupportedTorusError(
                f"Res is provided for quadratic steps, got {self.through}/{self.base}"
            )
        if self.inner.base != self.through:
            raise UnsupportedTorusError("the inner torus must live over the restriction field")

    @property
    def rank(self) -> int:
        return 2 * self.inner.rank


@dataclass(frozen=True)
class Prod:
    """A finite product of tori over a common base."""

    factors: tuple["TorusExpr", ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise UnsupportedTorusError("a product needs at least one factor")
        if len({f.base for f in self.factors}) != 1:
            raise UnsupportedTorusError("product factors must share a base field")

    @property
    def base(self) -> str:
        return self.factors[0].base

    @property
    def rank(self) -> int:
        return sum(f.rank for f in self.factors)


TorusExpr = Union[Gm, U1, Res, Prod]


def action_matrix(torus: TorusExpr, g: Bit) -> Matrix:
    """The matrix of ``g`` in ``Gal(K/base)`` on the cocharacter lattice."""
    if g not in galois_group(torus.base):
        raise ValueError(f"{g} does not fix the base field {torus.base}")
    if isinstance(torus, Gm):
        return ((1,),)
    if isinstance(torus, U1):
        return ((-1,),) if g not in galois_group(torus.top) else ((1,),)
    if isinstance(torus, Res):
        h_group = set(galois_group(torus.through))
        reps = [(0, 0), next(b for b in galois_group(torus.base) if b not in h_group)]
        r = torus.inner.rank
        n = 2 * r
        rows = [[0] * n for _ in range(n)]
        for i, rep in enumerate(reps):
            moved = _bit_add(g, rep)
            j = 0 if moved in h_group else 1
            h = _bit_add(moved, reps[j])
            assert h in h_group
            block = action_matrix(torus.inner, h)
            for bi in range(r):
                for bj in range(r):
                    rows[j * r + bi][i * r + bj] = block[bi][bj]
        return tuple(tuple(row) for row in rows)
    if isinstance(torus, Prod):
        blocks = [action_matrix(f, g) for f in torus.factors]
        n = torus.rank
        rows = [[0] * n for _ in range(n)]
        offset = 0
        for block in blocks:
            for bi in range(len(block)):
                for bj in range(len(block)):
                    rows[offset + bi][offset + bj] = block[bi][bj]
            offset += len(block)
        return tuple(tuple(row) for row in rows)
    raise UnsupportedTorusError(f"unknown torus expression {torus!r}")


def cocharacter_lattice(torus: TorusExpr, level: str) -> GaloisLattice:
    """The cocharacter lattice of ``torus`` with the ``Gal(K/level)`` action.

    ``level`` must contain the base field of the torus; the action of the
    smaller group is the restriction of the full one.
    """
    if not field_contains(level, torus.base):
        raise ValueError(f"level {level} does not contain the base field {torus.base}")
    gens = _CANONICAL_GENERATORS[level]
    return GaloisLattice(
        rank=torus.rank,
        generator_matrices=tuple(action_matrix(torus, g) for g in gens),
        generator_orders=(2,) * len(gens),
    )


def component_group_dual(torus: TorusExpr, level: str) -> FiniteAbelianGroup:
    """Torsion of the coinvariant lattice at the given level.

    By duality this is (the dual of) the component group of the fixed
    points of the dual torus; only its isomorphism type is used.
    """
    pres = _coinvariant_presentation(cocharacter_lattice(torus, level))
    return FiniteAbelianGroup.from_factors(pres.torsion_invariants())


def _coinvariant_presentation(lattice: GaloisLattice) -> QuotientPresentation:
    """``Z^rank`` modulo the augmentation submodule ``sum (g - 1) M``."""
    return quotient_presentation(
        lattice.rank, _columns_matrix(lattice.augmentation_columns(), lattice.rank)
    )


# ---------------------------------------------------------------------------
# norm quotients S(B)/Nm S(A) over a quadratic step A/B
# ---------------------------------------------------------------------------


def norm_quotient(torus: TorusExpr, step: tuple[str, str] = ("E", "F")) -> FiniteAbelianGroup:
    """The quotient of ``torus(B)`` by norms from ``torus(A)``, ``A/B`` quadratic.

    Computed by the structural rules:

    * ``Gm``: local index of norms of a quadratic extension — ``Z/2``;
    * ``U1(T/B)`` with ``T == A``: trivial (every norm-one element is a
      quotient ``x / conj(x)``, and those are norms);
    * ``U1(T/B)`` with ``T != A``: ``Z/2``;
    * ``Res`` through ``L/B``: if ``L == A`` the norm is split surjective;
      otherwise push down to the step ``compositum(A, L)/L``;
    * products: direct sum.
    """
    top, bottom = step
    if field_degree(top, bottom) != 2:
        raise UnsupportedTorusError(f"norm quotients need a quadratic step, got {top}/{bottom}")
    if torus.base != bottom:
        raise UnsupportedTorusError(
            f"torus over {torus.base} does not match the step base {bottom}"
        )
    if isinstance(torus, Gm):
        return Z2
    if isinstance(torus, U1):
        return TRIVIAL_GROUP if torus.top == top else Z2
    if isinstance(torus, Res):
        if torus.through == top:
            return TRIVIAL_GROUP
        return norm_quotient(torus.inner, (compositum(top, torus.through), torus.through))
    if isinstance(torus, Prod):
        out = TRIVIAL_GROUP
        for f in torus.factors:
            out = out * norm_quotient(f, step)
        return out
    raise UnsupportedTorusError(f"norm quotient not provided for {torus!r}")


# ---------------------------------------------------------------------------
# the kernel-cardinality identity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IdentityVerdict:
    lhs: int
    rhs: int

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def _transfer_matrix(torus: TorusExpr, step: tuple[str, str]) -> Matrix:
    """``1 + s`` on the lattice for ``s`` generating ``Gal(A/B)``."""
    top, bottom = step
    s = next(g for g in galois_group(bottom) if g not in galois_group(top))
    return mat_add(identity_matrix(torus.rank), action_matrix(torus, s))


def prasad_torus_identity(
    torus: TorusExpr, step: tuple[str, str] = ("E", "F")
) -> IdentityVerdict:
    """Compare the two kernel counts of the transfer across a quadratic step.

    Left: kernel of the transfer on degree -1 Tate cohomology, computed
    through norm kernels.  Right: kernel of the transfer on coinvariant
    torsion, computed through quotient presentations of the lattice itself
    (by duality, the cokernel of the norm on dual component groups).  The
    two pipelines share no intermediate results.
    """
    top, bottom = step
    if field_degree(top, bottom) != 2:
        raise UnsupportedTorusError(f"the identity is about quadratic steps, got {top}/{bottom}")
    if torus.base != bottom:
        raise UnsupportedTorusError("the torus must live over the lower field of the step")
    transfer = _transfer_matrix(torus, step)
    n = torus.rank

    # Left pipeline: norm kernels.
    low = _tate_minus_one_data(cocharacter_lattice(torus, bottom))
    high = _tate_minus_one_data(cocharacter_lattice(torus, top))
    lhs = 0
    high_kernel_matrix = (
        _columns_matrix(high.kernel_basis, n) if high.kernel_basis else None
    )
    # _tate_minus_one_data asserts the quotient is finite (no zero diagonal
    # entry), so its torsion representatives cover every class.
    for rep in low.quotient.torsion_representatives():
        vec = [
            sum(low.kernel_basis[k][i] * rep[k] for k in range(len(low.kernel_basis)))
            for i in range(n)
        ]
        image = mat_vec(transfer, vec)
        if high_kernel_matrix is None:
            is_zero = all(x == 0 for x in image)
        else:
            coords = solve_columns(high_kernel_matrix, tuple((x,) for x in image))
            y = [coords[i][0] for i in range(len(high.kernel_basis))]
            is_zero = high.quotient.is_zero_class(y)
        lhs += 1 if is_zero else 0

    # Right pipeline: coinvariant torsion.
    low_co = _coinvariant_presentation(cocharacter_lattice(torus, bottom))
    high_co = _coinvariant_presentation(cocharacter_lattice(torus, top))
    rhs = 0
    for rep in low_co.torsion_representatives():
        image = mat_vec(transfer, rep)
        rhs += 1 if high_co.is_zero_class(image) else 0

    return IdentityVerdict(lhs=lhs, rhs=rhs)


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
