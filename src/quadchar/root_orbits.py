"""Twisted root systems: orbit symmetry classification and orbit classes.

A ``TwistedRootSystem`` is a finite set of roots in ``Z^rank`` together
with a finite group ``Q`` acting on them by root permutations and a
quadratic character of ``Q`` (the ``e_sign`` of each generator) whose
kernel ``Q_E`` has index 2.  An element is ``(perm, sign)``, byte ``i`` of
``perm`` the index of the image of root ``i`` and ``sign`` its character
value, so ``Q_E`` is the elements of sign 1.  The generators are given as
such elements; no matrix is read here (``galois_lattices`` alone knows
that format).  The roots are checked, indexed and negated once per
distinct root tuple, which every system over it shares, and each
generator must permute them and commute with negation.  The closure
composes pairs by ``compose_permutations``, so ``Q`` is a subgroup of
``Sym(roots) x {+-1}``; an action of a larger group that is not faithful
on the roots is given by its image, which has the same orbits,
symmetries, degrees and ``(e, f)``, since the kernel fixes every root with
value 1 and so lies in ``Q_E`` and in every stabilizer below.  The group
is closed once per system object, when its ``orbits`` are first read; the
orbit walk runs on root indices, one pass over ``Q`` per orbit.

For each orbit the classification records:

* ``sym_over_base``  — whether ``-a`` lies in the ``Q``-orbit of ``a``;
* ``sym_over_e``     — whether ``-a`` lies in the ``Q_E``-orbit of ``a``;
* ``degree``         — 1 if the stabilizer of ``a`` lies in ``Q_E`` (the
  ``Q``-orbit splits into two ``Q_E``-orbits), else 2;
* the plain, signed and twisted stabilizers of the base root.

Orbit classes.  The tower ``F_{+-a} < F_a < E_a`` of an orbit and its
intersections with ``E`` are the fixed fields of the signed stabilizer,
the stabilizer and their intersections with ``Q_E``.  When ``Q`` is a
tame Galois group with inertia subgroup ``I``, the fixed field of ``H``
has ``e = [I : I & H]`` and ``f = [Q : H] / e`` (Serre, *Local Fields*,
ch. IV), so ``orbit_class`` reads the ramification of every step of the
tower, and hence the orbit's class, off the stabilizers and ``I``.  The
ramification of the twisted step, from the fixed field of the twisted
stabilizer, is cross-checked against ``derive_op_data``.

``derive_op_data`` computes the two opposition invariants of a class
(symmetry type of the twisted orbit over the base, and the ramification
of the step from the twisted-stabilizer field up) purely structurally;
``twisted_class`` is the class they make with the symmetry over ``E``.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, cached_property
from itertools import permutations
from operator import neg
from typing import Iterable

from ._value import Value
from .galois_lattices import compose_permutations


class Sym(str, Enum):
    """Symmetry type of a root orbit (with step ramification flavor); values are table text."""

    ASYM = "asym"
    SYM_UNRAM = "sym ur"
    SYM_RAM = "sym r"


class Deg(str, Enum):
    """Type of the quadratic-or-trivial step above the stabilizer field; values are table text."""

    SPLIT = "1"
    UNRAM = "2 ur"
    RAM = "2 r"


Vector = tuple[int, ...]
Element = tuple[bytes, int]  # (root permutation, byte i the index of g.root_i; character value)
RootSet = tuple[bytes, tuple[int, ...]]  # (negation permutation, indices in sorted root order)

_MAX_GROUP = _MAX_ROOTS = 256  # closure size, and root count: a root index is one byte


def _neg(v: Vector) -> Vector:
    return tuple(map(neg, v))


def compose(a: Element, b: Element) -> Element:
    """``a`` after ``b``."""
    return compose_permutations(a[0], b[0]), a[1] * b[1]


@cache
def _root_set(rank: int, roots: tuple[Vector, ...]) -> RootSet:
    """The check and indexing that read the roots alone, once per distinct ``(rank, roots)``.

    Returns the negation permutation and the indices in sorted root order.
    Systems over one root set share them; a refusal is not cached, so it
    raises again for every system built on those roots.
    """
    index = dict(zip(roots, range(len(roots))))
    negation = [index.get(_neg(root), -1) for root in roots]
    valid = 0 < len(index) == len(roots) <= _MAX_ROOTS and (0,) * rank not in index
    for root in roots:
        if len(root) != rank:
            valid = False
    if not valid or -1 in negation:
        raise ValueError(
            f"roots must be 1 to {_MAX_ROOTS} distinct nonzero vectors of length {rank}, "
            "closed under negation"
        )
    return bytes(negation), tuple(sorted(range(len(roots)), key=roots.__getitem__))


class TwistedRootSystem(Value):
    """Roots, an action on them by root permutations, and an index-2 character.

    Each generator is an ``Element`` ``(perm, sign)``.  Construction checks
    the roots (``_root_set``), then, with one message naming the generator,
    that each generator is a permutation of the root indices that commutes
    with the negation permutation, with character value 1 or -1.  The
    index-2 check needs the closure, so it waits for the first read of
    ``orbits``.
    """

    rank: int
    roots: tuple[Vector, ...]
    generators: tuple[Element, ...]

    def __post_init__(self) -> None:
        negation, _ = root_set = _root_set(self.rank, self.roots)
        identity = bytes(range(len(self.roots)))
        for perm, sign in self.generators:
            if (
                sign not in (1, -1)
                or bytes(sorted(perm)) != identity
                or compose_permutations(perm, negation) != compose_permutations(negation, perm)
            ):
                raise ValueError(
                    f"a generator must be a permutation of the {len(identity)} root indices that "
                    "commutes with negation, with character value 1 or -1; "
                    f"{perm!r} with {sign!r} is not"
                )
        object.__setattr__(self, "_root_set", root_set)

    def group_elements(self) -> tuple[Element, ...]:
        """Closure of the generators in ``Sym(roots) x {+-1}``, sorted; capped for safety."""
        group = {(bytes(range(len(self.roots))), 1)}  # the identity
        frontier = list(group)
        while frontier:
            base = frontier.pop()
            for gen in self.generators:
                nxt = compose(base, gen)
                if nxt not in group:
                    if len(group) >= _MAX_GROUP:
                        raise ValueError("group closure exceeds the supported size")
                    group.add(nxt)
                    frontier.append(nxt)
        return tuple(sorted(group))

    @cached_property
    def orbits(self) -> tuple[OrbitRecord, ...]:
        """Orbits of the root set under ``Q``, with symmetry and stabilizer data.

        Walked on root indices in sorted root order, from the first not yet seen;
        each orbit groups the elements once by the base root's image and sign.
        Computed on first read and kept, and a failed check raises on every read.
        ``Q_E`` is read as the elements of sign 1, which must be half of ``Q``.
        """
        elements = self.group_elements()
        if 2 * sum(sign == 1 for _, sign in elements) != len(elements):
            raise ValueError("the character must cut out an index-2 subgroup")
        roots, (negation, walk) = self.roots, self._root_set
        seen = [False] * len(roots)
        records: list[OrbitRecord] = []
        for b in walk:
            if seen[b]:
                continue
            # the elements by the base root's image, and within it by sign: Q_E first
            targets: dict[int, tuple[list[Element], list[Element]]] = {}
            for g in elements:
                entry = targets.get(t := g[0][b])
                if entry is None:
                    entry = targets[t] = ([], [])
                entry[g[1] < 0].append(g)
            nb = negation[b]
            fix_e, fix_o = targets[b]  # the stabilizer, in Q_E and outside it
            neg_e, neg_o = targets.get(nb, ((), ()))  # the elements negating the root
            stab_e = frozenset(fix_e)
            stab_signed_e = stab_e.union(neg_e)
            e_orbit_size = sum(1 for e, _ in targets.values() if e)
            for i in targets:
                seen[i] = True
            records.append(
                OrbitRecord(
                    roots[b], tuple(sorted(roots[i] for i in targets)),
                    nb in targets, bool(neg_e), 2 if fix_o else 1, len(targets) // e_orbit_size,
                    stab_e.union(fix_o), stab_signed_e.union(fix_o, neg_o), stab_e.union(neg_o),
                    stab_e, stab_signed_e,
                )
            )
        return tuple(records)


class OrbitRecord(Value):
    """Classification data of one ``Q``-orbit of roots."""

    base_root: Vector
    roots: tuple[Vector, ...]
    sym_over_base: bool
    sym_over_e: bool
    degree: int  # 1 if the stabilizer is contained in Q_E, else 2
    e_suborbit_count: int
    stab: frozenset[Element]
    stab_signed: frozenset[Element]
    stab_twisted: frozenset[Element]
    stab_e: frozenset[Element]
    stab_signed_e: frozenset[Element]


def classify_orbits(system: TwistedRootSystem) -> list[OrbitRecord]:
    """A new list of ``system.orbits``, which the system computes once."""
    return list(system.orbits)


# ---------------------------------------------------------------------------
# orbit classes from the inertia subgroup
# ---------------------------------------------------------------------------

FieldType = tuple[int, int]  # (ramification index e, residue degree f) over F


def _step_kind(lower: FieldType, upper: FieldType) -> Deg:
    """Ramification of a trivial or quadratic step between two fields' ``(e, f)``."""
    if upper == lower:
        return Deg.SPLIT
    if upper == (2 * lower[0], lower[1]):
        return Deg.RAM
    if upper == (lower[0], 2 * lower[1]):
        return Deg.UNRAM
    raise ValueError(f"inconsistent inertia: {lower} -> {upper} is not a step of degree 1 or 2")


def _symmetric_step(lower: FieldType, upper: FieldType) -> Sym:
    """A symmetric orbit's symmetry: the flavor of its quadratic step from the signed stabilizer."""
    kind = _step_kind(lower, upper)
    if kind is Deg.SPLIT:
        raise ValueError(f"inconsistent inertia: a symmetric orbit's {lower} -> {upper} is trivial")
    return Sym.SYM_UNRAM if kind is Deg.UNRAM else Sym.SYM_RAM


def _check_inertia(inertia: frozenset[Element], size: int) -> None:
    identity = (bytes(range(size)), 1)
    if identity not in inertia:
        raise ValueError("inertia must contain the identity")
    others = inertia - {identity}
    if any(compose(a, b) not in inertia for a in others for b in others):
        raise ValueError("inertia must be closed under products")


def orbit_class(record: OrbitRecord, inertia: Iterable[Element]) -> tuple[Deg, Sym, Sym]:
    """The orbit's class ``(step type, symmetry over F, symmetry over E)``.

    ``inertia`` is the inertia subgroup ``I`` of ``Q`` as ``(perm, sign)``
    pairs; the module docstring gives ``(e, f)`` of each stabilizer's fixed
    field.  ``|Q|`` is the orbit size times the stabilizer size, so no group
    closure is taken.
    """
    inertia = frozenset(inertia)
    _check_inertia(inertia, len(next(iter(record.stab))[0]))  # the number of roots
    order = len(record.roots) * len(record.stab)

    def field_type(subgroup: frozenset[Element]) -> FieldType:
        e = len(inertia) // len(inertia & subgroup)
        f, rest = divmod(order // len(subgroup), e)
        if rest:
            raise ValueError("inertia must be normal in the group")
        return e, f

    f_pm, f_a = field_type(record.stab_signed), field_type(record.stab)
    e_pm, e_a = field_type(record.stab_signed_e), field_type(record.stab_e)
    triple = (
        _step_kind(f_a, e_a),
        _symmetric_step(f_pm, f_a) if record.sym_over_base else Sym.ASYM,
        _symmetric_step(e_pm, e_a) if record.sym_over_e else Sym.ASYM,
    )
    if _step_kind(field_type(record.stab_twisted), e_a) is not derive_op_data(*triple)[1]:
        raise ValueError("inconsistent inertia: the twisted step has the wrong ramification")
    return triple


# ---------------------------------------------------------------------------
# structural opposition data
# ---------------------------------------------------------------------------


def _flavor_is_unram(s: Sym | Deg) -> bool:
    return s in (Sym.SYM_UNRAM, Deg.UNRAM)


def derive_op_data(degree: Deg, sym_base: Sym, sym_e: Sym) -> tuple[Sym, Deg]:
    """Opposition invariants ``(twisted symmetry, twisted step type)``.

    Derived structurally from the orbit lemmas:

    * fully asymmetric orbits: the twisted-stabilizer field is the orbit
      field itself, so the twisted step is trivial and the twisted
      symmetry inherits the flavor of the original step (asymmetric if
      that step is trivial);
    * symmetric over the base but asymmetric over E (necessarily a
      trivial step): the twisted field is the signed-stabilizer field,
      giving a twisted step of the original symmetry's flavor and an
      asymmetric twisted orbit;
    * symmetric over both with a trivial step: the signed stabilizers
      over the base and over E coincide, so the two symmetry flavors
      agree; the twisted field equals the stabilizer field and all
      flavors are inherited;
    * symmetric over both with a quadratic step: the three middle fields
      of the biquadratic step contain exactly one unramified one, which
      pins down both twisted invariants.
    """
    if sym_e is not Sym.ASYM and sym_base is Sym.ASYM:
        raise ValueError("symmetric over E forces symmetric over the base")
    if sym_base is Sym.ASYM:
        if degree is Deg.SPLIT:
            return (Sym.ASYM, Deg.SPLIT)
        return (Sym.SYM_UNRAM if degree is Deg.UNRAM else Sym.SYM_RAM, Deg.SPLIT)
    if sym_e is Sym.ASYM:
        if degree is not Deg.SPLIT:
            raise ValueError("a symmetric orbit asymmetric over E has a trivial step")
        return (Sym.ASYM, Deg.UNRAM if sym_base is Sym.SYM_UNRAM else Deg.RAM)
    if degree is Deg.SPLIT:
        # the stabilizer lies in Q_E and so does an element negating the root,
        # so the signed stabilizers over F and over E coincide: one flavor
        if sym_e is not sym_base:
            raise ValueError("a trivial step forces equal symmetry flavors over F and E")
        return (sym_base, Deg.SPLIT)
    # biquadratic case: lower edges of the three middles
    lower_f_alpha_unram = _flavor_is_unram(sym_base)
    lower_e_pm_unram = not _flavor_is_unram(sym_e)  # opposite of the upper edge
    if _flavor_is_unram(degree) == lower_f_alpha_unram:
        raise ValueError("inconsistent class: diamond edges must alternate ramification")
    count_unram = int(lower_f_alpha_unram) + int(lower_e_pm_unram)
    if count_unram >= 2:
        raise ValueError("inconsistent class: a diamond has exactly one unramified middle")
    lower_op_unram = count_unram == 0
    sym_op = Sym.SYM_UNRAM if lower_op_unram else Sym.SYM_RAM
    deg_op = Deg.RAM if lower_op_unram else Deg.UNRAM  # upper edge is opposite
    return (sym_op, deg_op)


def twisted_class(triple: tuple[Deg, Sym, Sym]) -> tuple[Deg, Sym, Sym]:
    """The class of the twisted orbit, an involution on the ten classes.

    Its step and its symmetry over the base are ``derive_op_data``'s; the
    twist does not change the symmetry over ``E``.
    """
    sym_op, deg_op = derive_op_data(*triple)
    return (deg_op, sym_op, triple[2])


# ---------------------------------------------------------------------------
# concrete families
# ---------------------------------------------------------------------------


@cache
def _type_a(n: int) -> tuple[tuple[Vector, ...], bytes, bytes]:
    """The roots ``e_i - e_j`` (``i != j``) of ``Z^n``, sorted, and two of their permutations.

    Both are written down on the pairs ``(i, j)``, indices mod ``n``: the
    shift ``(i, j) -> (i + 1, j + 1)``, the action of ``e_i -> e_{i+1}``, and
    the shift-and-negate ``(i, j) -> (j + 1, i + 1)``, the action of its negative.
    """
    if not 2 <= n <= 16:
        raise ValueError("need 2 <= n <= 16: a root index is one byte")
    # the sorted order of e_i - e_j, by its first nonzero entry: -1 at j when i > j (by
    # ascending j, then descending i) before +1 at i when i < j (descending i, then ascending j)
    order = sorted(
        permutations(range(n), 2),
        key=lambda ij: (0, ij[1], -ij[0]) if ij[0] > ij[1] else (1, -ij[0], ij[1]),
    )
    index = {pair: k for k, pair in enumerate(order)}
    roots = []
    for i, j in order:
        root = [0] * n
        root[i], root[j] = 1, -1
        roots.append(tuple(root))
    moved = [((i + 1) % n, (j + 1) % n) for i, j in order]
    return tuple(roots), bytes(index[ij] for ij in moved), bytes(index[j, i] for i, j in moved)


@cache
def gln_root_system(n: int) -> TwistedRootSystem:
    """Type A roots with a cyclic shift action carrying character value -1.

    This is the action on the diagonal-torus roots coming from an
    unramified degree-``n`` field step together with an auxiliary
    quadratic extension linearly disjoint from it (so the character
    alternates along the cycle).
    """
    roots, shift, _ = _type_a(n)
    return TwistedRootSystem(n, roots, ((shift, -1),))


@cache
def unitary_root_system(n: int) -> TwistedRootSystem:
    """Type A roots with the shift-and-negate action of odd unitary groups."""
    roots, _, shift_and_negate = _type_a(n)
    return TwistedRootSystem(n, roots, ((shift_and_negate, -1),))


def gln_orbit_parity(n: int) -> dict[str, int | bool]:
    """``orbits`` and ``symmetric`` orbits of the cyclic type-A action, and ``parity_ok``.

    There are ``n - 1`` orbits; exactly one is symmetric when ``n`` is
    even and none when ``n`` is odd, so the number of symmetric orbits is
    always congruent to ``n - 1`` mod 2 (``parity_ok``).
    """
    records = classify_orbits(gln_root_system(n))
    symmetric = sum(1 for r in records if r.sym_over_base)
    return dict(orbits=len(records), symmetric=symmetric, parity_ok=(n - 1 - symmetric) % 2 == 0)
