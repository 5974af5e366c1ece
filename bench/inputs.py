"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the
same op list.  An op is a plain JSON-able dict, so ``run.py`` can hand it
to a fresh worker process unchanged.

* ``verify-all``: ``tables`` then ``verify all`` through the CLI.  The seed
  has no effect.
* ``prime-sweep``: CLI ``verify`` requests at low rank and growing p.  The
  seed picks each op's prime from a band whose primes cost about the same,
  so run time does not depend on the seed beyond a few per cent.
* ``structure``: library calls to the p-independent algebra (orbit
  classification, lattice cohomology, the torus catalog).  The seed picks
  which chunks of the rank-4 commuting involution pairs are computed.
"""

from __future__ import annotations

import itertools
import random

Matrix = tuple[tuple[int, ...], ...]

WORKLOADS = ("verify-all", "prime-sweep", "structure")

# Largest cyclic group (or residue field square, for sl2) one op may sweep.
MAX_ELEMENTS = 2_500_000

# sl2 scans all q**2 elements of F_{p^2}; within a band p**2 varies by at
# most 4 per cent (2 per cent in the two bands that dominate the pass).
SL2_BANDS = ((101, 103), (149, 151), (227, 229), (311, 313))
GL2_PRIMES = (3, 5, 7, 11, 13)
# gln/un at n = 3 sweep about p**3 elements.  The top band is a single
# prime, so the largest array (which sets peak RSS) is the same for
# every seed.
RANK3_BANDS = ((101, 103), (107, 109), (127,))
# At n = 5 neighbouring primes differ several-fold in p**5, so there is
# no band of comparable size: every pass runs each of these primes.
RANK5_PRIMES = (11, 13, 17)

CLASSIFY_RANKS = (9, 11, 13)
CLASSIFY_FAMILIES = ("gln", "un")
PAIR_CHUNKS = 49  # rank-4 commuting pairs are cut into this many chunks
PAIR_CHUNKS_PER_PASS = 8


def verify_all_ops() -> list[dict]:
    """What ``scripts/run_all_checks.py`` runs: the table diff, then every suite."""
    return [
        {"kind": "cli", "argv": ["tables"]},
        {"kind": "cli", "argv": ["verify", "all"]},
    ]


def _sweep(sl2_primes, rank3_primes) -> list[dict]:
    argvs = [["verify", "sl2", "--p", str(p)] for p in sl2_primes]
    argvs += [["verify", "gl2", "--p", str(p)] for p in GL2_PRIMES]
    for suite in ("gln", "un"):
        argvs += [["verify", suite, "--n", "3", "--p", str(p)] for p in rank3_primes]
        argvs += [["verify", suite, "--n", "5", "--p", str(p)] for p in RANK5_PRIMES]
    return [{"kind": "cli", "argv": argv} for argv in argvs]


def prime_sweep_ops(seed: int) -> list[dict]:
    """CLI verify requests, ordered by growing p within each suite."""
    rng = random.Random(f"prime-sweep:{seed}")
    sl2 = [rng.choice(band) for band in SL2_BANDS]
    rank3 = [rng.choice(band) for band in RANK3_BANDS]
    return _sweep(sl2, rank3)


def elements_swept(argv: list[str]) -> int:
    """Size of the largest set the request enumerates, from its arguments."""
    suite = argv[1]
    p = int(argv[argv.index("--p") + 1])
    n = int(argv[argv.index("--n") + 1]) if "--n" in argv else None
    if suite in ("sl2", "gl2"):
        return p * p
    if suite == "gln":
        return p**n - 1
    if suite == "un":
        return p**n + 1
    raise ValueError(f"no element count for suite {suite!r}")


# ---------------------------------------------------------------------------
# signed-permutation involution lattices
# ---------------------------------------------------------------------------


def _identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n = len(a)
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)) for i in range(n)
    )


def signed_permutation_involutions(n: int) -> list[Matrix]:
    """Signed permutation matrices squaring to the identity (identity included)."""
    eye = _identity(n)
    out = []
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1, -1), repeat=n):
            m = tuple(
                tuple(signs[i] if j == perm[i] else 0 for j in range(n)) for i in range(n)
            )
            if _mat_mul(m, m) == eye:
                out.append(m)
    return out


def commuting_involution_pairs(n: int) -> list[tuple[Matrix, Matrix]]:
    """Unordered pairs (with repetition) of commuting signed-permutation involutions."""
    invs = signed_permutation_involutions(n)
    return [
        (a, b)
        for i, a in enumerate(invs)
        for b in invs[i:]
        if _mat_mul(a, b) == _mat_mul(b, a)
    ]


def _lattice(gens: tuple[Matrix, ...]) -> dict:
    return {"rank": len(gens[0]), "gens": [list(map(list, g)) for g in gens]}


def small_rank_lattices() -> list[dict]:
    """Every involution lattice of rank <= 3: 162 lattices, one or two generators."""
    out = []
    for n in (1, 2, 3):
        out += [_lattice((m,)) for m in signed_permutation_involutions(n)]
        out += [_lattice(pair) for pair in commuting_involution_pairs(n)]
    return out


def pair_chunks() -> tuple[list[list[dict]], list[dict]]:
    """The 982 rank-4 pairs as 49 chunks of 20, plus the two left over.

    The pairs are shuffled once, with a fixed seed, before they are cut,
    because their cost follows their position in the enumeration; so every
    chunk is a fair sample and costs about the same.
    """
    pairs = [_lattice(pair) for pair in commuting_involution_pairs(4)]
    random.Random("rank4-pairs").shuffle(pairs)
    size = len(pairs) // PAIR_CHUNKS
    chunks = [pairs[j * size : (j + 1) * size] for j in range(PAIR_CHUNKS)]
    return chunks, pairs[size * PAIR_CHUNKS :]


def structure_ops(seed: int) -> list[dict]:
    """Classify six root systems once each, then the lattice and torus cohomology."""
    rng = random.Random(f"structure:{seed}")
    ops = [
        {"kind": "classify", "family": family, "n": n}
        for n in CLASSIFY_RANKS
        for family in CLASSIFY_FAMILIES
    ]
    ops.append({"kind": "lattices", "label": "rank<=3", "lattices": small_rank_lattices()})
    singles = [_lattice((m,)) for m in signed_permutation_involutions(4)]
    chunks, leftover = pair_chunks()
    # the two pairs the chunking leaves over run in every pass
    ops.append({"kind": "lattices", "label": "rank4-fixed", "lattices": singles + leftover})
    for j in sorted(rng.sample(range(PAIR_CHUNKS), PAIR_CHUNKS_PER_PASS)):
        ops.append({"kind": "lattices", "label": f"rank4-pairs-{j:02d}", "lattices": chunks[j]})
    ops.append({"kind": "catalog"})
    return ops


def every_op() -> list[dict]:
    """Every op some seed can generate, each once."""
    ops = verify_all_ops()
    ops += _sweep(
        [p for band in SL2_BANDS for p in band], [p for band in RANK3_BANDS for p in band]
    )
    ops += [op for op in structure_ops(0) if not op.get("label", "").startswith("rank4-pairs")]
    chunks, _ = pair_chunks()
    ops += [
        {"kind": "lattices", "label": f"rank4-pairs-{j:02d}", "lattices": chunk}
        for j, chunk in enumerate(chunks)
    ]
    return ops


def ops_for(workload: str, seed: int) -> list[dict]:
    if workload == "verify-all":
        return verify_all_ops()
    if workload == "prime-sweep":
        return prime_sweep_ops(seed)
    if workload == "structure":
        return structure_ops(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def op_label(op: dict) -> str:
    """A stable name for an op, used to key expected digests."""
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    if op["kind"] == "classify":
        return f"classify {op['family']} {op['n']}"
    if op["kind"] == "lattices":
        return f"lattices {op['label']}"
    return op["kind"]
