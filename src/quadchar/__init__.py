"""Exact verification of quadratic character identities for tori over
quadratic extensions of p-adic fields.

The package is organised in layers:

* ``_value`` — ``Value``, the one base of the frozen value objects; fields
  are set by ``object.__setattr__``, never through ``__dict__``;
* ``residue_fields`` — ``UsageError``, finite fields, sign characters;
* ``padic_fields`` — square classes, the tame Hilbert symbol, quadratic
  extension descriptors, biquadratic diamonds, lambda constants;
* ``galois_lattices`` — lattices with Galois action by signed permutations
  only, Tate cohomology in degrees -1 and 0 from the orbits of basis lines,
  coinvariants by Smith normal form, the torus catalog and its kernel
  identity (tests cross-check it in ``tests/cocycle_oracle.py``);
* ``root_orbits`` — twisted root systems, orbit symmetry classification
  and each orbit's class from the inertia subgroup;
* ``char_engine`` — symbolic quadratic-character contributions per orbit
  class and the per-class comparison verdicts;
* ``tables`` — builtin reference tables, regenerated from one row spec,
  and their diff;
* ``case_studies`` — element-level scenario checks, counted over every
  element of small groups;
* ``cli`` — the ``quadchar`` command line: ``tables``, ``verify``,
  ``hilbert``.
"""

__version__ = "0.1.0"
