"""Per-layer tracing of quadchar from outside the package.

``Tracer.install`` replaces each layer's entry points with a wrapper at
every ``quadchar`` module that binds them (``classify_orbits`` is bound in
both ``root_orbits`` and ``case_studies``; ``smith_normal_form`` is looked
up through the ``galois_lattices`` globals), so calls between layers and
inside a layer both open a span.  A span is ``[layer, name, start_ns,
end_ns, parent_index]``; spans stay in memory until the worker writes them
out after its pass.

Counters are computed from call arguments and return values by the hooks
below, never read from inside the program.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# Module-level functions wrapped per layer.  Small arithmetic helpers
# (matrix products, field operations) are left out: they run per element
# and their time is their caller's.
FUNCTIONS = {
    "cli": ("main",),
    "tables": ("builtin_tables", "render_tables", "diff_tables", "format_all"),
    "char_engine": (
        "enumerate_configs",
        "make_config",
        "conjecture_check",
        "kaletha_contribution",
        "hakim_contribution",
        "prasad_contribution",
        "zeta_contribution",
        "toral_invariant",
    ),
    "case_studies": ("verify_sl2", "verify_gl2", "verify_gln_odd", "verify_un_odd"),
    "root_orbits": (
        "classify_orbits",
        "gln_root_system",
        "unitary_root_system",
        "gln_orbit_parity",
        "derive_op_data",
    ),
    "galois_lattices": (
        "tate_cohomology",
        "smith_normal_form",
        "prasad_torus_identity",
        "norm_quotient",
        "cocharacter_lattice",
        "component_group_dual",
        "torus_catalog",
    ),
    "padic_fields": (
        "make_base",
        "square_classes",
        "hilbert_symbol",
        "quadratic_extension",
        "unramified_quadratic",
        "ramified_quadratic",
        "omega_quadratic",
        "biquadratic_diamond",
        "zeta_lambda_ratio",
    ),
    # residue fields: coarse entry points only
    "residue_fields": ("sgn_units", "sgn_norm_one"),
}
LAYERS = tuple(FUNCTIONS)

METHODS = {
    "root_orbits": (("TwistedRootSystem", "group_elements"),),
    "galois_lattices": (("GaloisLattice", "__post_init__"),),
    "residue_fields": (("QuadraticExtension", "norm_one_elements"),),
}


# ---------------------------------------------------------------------------
# counters computed from arguments and results
# ---------------------------------------------------------------------------


def _count_classify(counts: dict, args: tuple, result: object) -> None:
    system = args[0]
    counts["root_orbits.classify_calls"] += 1
    counts["_classify_keys"].add((system.rank, system.roots, system.generators))


def _count_closure(counts: dict, args: tuple, result: object) -> None:
    counts["root_orbits.closure_calls"] += 1
    counts["root_orbits.closure_size"] += len(result)


def _count_case_study(counts: dict, args: tuple, result: object) -> None:
    counts["case_studies.calls"] += 1
    counts["case_studies.elements"] += sum(
        int(rec.inputs.get("elements", 0)) for rec in result.records
    )


def _count_norm_one(counts: dict, args: tuple, result: object) -> None:
    ext = args[0]
    counts["residue_fields.scanned"] += ext.q**2
    counts["residue_fields.norm_one_found"] += len(result)


def _count_snf(counts: dict, args: tuple, result: object) -> None:
    matrix = args[0]
    counts["galois_lattices.snf_calls"] += 1
    dim = max(len(matrix), len(matrix[0]) if matrix else 0)
    counts["galois_lattices.snf_max_dim"] = max(counts["galois_lattices.snf_max_dim"], dim)


def _count_lattice(counts: dict, args: tuple, result: object) -> None:
    counts["galois_lattices.lattices"] += 1


def _count_hilbert(counts: dict, args: tuple, result: object) -> None:
    counts["padic_fields.hilbert_calls"] += 1


COUNTERS = {
    "classify_orbits": _count_classify,
    "group_elements": _count_closure,
    "verify_sl2": _count_case_study,
    "verify_gl2": _count_case_study,
    "verify_gln_odd": _count_case_study,
    "verify_un_odd": _count_case_study,
    "norm_one_elements": _count_norm_one,
    "smith_normal_form": _count_snf,
    "__post_init__": _count_lattice,
    "hilbert_symbol": _count_hilbert,
}


class Tracer:
    """Collects spans and counters for one worker process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict = defaultdict(int)
        self.counts["_classify_keys"] = set()
        self.missing: list[str] = []

    def wrap(self, layer: str, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(fn.__name__)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed entry point wherever a quadchar module binds it."""
        modules = [m for name, m in sys.modules.items() if name.startswith("quadchar")]
        for layer in LAYERS:
            module = importlib.import_module(f"quadchar.{layer}")
            for name in FUNCTIONS.get(layer, ()):
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                traced = self.wrap(layer, name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(module, cls_name, None)
                original = getattr(cls, meth, None) if cls is not None else None
                if original is None:
                    self.missing.append(f"{layer}.{cls_name}.{meth}")
                    continue
                setattr(cls, meth, self.wrap(layer, f"{cls_name}.{meth}", original))

    def summary(self, wall_ns: int) -> dict:
        """Per-layer metrics of this pass; ``wall_ns`` is the traced op time."""
        self_ns = self_times(self.spans)
        out = {f"{layer}.self_ms": self_ns.get(layer, 0) / 1e6 for layer in LAYERS}
        out["other.self_ms"] = (wall_ns - sum(self_ns.values())) / 1e6
        out["trace.wall_ms"] = wall_ns / 1e6
        out["root_orbits.classify_ms"] = outermost_ms(self.spans, "classify_orbits")
        out["galois_lattices.snf_ms"] = outermost_ms(self.spans, "smith_normal_form")
        counts = dict(self.counts)
        keys = counts.pop("_classify_keys")
        found = counts.pop("residue_fields.norm_one_found", 0)
        calls = counts.get("root_orbits.classify_calls", 0)
        counts["root_orbits.classify_distinct"] = len(keys)
        counts["root_orbits.reuse_frac"] = 1 - len(keys) / calls if calls else 0.0
        scanned = counts.get("residue_fields.scanned", 0)
        counts["residue_fields.norm_one_yield"] = found / scanned if scanned else 0.0
        out.update(counts)
        return out


def self_times(spans: list[list]) -> dict[str, int]:
    """Self time per layer: each span's duration minus its children's.

    Spans come from one thread, so children nest inside their parent and
    never overlap one another; their durations can simply be subtracted.
    """
    child_ns = [0] * len(spans)
    for layer, name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict[str, int] = defaultdict(int)
    for (layer, name, start, end, parent), inner in zip(spans, child_ns):
        out[layer] += end - start - inner
    return dict(out)


def outermost_ms(spans: list[list], name: str) -> float:
    """Inclusive time of the spans called ``name`` not nested in another one."""
    total = 0
    for layer, span_name, start, end, parent in spans:
        if span_name != name:
            continue
        while parent >= 0 and spans[parent][1] != name:
            parent = spans[parent][4]
        if parent < 0:
            total += end - start
    return total / 1e6
