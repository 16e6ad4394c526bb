"""Span tracing for the traced benchmark run, installed from outside the
program.

The tracer replaces selected functions of the qspectra package with
wrappers that record a span (name, start, end, parent span, operation id)
per call.  A module-level function is replaced under its name in every
qspectra module that imported it, so calls through ``from .x import f``
are caught too; methods are replaced on their class.  Spans and counts
stay in memory until the run ends.  Nothing here is loaded in the
untraced end-to-end runs.
"""

import json
import sys
import time
from collections import Counter

# (defining module, function name, span name)
FUNCTIONS = (
    ("algebra", "qh_projective", "algebra.provider.qh_projective"),
    ("algebra", "qh_ig2", "algebra.provider.qh_ig2"),
    ("algebra", "jacobi_ring", "algebra.provider.jacobi_ring"),
    ("algebra", "from_presentation", "algebra.from_presentation"),
    ("algebra", "load_algebra", "algebra.load"),
    ("algebra", "validate_algebra", "algebra.validate"),
    ("algebra", "mult_matrix", "algebra.mult_matrix"),
    ("schur", "qh_grassmannian", "algebra.provider.qh_grassmannian"),
    ("schur", "lr_coeffs", "schur.lr_coeffs"),
    ("chevalley", "grassmann_divisor_matrix", "chevalley.divisor_matrix"),
    ("chevalley", "ig2_divisor_matrix", "chevalley.divisor_matrix"),
    ("chevalley", "grassmannian_algebra", "chevalley.grassmannian_algebra"),
    ("exactlin", "charpoly", "exactlin.charpoly"),
    ("exactlin", "rank", "exactlin.rank"),
    ("exactlin", "span_basis", "exactlin.span_basis"),
    ("exactlin", "kernel_basis", "exactlin.kernel_basis"),
    ("spectrum", "quantum_spectrum_report", "spectrum.report"),
    ("spectrum", "kappa_split", "spectrum.kappa_split"),
    ("spectrum", "nilradical", "spectrum.nilradical"),
    ("spectrum", "orbit_analysis", "spectrum.orbit_analysis"),
    ("spectrum", "local_invariants", "spectrum.local_invariants"),
    ("lefschetz", "conjecture_numerology", "lefschetz.numerology"),
    ("bwb", "parse_bundle", "bwb.parse"),
    ("bwb", "hom_bundle", "bwb.hom_bundle"),
    ("bwb", "bott", "bwb.bott"),
    ("bwb", "ext_table", "bwb.ext_table"),
    ("bwb", "ext_hyperplane", "bwb.ext_hyperplane"),
    ("bwb", "check_collection", "bwb.check_collection"),
    ("bwb", "check_collection_hyperplane", "bwb.check_collection"),
)

# metrics that do not add up over repeated bodies
NOT_ADDITIVE = ("schur.lr_cache_hit_ratio", "bwb.undecided_ratio",
                "exactlin.max_bits")

PROVIDERS = ("algebra.provider.qh_projective", "algebra.provider.qh_ig2",
             "algebra.provider.jacobi_ring",
             "algebra.provider.qh_grassmannian")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.op = None
        # results kept for size statistics, computed after the run
        self.charpolys = []
        self.split_parts = []
        self.algebras_in = []
        self.undecided = 0
        self.patches = []

    def wrap(self, name, fn, after=None, before=None):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op)
            if after is not None:
                after(result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner, attr, value):
        self.patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self.patches:
            owner, attr, original = self.patches.pop()
            setattr(owner, attr, original)

    def install(self):
        """Patch the qspectra package in place; returns the number of
        names replaced."""
        import qspectra.algebra as algebra
        import qspectra.bwb as bwb
        import qspectra.exactlin as exactlin

        hooks = {
            "exactlin.charpoly": dict(after=self.charpolys.append),
            "spectrum.kappa_split": dict(after=self.split_parts.append),
            "spectrum.report": dict(
                before=lambda a: self.algebras_in.append(a[0])),
            "algebra.validate": dict(
                before=lambda a: self.algebras_in.append(a[0])),
            "bwb.ext_hyperplane": dict(after=self._hyperplane_result),
        }
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "qspectra" or name.startswith("qspectra.")]
        replaced = 0
        for modname, attr, span in FUNCTIONS:
            original = getattr(sys.modules["qspectra." + modname], attr)
            wrapper = self.wrap(span, original, **hooks.get(span, {}))
            for m in modules:
                if getattr(m, attr, None) is original:
                    self._patch(m, attr, wrapper)
                    replaced += 1

        self._patch_method(exactlin.Matrix, "__mul__", "exactlin.matmul",
                           only_if=lambda a: isinstance(a[1], exactlin.Matrix))
        self._patch_method(exactlin.Poly, "__call__",
                           "exactlin.poly_at_matrix",
                           only_if=lambda a: isinstance(a[1], exactlin.Matrix))
        self._patch_method(exactlin.Solver, "__init__", "exactlin.solver")
        self._patch_method(exactlin.Solver, "solve", "exactlin.solver.solve")
        self._patch_method(bwb.BundleExpr, "tensor", "bwb.tensor")
        self._count_method(algebra.FiniteCommAlgebra, "product",
                           "algebra.product")
        return replaced

    def _patch_method(self, cls, attr, name, only_if=None):
        original = getattr(cls, attr)
        traced = self.wrap(name, original)
        if only_if is None:
            self._patch(cls, attr, traced)
            return

        def method(*args, **kwargs):
            if only_if(args):
                return traced(*args, **kwargs)
            return original(*args, **kwargs)

        self._patch(cls, attr, method)

    def _count_method(self, cls, attr, name):
        # called too often for a span each; a count is enough
        original = getattr(cls, attr)
        counts = self.counts

        def method(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patch(cls, attr, method)

    def _hyperplane_result(self, result):
        if result.get("verdict") == "inconclusive":
            self.undecided += 1

    # --- summaries -------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_name(self):
        """{name: (calls, outermost inclusive seconds, self seconds)}.

        Inclusive time counts only spans with no ancestor of the same name,
        so recursion is not counted twice; self time is each span's
        duration minus that of its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, t0, t1, parent, _op in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, parent, _op) in enumerate(spans):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            p = parent
            nested = False
            while p >= 0:
                if spans[p][0] == name:
                    nested = True
                    break
                p = spans[p][3]
            dur = t1 - t0
            out[name] = (calls + 1, incl + (0.0 if nested else dur),
                         self_s + dur - child_time[i])
        return out

    def outermost_time(self, names):
        """Seconds covered by spans in `names` that have no ancestor in
        `names`."""
        names = set(names)
        spans = self.spans
        total = 0.0
        for name, t0, t1, parent, _op in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += t1 - t0
        return total


def unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "1"
    return "count"


def _bits(x):
    return max(abs(x.numerator).bit_length(), x.denominator.bit_length())


def structure_nnz(A):
    return sum(1 for row in A.structure for cell in row for c in cell
               if c != 0)


def max_bits(tracer):
    """Largest numerator or denominator bit length in the charpolys and
    the split structure constants the traced run produced."""
    best = 0
    for p in tracer.charpolys:
        for c in p.coeffs:
            best = max(best, _bits(c))
    seen = set()
    for parts in tracer.split_parts:
        for A in parts:
            if id(A) in seen:
                continue
            seen.add(id(A))
            for row in A.structure:
                for cell in row:
                    for c in cell:
                        if c != 0:
                            best = max(best, _bits(c))
    return best


def mean_metrics(runs):
    return {name: sum(r[name] for r in runs) / len(runs) for name in runs[0]}


def layer_metrics(tracer, lr_hits, lr_misses):
    """The per-layer metrics of one traced body, by metric name."""
    by = tracer.per_name()

    def t(name):
        return by.get(name, (0, 0.0, 0.0))[1]

    def n(name):
        return by.get(name, (0, 0.0, 0.0))[0]

    ext_h = n("bwb.ext_hyperplane")
    lookups = lr_hits + lr_misses
    nnz_of = {}
    nnz = 0
    for A in tracer.algebras_in:
        if id(A) not in nnz_of:
            nnz_of[id(A)] = structure_nnz(A)
        nnz += nnz_of[id(A)]
    return {
        "cli.self_s": by.get("cli.main", (0, 0.0, 0.0))[2],
        "algebra.provider_s": tracer.outermost_time(PROVIDERS),
        "algebra.load_s": t("algebra.load"),
        "algebra.validate_s": t("algebra.validate"),
        "algebra.validate_calls": n("algebra.validate"),
        "algebra.from_presentation_s": t("algebra.from_presentation"),
        "algebra.mult_matrix_s": t("algebra.mult_matrix"),
        "algebra.mult_matrix_calls": n("algebra.mult_matrix"),
        "algebra.product_calls": tracer.counts["algebra.product"],
        "algebra.structure_nnz": nnz,
        "schur.qh_grassmannian_s": t("algebra.provider.qh_grassmannian"),
        "schur.lr_coeffs_s": t("schur.lr_coeffs"),
        "schur.lr_coeffs_calls": n("schur.lr_coeffs"),
        "schur.lr_cache_hit_ratio": lr_hits / lookups if lookups else 0.0,
        "chevalley.divisor_matrix_s": t("chevalley.divisor_matrix"),
        "chevalley.grassmannian_algebra_s":
            t("chevalley.grassmannian_algebra"),
        "exactlin.charpoly_s": t("exactlin.charpoly"),
        "exactlin.charpoly_calls": n("exactlin.charpoly"),
        "exactlin.poly_at_matrix_s": t("exactlin.poly_at_matrix"),
        "exactlin.matmul_calls": n("exactlin.matmul"),
        "exactlin.solver_s":
            tracer.outermost_time(("exactlin.solver",
                                   "exactlin.solver.solve")),
        "exactlin.solve_calls": n("exactlin.solver.solve"),
        "exactlin.rank_s": t("exactlin.rank"),
        "exactlin.span_basis_s": t("exactlin.span_basis"),
        "exactlin.kernel_basis_s": t("exactlin.kernel_basis"),
        "exactlin.max_bits": max_bits(tracer),
        "spectrum.report_s": t("spectrum.report"),
        "spectrum.kappa_split_s": t("spectrum.kappa_split"),
        "spectrum.kappa_split_self_s":
            by.get("spectrum.kappa_split", (0, 0.0, 0.0))[2],
        "spectrum.nilradical_s": t("spectrum.nilradical"),
        "spectrum.nilradical_calls": n("spectrum.nilradical"),
        "spectrum.orbit_analysis_s": t("spectrum.orbit_analysis"),
        "spectrum.local_invariants_s": t("spectrum.local_invariants"),
        "lefschetz.numerology_s": t("lefschetz.numerology"),
        "bwb.ext_table_s": t("bwb.ext_table"),
        "bwb.ext_table_calls": n("bwb.ext_table"),
        "bwb.hom_bundle_s": t("bwb.hom_bundle"),
        "bwb.bott_s": t("bwb.bott"),
        "bwb.bott_calls": n("bwb.bott"),
        "bwb.parse_s": t("bwb.parse"),
        "bwb.ext_hyperplane_calls": ext_h,
        "bwb.undecided_ratio": tracer.undecided / ext_h if ext_h else 0.0,
    }
