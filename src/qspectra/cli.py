"""Command-line surface: variety registry, spectrum reports, collection
checks, and the cross-validation selftest.

Exit codes: 0 success, 1 usage or input error, 2 internal invariant
violation (an AssertionError, or any other unexpected exception, escaping
the library).  JSON output is byte-identical across runs: it carries tool
and version strings but no timestamps or timings; wall-clock numbers go
to stderr only.
"""

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from functools import cache

from . import __version__
from .algebra import mult_matrix, qh_ig2, qh_projective, validate_algebra
from .bwb import (BundleExpr, check_collection, check_collection_hyperplane,
                  ext_table)
from .chevalley import grassmann_divisor_matrix, ig2_divisor_matrix
from .exactlin import charpoly, poly_str
from .lefschetz import (builtin_collection, conjecture_numerology,
                        load_collection)
from .schur import qh_grassmannian
from .spectrum import kappa_split, point_count, quantum_spectrum_report
from .varieties import REGISTRY


def _yes(flag):
    return "yes" if flag else "no"


def _count(value):
    if isinstance(value, Fraction) and value.denominator != 1:
        return "%d/%d" % (value.numerator, value.denominator)
    return "%d" % value


def _report_markdown(r):
    zp = r.zero_part
    rows = [
        ("algebra dimension", "%d" % r.dim_total),
        ("Fano index m", "%d" % r.fano_index),
        ("anticanonical charpoly", poly_str(r.kappa_charpoly)),
        ("invertible fiber: length", "%d" % r.dim_nonzero_part),
        ("invertible fiber: reduced points", "%d" % r.nonzero_point_count),
        ("invertible fiber: semisimple", _yes(r.nonzero_semisimple)),
        ("orbits by length (k)", _count(r.orbit_count_by_length)),
        ("orbits by points", _count(r.orbit_count_by_points)),
        ("charpoly rotation-invariant", _yes(r.charpoly_rotation_invariant)),
        ("zero fiber: length", "%d" % r.dim_zero_part),
        ("zero fiber: points", "%d" % zp["geometric_point_count"]),
        ("zero fiber: single point", _yes(zp["is_single_point"])),
        ("zero fiber: Hilbert function",
         "(%s)" % ", ".join(str(h) for h in zp["hilbert_function"])),
        ("zero fiber: socle dimension", "%d" % zp["socle_dim"]),
    ]
    lines = ["# quantum spectrum: %s" % r.name, "",
             "| quantity | value |", "| --- | --- |"]
    lines += ["| %s | %s |" % row for row in rows]
    return "\n".join(lines)


def _registry_listing():
    return "registered ids: " + ", ".join(REGISTRY)


def cmd_report(args):
    desc = REGISTRY.get(args.id)
    if desc is None:
        print("unknown variety id %r" % args.id, file=sys.stderr)
        print(_registry_listing(), file=sys.stderr)
        return 1
    t0 = time.monotonic()
    report = quantum_spectrum_report(desc.provider())
    elapsed = time.monotonic() - t0
    print(_report_markdown(report))
    if args.json:
        doc = {"meta": {"tool": "qspectra", "version": __version__},
               "spectrum": report.to_dict()}
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print("computed in %.3f s" % elapsed, file=sys.stderr)
    return 0


def _numerology_lines(verdict):
    lines = ["numerology vs spectrum of %s:" % verdict.variety]
    for name, ck in verdict.checks.items():
        lines.append("  [%s] %s: %s" % ("ok" if ck["ok"] else "differs",
                                        name, ck["explanation"]))
    return lines


def _bwb_lines(verdict, backend):
    n = len(verdict.objects)
    lines = ["exceptionality via %s backend: %d objects, %d ordered pairs"
             % (backend, n, n * (n - 1) // 2)]
    for f in verdict.failures:
        if f["kind"] == "exceptional":
            lines.append("  [fail] %s is not exceptional: %r"
                         % (f["object"], f["table"]))
        else:
            lines.append("  [fail] Ext(%s, %s) nonzero: %r"
                         % (f["source"], f["target"], f["table"]))
    for f in verdict.inconclusive:
        what = (f["object"] if f["kind"] == "exceptional"
                else "Ext(%s, %s)" % (f["source"], f["target"]))
        lines.append("  [undecided] %s: the vanishing criterion does not "
                     "determine this pair; exceptionality here rests on "
                     "the literature, not on this run" % what)
    if verdict.ok:
        lines.append("  all pairs pass")
    return lines


def cmd_check(args):
    try:
        coll = load_collection(args.file)
    except (OSError, RecursionError, ValueError) as e:
        print("cannot read collection %s: %s" % (args.file, e),
              file=sys.stderr)
        return 1
    desc = REGISTRY.get(coll.variety)
    if desc is None:
        print("collection names unknown variety %r" % coll.variety,
              file=sys.stderr)
        print(_registry_listing(), file=sys.stderr)
        return 1
    t0 = time.monotonic()
    A = desc.provider()
    report = quantum_spectrum_report(A)
    verdict = conjecture_numerology(report, coll)
    print("collection on %s: sigma = %r, starting block of %d"
          % (coll.variety, coll.support, len(coll.starting_block)))
    print("lengths: total %d, rectangular %d, residual %d"
          % (verdict.total_length, verdict.rect_length,
             verdict.residual_expected))
    for line in _numerology_lines(verdict):
        print(line)
    # shape disagreement is information about the collection, not an
    # error: a full collection need not be of the conjectured shape
    code = 0
    if args.bwb:
        backend = desc.backend
        if backend is None:
            print("warning: no cohomology backend for %r; numerology only"
                  % coll.variety, file=sys.stderr)
        else:
            bwb_verdict = (check_collection if backend == "grassmannian"
                           else check_collection_hyperplane)(coll)
            for line in _bwb_lines(bwb_verdict, backend):
                print(line)
            if not bwb_verdict.ok:
                code = 1
    print("checked in %.3f s" % (time.monotonic() - t0), file=sys.stderr)
    return code


def _require(ok, *reason):
    # an explicit check, unlike assert, survives python -O
    if not ok:
        raise AssertionError(*reason)


def _selftest_checks():
    """The cross-validation suite, as (module, description, thunk) rows.

    Every thunk either returns silently or raises AssertionError with a
    reason; each row reruns independent constructions against each other
    rather than repeating any single implementation.
    """
    checks = []

    def add(module, description):
        def wrap(fn):
            checks.append((module, description, fn))
            return fn
        return wrap

    @add("schur", "Pieri ring matches divisor reconstruction on G(2,5)")
    def _():
        from .chevalley import grassmannian_algebra
        A = qh_grassmannian(2, 5)
        B = grassmannian_algebra(2, 5)
        _require((A.rows, A.den) == (B.rows, B.den),
                 "structure constants differ")
        _require(A.anticanonical == B.anticanonical)

    @add("schur", "Pieri ring matches polynomial presentation on P4")
    def _():
        A = qh_grassmannian(1, 5)
        B = qh_projective(4)
        _require((A.rows, A.den) == (B.rows, B.den),
                 "structure constants differ")

    @add("schur", "Pieri ring matches the tableau ring on G(2,4)..G(3,6)")
    def _():
        from .schur import _qh_grassmannian_pairwise
        for k, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
            A = qh_grassmannian(k, n)
            B = _qh_grassmannian_pairwise(k, n)
            for name in ("rows", "den", "unit", "anticanonical", "degrees",
                         "basis_labels"):
                _require(getattr(A, name) == getattr(B, name),
                         "G(%d,%d) %s" % (k, n, name))

    @add("algebra", "every registry provider validates")
    def _():
        for desc in REGISTRY.values():
            violations = validate_algebra(desc.provider())
            _require(not violations, "%s: %s" % (desc.id,
                                                 "; ".join(violations)))

    @add("algebra", "isotropic divisor operator matches the presentation ring")
    def _():
        for n in (2, 3, 4, 5):
            A = qh_ig2(n)
            m = A.fano_index
            sigma1 = tuple(c / m for c in A.anticanonical)
            D, lengths = ig2_divisor_matrix(n)
            got = charpoly(mult_matrix(A, sigma1))
            want = charpoly(D)
            _require(got.coeffs == want.coeffs, "IG(2,%d) charpoly" % (2 * n))
            # the Schubert cells' degrees reproduce the graded dimensions
            _require(sorted(A.degrees) == sorted(l % m for l in lengths),
                     "IG(2,%d) graded dimensions" % (2 * n))

    @add("algebra", "grassmannian divisor operator matches the Pieri ring")
    def _():
        for k, n in ((2, 4), (2, 5), (3, 6)):
            A = qh_grassmannian(k, n)
            sigma1 = tuple(c / n for c in A.anticanonical)
            D, _lengths = grassmann_divisor_matrix(k, n)
            # both routes order the Schubert basis by weight, then by
            # partition, so the operators agree entry by entry
            _require(mult_matrix(A, sigma1) == D, "G(%d,%d) operator" % (k, n))

    @add("exactlin", "Cayley-Hamilton for anticanonical operators")
    def _():
        for vid in ("P5", "G(2,4)", "IG(2,6)"):
            A = REGISTRY[vid].provider()
            M = mult_matrix(A, A.anticanonical)
            p = charpoly(M)
            _require(p(M).is_zero(), vid)

    @add("spectrum", "every registry charpoly is rotation-invariant and "
         "the report's fibers match the full split")
    def _():
        for desc in REGISTRY.values():
            A = desc.provider()
            r = quantum_spectrum_report(A)
            _require(r.charpoly_rotation_invariant, desc.id)
            zero, nonzero = kappa_split(A)
            _require((r.dim_zero_part, r.dim_nonzero_part,
                      r.nonzero_point_count)
                     == (zero.dim, nonzero.dim, point_count(nonzero)),
                     desc.id)

    @add("spectrum", "graded charpoly matches the dense Hessenberg charpoly "
         "of the full operator on every registry ring")
    def _():
        for desc in REGISTRY.values():
            A = desc.provider()
            r = quantum_spectrum_report(A)
            dense = charpoly(mult_matrix(A, A.anticanonical))
            _require(r.kappa_charpoly == dense, desc.id)

    @add("bwb", "Serre duality on seeded random pairs")
    def _():
        rng = random.Random(20240)
        for k, n in ((2, 4), (2, 5)):
            top = k * (n - k)
            for _ in range(40):
                w = tuple(sorted((rng.randint(-2, 2) for _ in range(k)),
                                 reverse=True))
                w += tuple(sorted((rng.randint(-2, 2) for _ in range(n - k)),
                                  reverse=True))
                E = BundleExpr(k, n, {w: 1})
                F = BundleExpr.structure_sheaf(k, n).twist(rng.randint(-2, 2))
                lhs = ext_table(E, F)
                rhs = ext_table(F, E.twist(-n))
                _require(lhs == {top - i: d for i, d in rhs.items()}, (k, n))

    @add("bwb", "builtin collections are exceptional")
    def _():
        for name, arg in (("beilinson", 3), ("kapranov_g24", None),
                          ("minimal_g24", None)):
            c = (builtin_collection(name, arg) if arg is not None
                 else builtin_collection(name))
            v = check_collection(c)
            _require(v.ok, "%s: %r" % (name, v.failures))
        v = check_collection_hyperplane(builtin_collection("kuznetsov_ig2", 3))
        _require(v.ok and not v.inconclusive, repr(v))

    @add("lefschetz", "builtin numerology pairs agree with the spectra")
    def _():
        colls = [builtin_collection("beilinson", n) for n in range(1, 11)]
        colls.append(builtin_collection("minimal_g24"))
        colls += [builtin_collection("kuznetsov_ig2", n) for n in (3, 4, 5)]
        for coll in colls:
            r = quantum_spectrum_report(REGISTRY[coll.variety].provider())
            v = conjecture_numerology(r, coll)
            _require(v.ok, "%s: %r" % (coll.variety,
                                       {k: c for k, c in v.checks.items()
                                        if not c["ok"]}))

    return checks


def cmd_selftest(args):
    checks = _selftest_checks()
    if args.filter:
        checks = [row for row in checks if args.filter in row[0]]
        if not checks:
            print("no selftest entries match filter %r" % args.filter,
                  file=sys.stderr)
            return 1
    failed = 0
    for module, description, fn in checks:
        t0 = time.monotonic()
        try:
            fn()
        except Exception as e:
            failed += 1
            status = "fail"
            detail = "  (%s: %s)" % (type(e).__name__, e)
        else:
            status = "pass"
            detail = ""
        print("[%s] %s: %s%s" % (status, module, description, detail))
        print("  %.3f s" % (time.monotonic() - t0), file=sys.stderr)
    print("selftest: %d passed, %d failed" % (len(checks) - failed, failed))
    return 2 if failed else 0


class _Parser(argparse.ArgumentParser):
    # usage problems are exit 1; argparse's default of 2 is reserved for
    # invariant violations
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


@cache
def _build_parser():
    """The argument parser, built once per process, on first use."""
    parser = _Parser(prog="qspectra", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("report", help="quantum spectrum of a registered "
                       "variety")
    p.add_argument("id", help="variety id, e.g. P3, G(2,4), IG(2,6), A3")
    p.add_argument("--json", metavar="OUT",
                   help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("check", help="check a collection file against the "
                       "spectrum numerology")
    p.add_argument("file", help="collection JSON file")
    p.add_argument("--bwb", action="store_true",
                   help="also verify exceptionality cohomologically")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("selftest", help="run the cross-validation suite")
    p.add_argument("--filter", metavar="MODULE",
                   help="only run checks whose module tag contains this")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AssertionError as e:
        print("internal invariant violation: %s" % e, file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except Exception as e:
        print("internal error: %s: %s" % (type(e).__name__, e),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
