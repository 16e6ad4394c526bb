"""Acceptance gate: one test per release criterion, exact arithmetic,
zero tolerance, with the stated wall-clock budgets (criteria 1, 2, 5 and 6)
enforced."""

import random
import time
from fractions import Fraction

from qspectra.algebra import (PolyPresentation, from_presentation,
                              jacobi_ring, mult_matrix, qh_ig2,
                              qh_projective, validate_algebra)
from qspectra.bwb import BundleExpr, bott, check_collection, ext_table
from qspectra.cli import REGISTRY
from qspectra.exactlin import (Matrix, Solver, charpoly, kernel_basis,
                               span_basis, split_at_zero)
from qspectra.lefschetz import (LefschetzCollection, builtin_collection,
                                conjecture_numerology, lengths)
from qspectra.schur import qh_grassmannian
from qspectra.spectrum import (compare_with_jacobi, kappa_split,
                               local_invariants, nilradical,
                               quantum_spectrum_report)


def _basis_vector(A, i):
    """The coordinates of b_i in A's basis."""
    return tuple(int(j == i) for j in range(A.dim))


def _announce(i, text):
    print("ACCEPTANCE %d PASS: %s" % (i, text))


def test_criterion_1_projective_spaces():
    t0 = time.monotonic()
    for n in range(1, 11):
        A = qh_projective(n)
        r = quantum_spectrum_report(A)
        assert r.dim_total == n + 1
        assert nilradical(A) == []
        assert r.dim_zero_part == 0
        assert r.orbit_length_integral and r.orbit_count_by_length == 1
        assert r.orbit_points_integral and r.orbit_count_by_points == 1
        assert r.charpoly_rotation_invariant
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, "took %.2f s" % elapsed
    _announce(1, "projective spaces n=1..10: reduced, one orbit, "
                 "empty zero fiber (%.2f s)" % elapsed)


def test_criterion_2_isotropic_grassmannians():
    t0 = time.monotonic()
    for n in (2, 3, 4, 5):
        A = qh_ig2(n)
        r = quantum_spectrum_report(A)
        assert r.dim_total == 2 * n * (n - 1)
        assert r.fano_index == 2 * n - 1
        assert r.dim_nonzero_part == (n - 1) * (2 * n - 1)
        assert r.nonzero_semisimple
        assert r.nonzero_point_count == (n - 1) * (2 * n - 1)
        assert r.orbit_length_integral and r.orbit_count_by_length == n - 1
        assert r.orbit_points_integral and r.orbit_count_by_points == n - 1
        zp = r.zero_part
        assert zp["dim"] == n - 1
        assert zp["is_single_point"]
        assert zp["hilbert_function"] == (1,) * (n - 1)
        assert zp["socle_dim"] == 1
        zero, _nonzero = kappa_split(A)
        cmp = compare_with_jacobi(zero, "A%d" % (n - 1))
        assert cmp["match"], cmp
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, "took %.2f s" % elapsed
    _announce(2, "IG(2,2n) n=2..5: (n-1)(2n-1) reduced points in n-1 "
                 "orbits, zero fiber a chain point matching A_{n-1} "
                 "(%.2f s)" % elapsed)


def test_criterion_3_numerology_pairs():
    pairs = [(qh_projective(n), builtin_collection("beilinson", n))
             for n in range(1, 11)]
    pairs.append((qh_grassmannian(2, 4), builtin_collection("minimal_g24")))
    pairs += [(qh_ig2(n), builtin_collection("kuznetsov_ig2", n))
              for n in (3, 4, 5)]
    for A, coll in pairs:
        r = quantum_spectrum_report(A)
        v = conjecture_numerology(r, coll)
        assert v.checks["smallest_block_vs_orbits"]["ok"], coll.variety
        assert v.checks["residual_vs_zero_fiber"]["ok"], coll.variety
        assert v.ok, (coll.variety, v.checks)
        assert coll.support[-1] == r.orbit_count_by_length
        assert v.residual_expected == r.dim_zero_part
    _announce(3, "support numerology matches every builtin pair "
                 "(14 collections)")


def test_criterion_4_g24_presentation_cross_validation():
    A = qh_grassmannian(2, 4)
    pa = charpoly(mult_matrix(A, A.anticanonical))
    # independent route: the two-variable presentation with relations
    # h_3 and h_4 + 1, h_j the inverted Chern series of the rank-2 factor
    h3 = {(3, 0): 1, (1, 1): -2}
    h4q = {(4, 0): 1, (2, 1): -3, (0, 2): 1, (0, 0): 1}
    B = from_presentation(PolyPresentation(
        name="G(2,4) by presentation",
        variables=(("s1", 1), ("s2", 2)),
        relations=(h3, h4q),
        fano_index=4,
        anticanonical={(1, 0): 4},
        dim_X=4))
    assert B.dim == 6
    pb = charpoly(mult_matrix(B, B.anticanonical))
    assert pa.coeffs == pb.coeffs
    valuation, cofactor = split_at_zero(pa)
    assert valuation == 2
    assert cofactor.degree == 4
    assert all(c == 0 for i, c in enumerate(cofactor.coeffs) if i % 4 != 0)
    _announce(4, "G(2,4) Pieri ring and presentation agree: charpoly "
                 "x^6 - 1024 x^2, valuation 2, cofactor on degrees 0 mod 4")


def test_criterion_5_g25_semisimple():
    t0 = time.monotonic()
    A = qh_grassmannian(2, 5)
    r = quantum_spectrum_report(A)
    assert r.dim_total == 10
    assert r.dim_zero_part == 0
    assert r.nonzero_semisimple and nilradical(A) == []
    assert r.orbit_length_integral and r.orbit_count_by_length == 2
    assert r.orbit_points_integral and r.orbit_count_by_points == 2
    rect = LefschetzCollection("G(2,5)", ("O", "U*"), (2,) * 5,
                               fano_index=5)
    v = conjecture_numerology(r, rect)
    assert v.ok and v.residual_expected == 0
    assert lengths(rect) == {"total": 10, "rectangular": 10,
                             "residual_expected": 0}
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, "took %.2f s" % elapsed
    _announce(5, "G(2,5) semisimple of dimension 10, two orbits, "
                 "rectangular 2 x 5 shape consistent (%.2f s)" % elapsed)


def test_criterion_6_bwb_suite():
    t0 = time.monotonic()
    for n in range(1, 7):
        assert check_collection(builtin_collection("beilinson", n)).ok
    assert check_collection(builtin_collection("kapranov_g24")).ok
    assert check_collection(builtin_collection("minimal_g24")).ok
    rng = random.Random(1809)
    for k, n in ((2, 4), (2, 5), (3, 6)):
        for _ in range(10 ** 4):
            w = tuple(rng.randint(-9, 9) for _ in range(n))
            table = bott(w, k, n)
            assert len(table) <= 1
            assert all(d > 0 for d in table.values())
    pair_count = 0
    while pair_count < 10 ** 3:
        for k, n in ((2, 4), (2, 5), (3, 6)):
            w = tuple(sorted((rng.randint(-2, 2) for _ in range(k)),
                             reverse=True))
            w += tuple(sorted((rng.randint(-2, 2) for _ in range(n - k)),
                              reverse=True))
            E = BundleExpr(k, n, {w: 1})
            F = BundleExpr.structure_sheaf(k, n).twist(rng.randint(-3, 3))
            top = k * (n - k)
            lhs = ext_table(E, F)
            rhs = ext_table(F, E.twist(-n))
            assert lhs == {top - i: d for i, d in rhs.items()}, (k, n, w)
            pair_count += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, "took %.2f s" % elapsed
    _announce(6, "collections exceptional, 3x10^4 single-degree tables, "
                 "10^3 Serre-dual pairs (%.2f s)" % elapsed)


def test_criterion_7_property_suites():
    rng = random.Random(77)
    for _ in range(25):
        d = rng.randint(1, 8)
        M = Matrix(tuple(tuple(Fraction(rng.randint(-5, 5))
                               for _ in range(d)) for _ in range(d)))
        p = charpoly(M)
        assert p(M).is_zero()
    for k, n in ((2, 4), (2, 5), (2, 6), (3, 6)):
        A = qh_grassmannian(k, n)
        for i in range(A.dim):
            for j in range(A.dim):
                assert all(c >= 0 for c in A.structure[i][j]), (k, n, i, j)
    for desc in REGISTRY.values():
        A = desc.provider()
        report = validate_algebra(A)
        assert not report, (desc.id, report)
        # rebuild the zero-fiber idempotent from scratch and square it:
        # A = ker M^a + im M^a (Fitting), a the order of p at zero, and e0
        # is the ker component of the unit
        M = mult_matrix(A, A.anticanonical)
        a, _g = split_at_zero(charpoly(M))
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in M.data]
        cols = [_basis_vector(A, i) for i in range(A.dim)]
        for _ in range(a):
            cols = [tuple(sum((x * v[j] for j, x in row), Fraction(0))
                          for row in rows) for v in cols]
        kernel = kernel_basis(list(zip(*cols)), len(cols))
        image = span_basis(cols)
        unit = Solver(Matrix.from_columns(kernel + image)).solve(A.unit)
        e0 = tuple(sum((c * v[i] for c, v in zip(unit, kernel)), Fraction(0))
                   for i in range(A.dim))
        assert A.product(e0, e0) == e0, desc.id
        kappa_split(A)
    _announce(7, "Cayley-Hamilton, structure-constant nonnegativity, "
                 "registry validation, idempotent squares on all %d ids"
                 % len(REGISTRY))


def test_criterion_8_jacobi_rings():
    for r in range(1, 9):
        A = jacobi_ring("A%d" % r)
        assert A.dim == r
        inv = local_invariants(A)
        assert inv["geometric_point_count"] == 1
        assert inv["socle_dim"] == 1
        # hand-enumerable chain basis 1, x, ..., x^(r-1)
        assert inv["hilbert_function"] == (1,) * r
    for r in (4, 5, 6):
        A = jacobi_ring("D%d" % r)
        assert A.dim == r
        inv = local_invariants(A)
        assert inv["geometric_point_count"] == 1
        assert inv["socle_dim"] == 1
    assert local_invariants(jacobi_ring("D4"))["hilbert_function"] == (1, 2, 1)
    for r in (6, 7, 8):
        A = jacobi_ring("E%d" % r)
        assert A.dim == r
        inv = local_invariants(A)
        assert inv["geometric_point_count"] == 1
        assert inv["socle_dim"] == 1
    _announce(8, "Milnor numbers and socles for A1-A8, D4-D6, E6-E8")
