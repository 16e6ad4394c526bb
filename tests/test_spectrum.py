"""Spectrum decomposition tests: splits, orbits, local data, reports."""

import hashlib
import json
from fractions import Fraction

import pytest

import qspectra.exactlin
import qspectra.spectrum
from qspectra.algebra import (
    FiniteCommAlgebra,
    PolyPresentation,
    from_presentation,
    integer_cells,
    jacobi_ring,
    mult_matrix,
    qh_ig2,
    qh_projective,
    validate_algebra,
)
from qspectra.cli import REGISTRY, main
from qspectra.exactlin import (
    Matrix,
    Poly,
    charpoly,
    clear_denominators,
    kernel_basis,
    rank,
    span_basis,
    split_at_zero,
)
from qspectra.schur import qh_grassmannian
from qspectra.spectrum import (
    compare_with_jacobi,
    kappa_split,
    local_invariants,
    nilradical,
    orbit_analysis,
    point_count,
    quantum_spectrum_report,
)

from conftest import identity


def _basis_vector(A, i):
    """The coordinates of b_i in A's basis."""
    return tuple(int(j == i) for j in range(A.dim))


def dual_numbers():
    return from_presentation(PolyPresentation(
        name="Q[x]/x^2", variables=(("x", 1),), relations=({(2,): 1},),
        fano_index=1, anticanonical=None, dim_X=0))


def trace_gram(A):
    """den^2 times the whole trace form, read from every cell."""
    tau = [sum(c for j, cell in enumerate(row) for k, c in cell if k == j)
           for row in A.rows]
    return Matrix([[sum(c * tau[l] for l, c in cell) for cell in row]
                   for row in A.rows])


PROVIDERS = [
    lambda: qh_projective(1),
    lambda: qh_projective(4),
    lambda: qh_grassmannian(2, 4),
    lambda: qh_grassmannian(2, 5),
    lambda: qh_ig2(2),
    lambda: qh_ig2(3),
    lambda: qh_ig2(4),
    lambda: jacobi_ring("A3"),
    lambda: jacobi_ring("D4"),
]


# --- nilradical and point counts ------------------------------------------

def test_nilradical_of_dual_numbers():
    A = dual_numbers()
    assert A.basis_labels == ("1", "x")
    assert nilradical(A) == [(0, 1)]


@pytest.mark.parametrize("n", [1, 2, 5])
def test_projective_space_is_reduced(n):
    assert nilradical(qh_projective(n)) == []
    assert point_count(qh_projective(n)) == n + 1


@pytest.mark.parametrize("r", [2, 4, 7])
def test_jacobi_radical_has_codimension_one(r):
    A = jacobi_ring("A%d" % r)
    N = nilradical(A)
    assert len(N) == r - 1
    assert point_count(A) == 1


@pytest.mark.parametrize("make", PROVIDERS)
def test_nilradical_vectors_are_nilpotent(make):
    A = make()
    N = nilradical(A)
    for v in N:
        w = v
        e = 1
        while e < A.dim:
            w = A.product(w, w)
            e *= 2
        assert all(c == 0 for c in w)
    # trace form is nondegenerate exactly on the reduced quotient
    assert rank(trace_gram(A)) == A.dim - len(N)


_POINT_COUNT_RINGS = (
    [pytest.param(lambda d=d: d.provider(), id=vid)
     for vid, d in REGISTRY.items()]
    + [pytest.param(lambda k=k, n=n: qh_grassmannian(k, n),
                    id="G(%d,%d)" % (k, n))
       for k, n in ((3, 7), (4, 8))]
    + [pytest.param(lambda n=n: qh_ig2(n), id="IG(2,%d)" % (2 * n))
       for n in (6, 8)])


@pytest.mark.parametrize("make", _POINT_COUNT_RINGS)
def test_point_count_is_the_rank_of_the_trace_form(make):
    # the blocks' ranks against the nilradical's length by rank-nullity,
    # and against the whole form read from every cell
    A = make()
    assert point_count(A) == A.dim - len(nilradical(A))
    assert point_count(A) == rank(trace_gram(A))


def test_point_count_of_the_stalled_table(stalled_radical_ring):
    A = stalled_radical_ring
    assert point_count(A) == A.dim - len(nilradical(A)) == 1


# --- kappa split -----------------------------------------------------------

def test_split_projective_space_is_all_invertible():
    A = qh_projective(3)
    z, nz = kappa_split(A)
    assert (z.dim, nz.dim) == (0, 4)
    assert nz is A


def test_split_g24_dimensions_match_valuation_oracle():
    A = qh_grassmannian(2, 4)
    a, g = split_at_zero(charpoly(mult_matrix(A, A.anticanonical)))
    assert a == 2
    z, nz = kappa_split(A)
    assert (z.dim, nz.dim) == (2, 4)
    assert g.coeffs[0] != 0


def test_split_ig6_dimensions():
    z, nz = kappa_split(qh_ig2(3))
    assert (z.dim, nz.dim) == (2, 10)


def test_split_jacobi_is_all_nilpotent():
    A = jacobi_ring("A4")
    z, nz = kappa_split(A)
    assert z is A
    assert nz.dim == 0


@pytest.mark.parametrize("make", PROVIDERS)
def test_split_parts_are_valid_ideal_algebras(make):
    A = make()
    z, nz = kappa_split(A)
    assert z.dim + nz.dim == A.dim
    for part in (z, nz):
        assert not validate_algebra(part)
        if part.dim and part is not A:
            unit_sq = part.product(part.unit, part.unit)
            assert unit_sq == part.unit
    # anticanonical stays nilpotent on one side, invertible on the other
    if z.dim:
        pz = charpoly(mult_matrix(z, z.anticanonical))
        assert pz.coeffs[:z.dim] == (Fraction(0),) * z.dim
    if nz.dim:
        pn = charpoly(mult_matrix(nz, nz.anticanonical))
        assert pn.coeffs[0] != 0
    assert point_count(A) == point_count(z) + point_count(nz)


def test_idempotent_is_exact():
    A = qh_ig2(4)
    z, nz = kappa_split(A)
    # the embedded unit of the zero fiber, pushed back through mult by itself
    e0_sq = z.product(z.unit, z.unit)
    assert e0_sq == z.unit
    assert nilradical(nz) == []


# --- orbit analysis --------------------------------------------------------

def _fiber_charpoly(nz):
    """kappa's charpoly on the invertible fiber, from the dense operator."""
    return charpoly(mult_matrix(nz, nz.anticanonical))


def _orbits(nz, m):
    """orbit_analysis on the counts of the invertible fiber nz."""
    return orbit_analysis(nz.dim, point_count(nz), m, _fiber_charpoly(nz))


def test_orbit_analysis_projective():
    for n in (2, 4):
        A = qh_projective(n)
        _, nz = kappa_split(A)
        g = _fiber_charpoly(nz)
        out = orbit_analysis(nz.dim, point_count(nz), n + 1, g)
        assert out["orbit_count_by_length"] == 1
        assert out["orbit_length_integral"]
        assert out["orbit_count_by_points"] == 1
        assert out["orbit_points_integral"]
        assert out["charpoly_rotation_invariant"]
        want = [-Fraction((n + 1) ** (n + 1))] + [0] * n + [1]
        assert list(g.coeffs) == want


def test_orbit_analysis_ig6():
    _, nz = kappa_split(qh_ig2(3))
    out = _orbits(nz, 5)
    assert out["orbit_count_by_length"] == 2
    assert out["orbit_count_by_points"] == 2
    assert out["charpoly_rotation_invariant"]


def test_orbit_analysis_g24():
    _, nz = kappa_split(qh_grassmannian(2, 4))
    out = _orbits(nz, 4)
    assert out["orbit_count_by_length"] == 1
    assert out["orbit_count_by_points"] == 1


def test_orbit_analysis_rejects_bad_m():
    _, nz = kappa_split(qh_projective(1))
    with pytest.raises(ValueError):
        _orbits(nz, 0)


def test_orbit_analysis_reports_non_integrality():
    _, nz = kappa_split(qh_projective(2))
    out = _orbits(nz, 2)
    assert not out["orbit_length_integral"]
    assert out["orbit_count_by_length"] == Fraction(3, 2)


@pytest.mark.parametrize("make", PROVIDERS)
def test_rotation_invariance_holds_for_graded_algebras(make):
    A = make()
    _, nz = kappa_split(A)
    assert _orbits(nz, A.fano_index)["charpoly_rotation_invariant"]


# --- local invariants ------------------------------------------------------

def test_local_invariants_empty_fiber():
    z, _ = kappa_split(qh_projective(2))
    assert local_invariants(z) == {
        "dim": 0, "geometric_point_count": 0, "is_single_point": False,
        "hilbert_function": (), "socle_dim": 0}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_invariants_ig(n):
    z, _ = kappa_split(qh_ig2(n))
    out = local_invariants(z)
    assert out["geometric_point_count"] == 1
    assert out["is_single_point"]
    assert out["hilbert_function"] == (1,) * (n - 1)
    assert out["socle_dim"] == 1


def test_local_invariants_g24_fiber_is_reduced():
    z, _ = kappa_split(qh_grassmannian(2, 4))
    out = local_invariants(z)
    assert out["geometric_point_count"] == 2
    assert not out["is_single_point"]
    assert out["hilbert_function"] == (2,)


def _local_invariants_by_every_vector(A):
    """local_invariants by the route that reads no generators: N N^k
    spanned with every vector of N, and the socle as the kernel of
    mult_matrix(A, v) stacked for every v in N, all over Fractions."""
    N = nilradical(A)
    pts = A.dim - len(N)
    hilbert = [pts] if A.dim else []
    current = N
    while current:
        nxt = span_basis([A.product(v, w) for v in N for w in current])
        assert len(nxt) < len(current)
        hilbert.append(len(current) - len(nxt))
        current = nxt
    rows = [r for v in N for r in mult_matrix(A, v).data]
    socle = len(kernel_basis(rows, A.dim))
    return {"dim": A.dim, "geometric_point_count": pts,
            "is_single_point": pts == 1, "hilbert_function": tuple(hilbert),
            "socle_dim": socle}


_ORACLE_RINGS = (
    [pytest.param(lambda d=d: kappa_split(d.provider())[0], id=vid)
     for vid, d in REGISTRY.items()]
    + [pytest.param(lambda n=n: kappa_split(qh_ig2(n))[0],
                    id="IG(2,%d)" % (2 * n)) for n in (6, 7, 8)]
    + [pytest.param(lambda label=label: jacobi_ring(label),
                    id="jacobi-" + label)
       for label in "A1 A2 A3 A4 A5 A6 A7 A8 D4 D5 D6 D7 E6 E7 E8".split()])


@pytest.mark.parametrize("make", _ORACLE_RINGS)
def test_local_invariants_match_the_route_through_every_vector(make):
    A = make()
    assert local_invariants(A) == _local_invariants_by_every_vector(A)


@pytest.mark.parametrize("label, calls", [("A8", 57), ("E8", 62)])
def test_local_invariants_multiply_by_generators_only(monkeypatch, label,
                                                      calls):
    # the route through every vector of N makes 252 and 168 calls; this
    # one forms N^2 from the pairs i <= j, then G N^k and G's operators,
    # with |G| = 1 for A8 = Q[x]/x^8 and |G| = 2 for E8 = Q[x, y]/(x^2, y^4)
    A = jacobi_ring(label)
    seen = []
    original = FiniteCommAlgebra.sparse_product

    def counted(self, u, v):
        seen.append(None)
        return original(self, u, v)

    monkeypatch.setattr(FiniteCommAlgebra, "sparse_product", counted)
    local_invariants(A)
    assert len(seen) == calls


# --- Jacobi comparison -----------------------------------------------------

def test_local_invariants_refuse_a_radical_that_is_not_nilpotent(
        stalled_radical_ring):
    A = stalled_radical_ring
    assert nilradical(A) == [(1, -1)]
    assert A.product((1, -1), (1, -1)) == (0, 2)
    with pytest.raises(AssertionError, match="radical filtration stalls "
                       "at dimension 1"):
        local_invariants(A)
    with pytest.raises(AssertionError, match="radical filtration stalls "
                       "at dimension 1"):
        quantum_spectrum_report(A)


def test_compare_with_jacobi_ig8():
    z, _ = kappa_split(qh_ig2(4))
    assert compare_with_jacobi(z, "A3")["match"]


def test_compare_with_jacobi_reflexive():
    assert compare_with_jacobi(jacobi_ring("A2"), "A2")["match"]


def test_compare_with_jacobi_dimension_mismatch():
    out = compare_with_jacobi(jacobi_ring("A3"), "A2")
    assert not out["match"]
    assert not out["checks"]["dim"]["match"]
    assert out["checks"]["dim"] == {"value": 3, "expected": 2, "match": False}


# --- semisimplicity equivalences ------------------------------------------

def sylvester(p, q):
    """Sylvester matrix of p and q; its rank is deg p + deg q minus the
    degree of gcd(p, q)."""
    m, n = p.degree, q.degree
    rows = [[0] * i + list(reversed(f.coeffs)) + [0] * (k - 1 - i)
            for f, k in ((p, n), (q, m)) for i in range(k)]
    return Matrix(rows, cols=m + n)


def distinct_root_count(p):
    """deg p - deg gcd(p, p'), the degree of the squarefree part of p."""
    derivative = Poly([i * c for i, c in enumerate(p.coeffs)][1:])
    return rank(sylvester(p, derivative)) - derivative.degree


def minimal_polynomial_degree(M):
    """dim span{I, M, ..., M^(n-1)}."""
    powers, P = [], identity(M.rows)
    for _ in range(M.rows):
        powers.append([x for row in P.data for x in row])
        P = P * M
    return rank(Matrix(powers))


@pytest.mark.parametrize("make", PROVIDERS[:6])
def test_semisimple_iff_squarefree_minimal_polynomials(make):
    # squarefree charpoly is too strong (the unit always has (x-1)^dim);
    # the right certificate is a squarefree minimal polynomial: its degree
    # is then the number of distinct roots of the charpoly
    A = make()
    ss = nilradical(A) == []
    assert ss == (point_count(A) == A.dim)
    diagonalizable = True
    for i in range(A.dim):
        M = mult_matrix(A, _basis_vector(A, i))
        if minimal_polynomial_degree(M) \
                != distinct_root_count(charpoly(M)):
            diagonalizable = False
            break
    assert ss == diagonalizable


# --- full reports ----------------------------------------------------------

@pytest.mark.parametrize("vid", ["IG(2,6)", "D5"])
def test_report_fields_are_the_analyses_own(vid):
    A = REGISTRY[vid].provider()
    r = quantum_spectrum_report(A)
    A_zero, A_nonzero = kappa_split(A)
    orbits = orbit_analysis(A_nonzero.dim, point_count(A_nonzero),
                            A.fano_index, split_at_zero(r.kappa_charpoly)[1])
    own = {"name", "fano_index", "dim_total", "kappa_charpoly",
           "dim_zero_part", "dim_nonzero_part", "zero_part"}
    assert not own & set(orbits)
    assert set(r.__slots__) == own | set(orbits)
    assert {key: getattr(r, key) for key in orbits} == orbits
    assert r.zero_part == local_invariants(A_zero)


def test_report_projective():
    r = quantum_spectrum_report(qh_projective(3))
    assert r.dim_total == 4
    assert r.dim_zero_part == 0
    assert r.nonzero_semisimple
    assert r.orbit_count_by_length == 1
    assert r.zero_part["dim"] == 0


def test_report_ig6():
    r = quantum_spectrum_report(qh_ig2(3))
    assert r.dim_total == 12
    assert r.dim_zero_part == 2
    assert r.nonzero_point_count == 10
    assert r.orbit_count_by_length == 2
    assert r.orbit_count_by_points == 2
    assert r.zero_part["is_single_point"]
    assert r.zero_part["hilbert_function"] == (1, 1)


def test_report_g25():
    r = quantum_spectrum_report(qh_grassmannian(2, 5))
    assert r.dim_total == 10
    assert r.dim_zero_part == 0
    assert r.nonzero_semisimple
    assert r.orbit_count_by_length == 2


def test_report_serializes_deterministically():
    r = quantum_spectrum_report(qh_ig2(2))
    d = r.to_dict()
    assert d["kappa_charpoly"].startswith("x^4")
    once = json.dumps(d, sort_keys=True)
    again = json.dumps(quantum_spectrum_report(qh_ig2(2)).to_dict(),
                       sort_keys=True)
    assert once == again


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_conjecture_consistency_ig(n):
    r = quantum_spectrum_report(qh_ig2(n))
    assert r.orbit_count_by_length == r.orbit_count_by_points == n - 1
    assert r.orbit_length_integral and r.orbit_points_integral
    assert r.nonzero_point_count == (n - 1) * (2 * n - 1)


def test_ig2_12_zero_fiber_is_one_point_of_length_five():
    # IG(2,12) is outside the registry; the paper predicts n - 1 = 5 orbits
    # and a zero fiber that is one point of length 5
    A = qh_ig2(6)
    assert not validate_algebra(A)
    r = quantum_spectrum_report(A)
    assert r.orbit_count_by_length == r.orbit_count_by_points == 5
    assert r.zero_part == {"dim": 5, "geometric_point_count": 1,
                           "is_single_point": True,
                           "hilbert_function": (1,) * 5, "socle_dim": 1}


# the item 2 catalogue of ROADMAP.md, outside the registry

@pytest.mark.parametrize("k,n,orbits", [(3, 7, 5), (3, 8, 7)])
def test_coprime_grassmannian_has_empty_zero_fiber(k, n, orbits):
    r = quantum_spectrum_report(qh_grassmannian(k, n))
    assert r.dim_zero_part == 0
    assert r.orbit_count_by_length == r.orbit_count_by_points == orbits
    assert r.orbit_length_integral and r.orbit_points_integral


def test_g48_zero_fiber_is_six_reduced_points():
    r = quantum_spectrum_report(qh_grassmannian(4, 8))
    assert r.orbit_count_by_length == r.orbit_count_by_points == 8
    assert r.zero_part == {"dim": 6, "geometric_point_count": 6,
                           "is_single_point": False,
                           "hilbert_function": (6,), "socle_dim": 6}


def test_ig2_14_zero_fiber_is_one_point_of_length_six():
    r = quantum_spectrum_report(qh_ig2(7))
    assert r.orbit_count_by_length == r.orbit_count_by_points == 6
    assert r.zero_part == {"dim": 6, "geometric_point_count": 1,
                           "is_single_point": True,
                           "hilbert_function": (1,) * 6, "socle_dim": 1}


def test_ig2_16_zero_fiber_is_one_point_of_length_seven():
    r = quantum_spectrum_report(qh_ig2(8))
    assert r.orbit_count_by_length == r.orbit_count_by_points == 7
    assert r.zero_part == {"dim": 7, "geometric_point_count": 1,
                           "is_single_point": True,
                           "hilbert_function": (1,) * 7, "socle_dim": 1}


@pytest.mark.parametrize("make", PROVIDERS)
def test_invertible_fiber_charpoly_is_the_cofactor_of_x_power(make):
    A = make()
    p = charpoly(mult_matrix(A, A.anticanonical))
    _, nz = kappa_split(A)
    assert charpoly(mult_matrix(nz, nz.anticanonical)) == split_at_zero(p)[1]


def _invariant_calls(monkeypatch, A):
    calls = {"charpoly": 0, "nilradical": 0, "point_count": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("charpoly", "nilradical", "point_count"):
        monkeypatch.setattr(qspectra.spectrum, name,
                            counted(name, getattr(qspectra.spectrum, name)))
    # one counter under both names, so a call through either counts once
    rank_counter = counted("rank", qspectra.exactlin.rank)
    monkeypatch.setattr(qspectra.exactlin, "rank", rank_counter)
    monkeypatch.setattr(qspectra.spectrum, "rank", rank_counter,
                        raising=False)
    quantum_spectrum_report(A)
    return calls


def test_report_computes_each_invariant_once(monkeypatch):
    calls = _invariant_calls(monkeypatch, qh_ig2(3))
    # one charpoly (the whole ring's, which also gives the invertible
    # fiber's), one nilradical (the zero fiber's) and one point count (the
    # whole ring's, from ranks alone)
    assert calls == {"charpoly": 1, "nilradical": 1, "point_count": 1,
                     "rank": 0}


def test_report_with_empty_zero_fiber_reuses_the_charpoly(monkeypatch):
    calls = _invariant_calls(monkeypatch, qh_projective(3))
    # the invertible fiber is the whole ring, so its charpoly is the ring's,
    # its points are counted from ranks, and the empty zero fiber has no
    # nilradical to compute
    assert calls == {"charpoly": 1, "nilradical": 0, "point_count": 1,
                     "rank": 0}


# --- rational tables against a plain Fraction reference --------------------

def _rescaled_table(A):
    """A's table in the basis 2 * b_0, 2 * b_1, b_2 / 2, 3 * b_(d-1) and
    the other b_i: with b_i' = s_i b_i, b_i' b_j' = sum of
    s_i s_j c_ijk / s_k b_k'.  The unit b_0 becomes b_0' / 2, and the
    anticanonical class m * b_1 becomes (m / 2) * b_1'."""
    s = [Fraction(1)] * A.dim
    s[0] = Fraction(2)
    s[1] = Fraction(2)
    s[2] = Fraction(1, 2)
    s[-1] = Fraction(3)
    table = [[tuple(s[i] * s[j] * c / s[k]
                    for k, c in enumerate(A.structure[i][j]))
              for j in range(A.dim)] for i in range(A.dim)]
    unit = tuple(c / x for c, x in zip(A.unit, s))
    kappa = tuple(c / x for c, x in zip(A.anticanonical, s))
    return table, unit, kappa


def _rescaled_ring(A):
    table, unit, kappa = _rescaled_table(A)
    cells, den = integer_cells([[dict(enumerate(cell)) for cell in row[i:]]
                                for i, row in enumerate(table)])
    return FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, cells=cells, den=den,
        unit=unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=kappa, dim_X=A.dim_X)


def _reference_product(table, u, v):
    n = len(u)
    return tuple(sum(u[i] * v[j] * table[i][j][k]
                     for i in range(n) for j in range(n))
                 for k in range(n))


def _reference_mult_matrix(table, v):
    n = len(v)
    return Matrix([[sum(v[l] * table[l][j][k] for l in range(n))
                    for j in range(n)] for k in range(n)])


def _reference_nilradical(table):
    n = len(table)
    tau = [sum(table[l][j][j] for j in range(n)) for l in range(n)]
    return kernel_basis([[sum(table[i][j][l] * tau[l] for l in range(n))
                          for j in range(n)] for i in range(n)], n)


@pytest.mark.parametrize("make", [
    lambda: qh_ig2(3),
    lambda: qh_grassmannian(2, 4),
    lambda: jacobi_ring("D5"),
])
def test_integer_kernels_match_fractions_on_rescaled_rings(make):
    A = make()
    table, unit, kappa = _rescaled_table(A)
    B = _rescaled_ring(A)
    assert B.den > 1
    n = B.dim
    u = tuple(Fraction(i + 1, i + 2) for i in range(n))
    w = tuple(Fraction(-3, 5) if i % 2 else Fraction(0) for i in range(n))
    vectors = [u, w, unit, kappa]
    for x in vectors:
        assert mult_matrix(B, x) == _reference_mult_matrix(table, x)
        for y in vectors:
            assert B.product(x, y) == _reference_product(table, x, y)
    for i in range(n):
        for j in range(n):
            assert B.product(_basis_vector(B, i), _basis_vector(B, j)) \
                == table[i][j]
    assert nilradical(B) == _reference_nilradical(table)
    for part in kappa_split(B):
        assert not validate_algebra(part)
    assert quantum_spectrum_report(B).to_dict() \
        == quantum_spectrum_report(A).to_dict()


def _table(B):
    return [[B.product(_basis_vector(B, i), _basis_vector(B, j))
             for j in range(B.dim)] for i in range(B.dim)]


def test_g24_zero_fiber_is_pinned_as_a_quotient():
    # e0 = (1 - s(2,2)) / 2, so (1 - e0) A holds 1 + s(2,2) and
    # s(1,1) + s(2): modulo it 1 = -s(2,2), and s(2)^2 = s(2,2) = -1
    z, _ = kappa_split(qh_grassmannian(2, 4))
    assert z.basis_labels == ("s(2)", "s(2,2)")
    assert z.degrees == (2, 0)
    assert z.unit == (0, -1)
    assert z.anticanonical == (0, 0)
    assert _table(z) == [[(0, 1), (-1, 0)], [(-1, 0), (0, -1)]]


def test_ig6_zero_fiber_is_pinned_as_a_quotient():
    # modulo (1 - e0) A the fiber is Q[c2] / c2^2, and c1 = kappa / 5 = 0
    z, _ = kappa_split(qh_ig2(3))
    assert z.basis_labels == ("1", "c2")
    assert z.degrees == (0, 2)
    assert z.unit == (1, 0)
    assert z.anticanonical == (0, 0)
    assert _table(z) == [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]


def test_report_never_builds_the_dense_table(monkeypatch):
    def refuse(self):
        raise AssertionError("dense structure view built")

    monkeypatch.setattr(FiniteCommAlgebra, "structure", property(refuse))
    for A in (qh_ig2(4), jacobi_ring("D5")):
        r = quantum_spectrum_report(A)
        assert r.dim_zero_part + r.dim_nonzero_part == A.dim


# --- the graded route against the dense operator ----------------------------

def _dense_fitting_ideals(A, p):
    """Reduced echelon bases of ker M^a and im M^a, for M the dense
    anticanonical operator and a the order of p at zero."""
    a, _g = split_at_zero(p)
    M = [[(j, x) for j, x in enumerate(row) if x]
         for row in mult_matrix(A, A.anticanonical).data]
    cols = [_basis_vector(A, i) for i in range(A.dim)]
    for _ in range(a):
        cols = [tuple(sum((x * v[j] for j, x in row), Fraction(0))
                      for row in M) for v in cols]
    return (span_basis(kernel_basis(list(zip(*cols)), len(cols))),
            span_basis(cols))


def _integer_rows(vectors):
    """Full-width reduced echelon vectors as _quotient's integer rows."""
    return [[(k, x) for k, x in enumerate(clear_denominators(v)[0]) if x]
            for v in vectors]


def _fitting_ring():
    """Q[x] / (x^3 - x^2) with kappa = x: kappa is nilpotent but not zero
    on the zero fiber Q[x] / x^2, so the split needs kappa^2."""
    return from_presentation(PolyPresentation(
        "T", (("x", 1),), ({(3,): 1, (2,): -1},), 1, {(1,): 1}))


def _fields(B):
    return (B.name, B.basis_labels, B.dim, B.rows, B.den, B.unit, B.degrees,
            B.fano_index, B.anticanonical, B.dim_X)


@pytest.mark.parametrize("make", PROVIDERS + [
    lambda: qh_grassmannian(3, 7),
    lambda: qh_grassmannian(3, 8),
    lambda: qh_ig2(6),
    lambda: _rescaled_ring(qh_ig2(3)),
    lambda: _rescaled_ring(qh_grassmannian(2, 4)),
    lambda: _rescaled_ring(jacobi_ring("D5")),
    _fitting_ring,
])
def test_graded_route_matches_the_dense_operator(make):
    A = make()
    p = charpoly(mult_matrix(A, A.anticanonical))
    cycle = qspectra.spectrum._KappaCycle(A)
    assert cycle.charpoly() == p
    assert span_basis(nilradical(A)) \
        == span_basis(kernel_basis(trace_gram(A).data, A.dim))
    # the split by kernel and image of a power of kappa, against the
    # quotients by ker M^a and im M^a of the dense operator
    kernel, image = _dense_fitting_ideals(A, p)
    zero, nonzero = kappa_split(A)
    if 0 < zero.dim < A.dim:
        assert _fields(zero) == _fields(qspectra.spectrum._quotient(
            A, "%s (zero fiber)" % A.name, _integer_rows(image)))
        assert _fields(nonzero) == _fields(qspectra.spectrum._quotient(
            A, "%s (invertible fiber)" % A.name, _integer_rows(kernel)))
    else:
        # one fiber is A itself, and M^a is 0 or invertible
        assert A in (zero, nonzero)
        assert len(kernel) == zero.dim


def test_fitting_ring_fibers_are_pinned():
    # kappa = x is nilpotent of index 2 on the zero fiber Q[x] / x^2, and
    # x^2 spans the invertible fiber Q, where kappa acts as 1
    z, n = kappa_split(_fitting_ring())
    assert z.basis_labels == ("1", "x")
    assert z.degrees == (0, 0)
    assert z.unit == (1, 0)
    assert z.anticanonical == (0, 1)
    assert _table(z) == [[(1, 0), (0, 1)], [(0, 1), (0, 0)]]
    assert n.basis_labels == ("x^2",)
    assert n.unit == (1,)
    assert n.anticanonical == (1,)
    assert _table(n) == [[(1,)]]


# --- the report's zero-fiber route against the full split -----------------

_SPLIT_ORACLE_RINGS = (
    [pytest.param(lambda d=d: d.provider(), id=vid)
     for vid, d in REGISTRY.items()]
    + [pytest.param(lambda n=n: qh_ig2(n), id="IG(2,%d)" % (2 * n))
       for n in (6, 8)]
    + [pytest.param(lambda k=k, n=n: qh_grassmannian(k, n),
                    id="G(%d,%d)" % (k, n))
       for k, n in ((3, 7), (3, 8), (4, 8), (3, 9))]
    + [pytest.param(_fitting_ring, id="fitting")])


def _split_oracle(A):
    """dim_zero_part, nonzero_point_count and zero_part from both fibers
    of the full split."""
    zero, nonzero = kappa_split(A)
    return zero.dim, point_count(nonzero), local_invariants(zero)


@pytest.mark.parametrize("make", _SPLIT_ORACLE_RINGS)
def test_report_reads_the_full_split(make):
    A = make()
    r = quantum_spectrum_report(A)
    assert (r.dim_zero_part, r.nonzero_point_count, r.zero_part) \
        == _split_oracle(A)
    assert r.dim_nonzero_part == A.dim - r.dim_zero_part


def test_report_reads_the_full_split_at_the_edges():
    # a = 0: the invertible fiber is all of P3; a = dim: E8 is all zero
    # fiber; the Fitting ring needs kappa^2, as kappa is not 0 on its zero
    # fiber Q[x] / x^2
    P3, E8, T = qh_projective(3), jacobi_ring("E8"), _fitting_ring()
    assert kappa_split(P3)[1] is P3
    assert kappa_split(E8)[0] is E8
    cycle = qspectra.spectrum._KappaCycle(T)
    a, _g = split_at_zero(cycle.charpoly())
    assert a == 2
    # the columns of M^2, which sends 1, x and x^2 to x^2: M^1 has rank 2,
    # so its kernel falls one short of a
    cols, image = qspectra.spectrum._fitting_power(T, a, cycle)
    assert cols == [[[0, 0, 1]] * 3]
    assert image == [[(2, 1)]]
    for A, points in ((P3, 4), (E8, 0), (T, 1)):
        r = quantum_spectrum_report(A)
        assert r.nonzero_point_count == points
        assert (r.dim_zero_part, r.nonzero_point_count, r.zero_part) \
            == _split_oracle(A)


# sha256 of every registry report JSON, as written by `report --json`,
# taken from the reference reports before the single-pass report
REPORT_SHA256 = {
    "P1":
        "6c67a5b961bc93493f3bcddb07c16e52473c7dd6217b46a645d64e617b27e0e9",
    "P2":
        "e0f1a5d618a939d94221d95888ce55005c34ac17b9d29c622714f402fd60a7fa",
    "P3":
        "5ac0c60cc7433bdfba7b38824fcafae73ac66f36572d68464b8d0db583dd10cc",
    "P4":
        "ff5a96c0beb8d8b406379ba94fed9f139c1f100e9d211dedd53f6f95f633174d",
    "P5":
        "3f2742a313822c46dfaf42a09e0b3d794f714a774a38a3a66d63d0db70b85646",
    "P6":
        "2617da0e79722ff4517a2cebadbb27f89506be2f0232026d14aac9233503f9f3",
    "P7":
        "0f16293d735c5921440891406c9d8703de9fd025097c2ee2a5f8b491ba45f389",
    "P8":
        "2bf30a090ed5c2031c309bdd293a0a60034b5efae24d13fff7c6eaa2fd8130bd",
    "P9":
        "9d88a1f7bdaa0ada3c3c1fcb2e8524fbb1665fedd8e562961617f95c139e5e2b",
    "P10":
        "1507566afe9fd70b284c10001f162e474bfa0f146b0b59fcc21798fbbc66dad6",
    "G(2,4)":
        "75fbc4725f8c885ad0c079186e668683483c05f90ab4d7839a226b00e88362ea",
    "G(2,5)":
        "6e1dcd6dcd9bde0af84bafcb5a1f86fe346612672a943d631e8b25c0efc0f274",
    "G(2,6)":
        "3e04e9f5a87f9c1790f1db81a2eb85d20e8f3d5e0899c150ccfa7c6726213262",
    "G(3,6)":
        "6f50712da107b513d0eef13d7d12978270b8a65bfe76857d7f8b278135d54b6d",
    "IG(2,4)":
        "c7973e701203ecdc088deb02e662230678522f87ba6e26d2489ddd7d8a36e024",
    "IG(2,6)":
        "75aea42e34d76994bdbbb22c08db09b86419d621952e4ce9a6fe3e7e8e2b0af4",
    "IG(2,8)":
        "55c6d1a7c1efad6d77dbb55f439e50762ffd17f6a2006197eb6c3227de54e111",
    "IG(2,10)":
        "09225a50514363c31d8abe7aa482f403a692fb30c978a1d3274f8554cfe37017",
    "A1":
        "c4a03d92bc709aafbfd3978a33f400fc086280bbfe9f922a0be0c94737aace59",
    "A2":
        "acb1c71c331e729f4a4b4cdd9e1d5b52c9a71d9f0fae607720aeee8f263db883",
    "A3":
        "b7abccafd0afbd1f9a7a91a2682d2fa92fc94438e7e94041508b10925c74955b",
    "A4":
        "90b2ef51a7d9c06c91b8b1b69283debc7f77f72c888f25b328d100d593c4be72",
    "A5":
        "c4b191016e68326ba684a45f06aecc2bee4b43d58cac25f6abc3a5c375deae62",
    "A6":
        "53655c9512b07d7d2600165ecc159b5737b454407e759d7d9b6306e39e7e4cdb",
    "A7":
        "a7338dc02b1327f1523c4294940807774f5b6892624c44e6b225c87a7c8977a4",
    "A8":
        "b342385e05b63b04573fc4184c31a151e29498cf1db458be95bdba37d36e739e",
    "D4":
        "99e94a25b3ff7557c31155d4f795daea009cac9c66d350d22da01be495b85c22",
    "D5":
        "48cc8bc931e87b91e567b65568d470af42900d002b83ad2ff3be963e5d5f4959",
    "D6":
        "584db5b4419eca7c67316db0393fd6e9baf3a73890fae27151dea20f7d8198f2",
    "E6":
        "996e0fc7adf21572d1cb034da185a5b085d877acb753e632cc9687a4e1ddabf9",
    "E7":
        "5673a656e330d7603c037964ff37aca577ed697bd25f09ee18f45f21bbf6cc13",
    "E8":
        "1326355dd272082eab32ead1ca9de83579a5e0f7cf9613c3185ee4a2c585c18e",
}


def test_report_digests_cover_the_registry():
    assert list(REPORT_SHA256) == list(REGISTRY)


@pytest.mark.parametrize("vid", list(REGISTRY))
def test_report_json_is_byte_stable(vid, tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["report", vid, "--json", str(path)]) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == REPORT_SHA256[vid]
    # A is the product of its two fibers, so their points add up
    spectrum = json.loads(path.read_text())["spectrum"]
    assert point_count(REGISTRY[vid].provider()) == (
        spectrum["nonzero_point_count"]
        + spectrum["zero_part"]["geometric_point_count"])
