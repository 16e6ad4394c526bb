"""Spectrum decomposition tests: splits, orbits, local data, reports."""

import hashlib
import json
from fractions import Fraction

import pytest

import qspectra.exactlin
import qspectra.spectrum
from qspectra.algebra import (
    PolyPresentation,
    from_presentation,
    jacobi_ring,
    mult_matrix,
    qh_ig2,
    qh_projective,
    validate_algebra,
)
from qspectra.cli import REGISTRY, RunReport
from qspectra.exactlin import Matrix, charpoly, rank, split_at_zero, squarefree_part
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


def dual_numbers():
    return from_presentation(PolyPresentation(
        name="Q[x]/x^2", variables=(("x", 1),), relations=({(2,): 1},),
        fano_index=1, anticanonical=None, dim_X=0))


def trace_gram(A):
    n = A.dim
    tau = [sum(A.structure[l][j][j] for j in range(n)) for l in range(n)]
    return Matrix([[sum(A.structure[i][j][l] * tau[l] for l in range(n))
                    for j in range(n)] for i in range(n)])


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
    assert g(Fraction(0)) != 0


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
        assert validate_algebra(part).ok
        if part.dim and part is not A:
            unit_sq = part.product(part.unit, part.unit)
            assert unit_sq == part.unit
    # anticanonical stays nilpotent on one side, invertible on the other
    if z.dim:
        pz = charpoly(mult_matrix(z, z.anticanonical))
        assert pz.coeffs[:z.dim] == (Fraction(0),) * z.dim
    if nz.dim:
        pn = charpoly(mult_matrix(nz, nz.anticanonical))
        assert pn(Fraction(0)) != 0
    assert point_count(A) == point_count(z) + point_count(nz)


def test_idempotent_is_exact():
    A = qh_ig2(4)
    z, nz = kappa_split(A)
    # the embedded unit of the zero fiber, pushed back through mult by itself
    e0_sq = z.product(z.unit, z.unit)
    assert e0_sq == z.unit
    assert nilradical(nz) == []


# --- orbit analysis --------------------------------------------------------

def test_orbit_analysis_projective():
    for n in (2, 4):
        A = qh_projective(n)
        _, nz = kappa_split(A)
        out = orbit_analysis(nz, n + 1)
        assert out["k_len"] == 1 and out["k_len_integral"]
        assert out["k_pts"] == 1 and out["k_pts_integral"]
        assert out["rotation_ok"]
        g = charpoly(mult_matrix(nz, nz.anticanonical))
        want = [-Fraction((n + 1) ** (n + 1))] + [0] * n + [1]
        assert list(g.coeffs) == want


def test_orbit_analysis_ig6():
    _, nz = kappa_split(qh_ig2(3))
    out = orbit_analysis(nz, 5)
    assert out["k_len"] == 2 and out["k_pts"] == 2
    assert out["rotation_ok"]


def test_orbit_analysis_g24():
    _, nz = kappa_split(qh_grassmannian(2, 4))
    out = orbit_analysis(nz, 4)
    assert out["k_len"] == 1 and out["k_pts"] == 1


def test_orbit_analysis_rejects_bad_m():
    _, nz = kappa_split(qh_projective(1))
    with pytest.raises(ValueError):
        orbit_analysis(nz, 0)


def test_orbit_analysis_reports_non_integrality():
    _, nz = kappa_split(qh_projective(2))
    out = orbit_analysis(nz, 2)
    assert not out["k_len_integral"]
    assert out["k_len"] == Fraction(3, 2)


@pytest.mark.parametrize("make", PROVIDERS)
def test_rotation_invariance_holds_for_graded_algebras(make):
    A = make()
    _, nz = kappa_split(A)
    assert orbit_analysis(nz, A.fano_index)["rotation_ok"]


# --- local invariants ------------------------------------------------------

def test_local_invariants_empty_fiber():
    z, _ = kappa_split(qh_projective(2))
    assert local_invariants(z) == {
        "geometric_points": 0, "is_single_point": False,
        "hilbert_function": (), "socle_dim": 0}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_local_invariants_ig(n):
    z, _ = kappa_split(qh_ig2(n))
    out = local_invariants(z)
    assert out["geometric_points"] == 1
    assert out["is_single_point"]
    assert out["hilbert_function"] == (1,) * (n - 1)
    assert out["socle_dim"] == 1


def test_local_invariants_g24_fiber_is_reduced():
    z, _ = kappa_split(qh_grassmannian(2, 4))
    out = local_invariants(z)
    assert out["geometric_points"] == 2
    assert not out["is_single_point"]
    assert out["hilbert_function"] == (2,)


# --- Jacobi comparison -----------------------------------------------------

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

@pytest.mark.parametrize("make", PROVIDERS[:6])
def test_semisimple_iff_squarefree_minimal_polynomials(make):
    # squarefree charpoly is too strong (the unit always has (x-1)^dim);
    # the right certificate is the squarefree part annihilating the operator
    A = make()
    ss = nilradical(A) == []
    assert ss == (point_count(A) == A.dim)
    diagonalizable = True
    for i in range(A.dim):
        M = mult_matrix(A, A.basis_vector(i))
        if not squarefree_part(charpoly(M))(M).is_zero():
            diagonalizable = False
            break
    assert ss == diagonalizable


# --- full reports ----------------------------------------------------------

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
    assert validate_algebra(A).ok
    r = quantum_spectrum_report(A)
    assert r.orbit_count_by_length == r.orbit_count_by_points == 5
    assert r.zero_part == {"dim": 5, "geometric_point_count": 1,
                           "is_single_point": True,
                           "hilbert_function": (1,) * 5, "socle_dim": 1}


@pytest.mark.parametrize("make", PROVIDERS)
def test_invertible_fiber_charpoly_is_the_cofactor_of_x_power(make):
    A = make()
    p = charpoly(mult_matrix(A, A.anticanonical))
    _, nz = kappa_split(A, p)
    assert charpoly(mult_matrix(nz, nz.anticanonical)) == split_at_zero(p)[1]


def _invariant_calls(monkeypatch, A):
    calls = {"charpoly": 0, "nilradical": 0, "rank": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("charpoly", "nilradical"):
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
    # fiber's) and one nilradical per fiber
    assert calls == {"charpoly": 1, "nilradical": 2, "rank": 0}


def test_report_with_empty_zero_fiber_reuses_the_charpoly(monkeypatch):
    calls = _invariant_calls(monkeypatch, qh_projective(3))
    # the invertible fiber is the whole ring, so its charpoly is the ring's,
    # and the empty zero fiber has no nilradical to compute
    assert calls == {"charpoly": 1, "nilradical": 1, "rank": 0}


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
def test_report_json_is_byte_stable(vid):
    run = RunReport(spectrum=quantum_spectrum_report(REGISTRY[vid].provider()))
    text = json.dumps(run.to_dict(), indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[vid]
