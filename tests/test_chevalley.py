"""Cross-validation between the coset-model route and the other constructions."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qspectra.algebra import (algebra_to_json, mult_matrix, qh_ig2,
                              qh_projective)
from qspectra.chevalley import (
    _type_a,
    grassmann_divisor_matrix,
    grassmannian_algebra,
    ig2_divisor_matrix,
)
from qspectra.exactlin import charpoly, poly_str
from qspectra.schur import qh_grassmannian

# sigma_1 characteristic polynomials, frozen after the two independent
# constructions (tableau folding, coset Chevalley) first agreed on them
DIVISOR_CHARPOLY = {
    ("G", 2, 4): "x^6 - 4*x^2",
    ("G", 2, 5): "x^10 - 11*x^5 - 1",
    ("G", 2, 6): "x^15 - 26*x^9 - 27*x^3",
    ("G", 3, 6): "x^20 - 66*x^14 + 129*x^8 - 64*x^2",
    ("IG", 2, 4): "x^4 - 4*x",
    ("IG", 2, 6): "x^12 - 26*x^7 - 27*x^2",
    ("IG", 2, 8): "x^24 - 120*x^17 - 2160*x^10 + 256*x^3",
    ("IG", 2, 10): "x^40 - 502*x^31 - 73749*x^22 + 383750*x^13 + 3125*x^4",
}


def sigma1_vector(A):
    m = A.fano_index
    return tuple(c / m for c in A.anticanonical)


@given(st.permutations(list(range(1, 6))))
def test_type_a_length_counts_inversions(p):
    model = _type_a(5, 2)
    w = tuple(p)
    inversions = sum(1 for i in range(5) for j in range(i + 1, 5)
                     if w[i] > w[j])
    assert model.length(w) == inversions


def test_grassmannian_cross_check_g25():
    A = grassmannian_algebra(2, 5)
    B = qh_grassmannian(2, 5)
    assert A.basis_labels == B.basis_labels
    assert A.degrees == B.degrees
    assert A.structure == B.structure
    assert A.anticanonical == B.anticanonical


def test_grassmannian_cross_check_projective():
    A = grassmannian_algebra(1, 4)
    B = qh_projective(3)
    assert A.dim == B.dim == 4
    assert A.structure == B.structure
    assert A.degrees == B.degrees


def test_non_cyclic_case_raises():
    with pytest.raises(AssertionError, match="does not generate"):
        grassmannian_algebra(2, 4)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (3, 6)])
def test_divisor_operator_matches_tableau_route(k, n):
    M, lengths = grassmann_divisor_matrix(k, n)
    assert poly_str(charpoly(M)) == DIVISOR_CHARPOLY[("G", k, n)]
    A = qh_grassmannian(k, n)
    assert poly_str(charpoly(mult_matrix(A, A.basis_vector(1)))) \
        == DIVISOR_CHARPOLY[("G", k, n)]
    # same Schubert basis order on both routes: the operators are equal
    assert mult_matrix(A, A.basis_vector(1)) == M
    assert sorted(l % A.fano_index for l in lengths) == sorted(A.degrees)
    assert len(lengths) == A.dim


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ig2_matches_divisor_operator(n):
    A = qh_ig2(n)
    assert A.dim == 2 * n * (n - 1)
    assert A.fano_index == 2 * n - 1
    p = charpoly(mult_matrix(A, sigma1_vector(A)))
    assert poly_str(p) == DIVISOR_CHARPOLY[("IG", 2, 2 * n)]
    M, lengths = ig2_divisor_matrix(n)
    assert charpoly(M) == p
    assert len(lengths) == A.dim


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ig2_betti_numbers_are_complete_intersection(n):
    # graded dimensions of Q[c1,c2]/(degrees 2n-2, 2n), c1 in degree 1
    top = 4 * n - 5
    series = [0] * (top + 1)
    for a in range(0, top + 1):
        for b in range(0, (top - a) // 2 + 1):
            series[a + 2 * b] += 1
    for d in (2 * n - 2, 2 * n):
        for i in range(top, d - 1, -1):
            series[i] -= series[i - d]
    _, lengths = ig2_divisor_matrix(n)
    betti = [lengths.count(i) for i in range(top + 1)]
    assert betti == series[:top + 1]
    assert sum(betti) == 2 * n * (n - 1)


# sha256 of the structure-constant files once shipped for IG(2,2n); the
# presentation must keep reproducing them byte for byte
IG2_JSON_SHA256 = {
    2: "4bca377b40f012618c8d1c076eb225749f16ba54760375c4b2fb126e92a1ca72",
    3: "576d01e617882dde0d390ef9815866b32593a4e7a5cdf0cf56112ef388b5edd4",
    4: "81a9f2cf8f4ec8ce37536b8df0cabe9e0d25db39b7c67d40187ef1ee735f4035",
    5: "d9ae3e136f2fda0899f6dccf91b6d9e00807e1d05df5e390c2a55f02405600b8",
}


def test_ig2_presentation_matches_former_data_files():
    for n, want in IG2_JSON_SHA256.items():
        text = json.dumps(algebra_to_json(qh_ig2(n)), indent=2,
                          sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, n


def test_ig2_rejects_small_n():
    with pytest.raises(ValueError):
        qh_ig2(1)
