import hashlib
import itertools
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qspectra.algebra import mult_matrix, qh_projective, validate_algebra
from qspectra.exactlin import charpoly
from qspectra.schur import (
    MAX_LR_STEPS,
    _box_shapes,
    _lr_table,
    _qh_grassmannian_pairwise,
    _ring,
    lr_coeffs,
    qh_grassmannian,
    quantum_product,
    rim_hook_reduce,
)


# ---------------------------------------------------------------- oracle
# Jacobi-Trudi: s_lam = det(h_{lam_i - i + j}) with h_0 = 1 and h_r = 0 for
# r < 0, a polynomial in the algebraically independent complete classes
# h_1, h_2, ...; a monomial in them is written as the partition of its
# indices.  s_nu is h_nu plus monomials that dominate nu, hence are
# lex-larger, so a product peels into Schur classes lex-smallest monomial
# first.  Entirely independent of the strip-batch enumeration under test.

def _basis_vector(A, i):
    """The coordinates of b_i in A's basis."""
    return tuple(int(j == i) for j in range(A.dim))


@lru_cache(maxsize=None)
def jacobi_trudi(lam):
    n = len(lam)
    out = {}
    for perm in itertools.permutations(range(n)):
        idx = [lam[i] - i + perm[i] for i in range(n)]
        if min(idx, default=0) < 0:
            continue
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        mono = tuple(sorted((x for x in idx if x > 0), reverse=True))
        out[mono] = out.get(mono, 0) + (-1) ** inversions
    return {m: c for m, c in out.items() if c != 0}


def h_mult(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(sorted(m1 + m2, reverse=True))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def lr_oracle(lam, mu):
    prod = h_mult(jacobi_trudi(lam), jacobi_trudi(mu))
    prod = {m: c for m, c in prod.items() if c != 0}
    coeffs = {}
    while prod:
        nu = min(prod)
        c = prod[nu]
        coeffs[nu] = c
        for m, s in jacobi_trudi(nu).items():
            prod[m] = prod.get(m, 0) - c * s
        prod = {m: v for m, v in prod.items() if v != 0}
    return coeffs


# ---------------------------------------------------------------- LR

def lr_full(lam, mu):
    # the row cap len(lam) + len(mu) keeps every term of the expansion
    return dict(lr_coeffs(lam, mu, len(lam) + len(mu)))


def test_lr_pieri_row():
    assert lr_full((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert lr_full((1,), (2, 1)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}


def test_lr_21_squared():
    table = lr_full((2, 1), (2, 1))
    assert table[(3, 2, 1)] == 2
    assert table == lr_oracle((2, 1), (2, 1))


small_partitions = st.lists(
    st.integers(min_value=1, max_value=3), min_size=0, max_size=3,
).map(lambda xs: tuple(sorted(xs, reverse=True)))


@given(small_partitions, small_partitions)
def test_lr_matches_tableau_oracle(lam, mu):
    assert dict(lr_coeffs(lam, mu, len(lam) + len(mu))) == lr_oracle(lam, mu)


@given(small_partitions, small_partitions, st.integers(min_value=1, max_value=4))
def test_lr_row_cap_filters_the_full_expansion(lam, mu, rows):
    full = lr_full(lam, mu)
    assert dict(lr_coeffs(lam, mu, rows)) == {
        nu: c for nu, c in full.items() if len(nu) <= rows}


@given(small_partitions, small_partitions)
def test_lr_symmetric_and_weight_graded(lam, mu):
    a = lr_full(lam, mu)
    b = lr_full(mu, lam)
    assert a == b
    w = sum(lam) + sum(mu)
    assert all(sum(nu) == w for nu in a)


@given(small_partitions, st.integers(min_value=1, max_value=4))
def test_lr_row_case_is_multiplicity_free(lam, r):
    table = lr_full(lam, (r,))
    assert all(c == 1 for c in table.values())
    lam_padded = lam + (0,)
    for nu in table:
        ps = nu + (0,) * (len(lam_padded) - len(nu))
        # horizontal strip: interlacing with the original rows
        assert all(ps[i] >= lam_padded[i] >= ps[i + 1]
                   for i in range(len(lam_padded) - 1))


def test_lr_refuses_a_costly_expansion_and_caches_nothing():
    # (4,3,2,1) squared on 5 rows takes 2,412 steps, the staircase
    # (6,5,4,3,2,1) squared on 10 rows 1,356,741
    staircase = (6, 5, 4, 3, 2, 1)
    before = _lr_table.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError,
                           match="more than %d steps" % MAX_LR_STEPS):
            lr_coeffs(staircase, staircase, 10)
    assert _lr_table.cache_info().currsize == before
    assert len(lr_coeffs((4, 3, 2, 1), (4, 3, 2, 1), 5)) > 0


# ---------------------------------------------------------------- rim hooks

def test_reduce_identity_inside_box():
    assert rim_hook_reduce((1,), 2, 4) == ((1,), 1)


def test_reduce_single_hook():
    assert rim_hook_reduce((3, 1), 2, 4) == ((), 1)


def test_reduce_rejects_too_many_parts():
    with pytest.raises(ValueError):
        rim_hook_reduce((3, 3, 1), 2, 4)


def test_reduce_detects_vanishing():
    assert rim_hook_reduce((2,), 2, 3) is None


def test_sign_pins_on_smallest_cases():
    # G(1,2): the hyperplane class squares to the (quantum) unit
    assert quantum_product((1,), (1,), 1, 2) == {(): 1}
    # G(2,3): top class times hyperplane wraps to the unit
    assert quantum_product((1, 1), (1,), 2, 3) == {(): 1}


# ---------------------------------------------------------------- products

def g24(lam, mu):
    return quantum_product(lam, mu, 2, 4)


def test_product_weight_two():
    assert g24((1,), (1,)) == {(2,): 1, (1, 1): 1}


def test_product_with_wraparound():
    assert g24((2, 1), (1,)) == {(2, 2): 1, (): 1}


def test_top_class_squared_is_unit():
    assert g24((2, 2), (2, 2)) == {(): 1}


def test_products_nonnegative_g25():
    shapes = [(), (1,), (1, 1), (2,), (2, 1), (3, 3)]
    for a in shapes:
        for b in shapes:
            table = quantum_product(a, b, 2, 5)
            assert all(c > 0 for c in table.values())


# ---------------------------------------------------------------- algebras

def test_grassmannian_dimensions_and_grading():
    A = qh_grassmannian(2, 4)
    assert A.dim == 6
    assert A.fano_index == 4
    assert A.dim_X == 4
    assert sorted(A.degrees) == [0, 0, 1, 2, 2, 3]
    assert not validate_algebra(A)


def test_grassmannian_minimal_case_is_projective_line():
    A = qh_grassmannian(1, 2)
    B = qh_projective(1)
    assert A.structure == B.structure
    assert A.anticanonical == B.anticanonical


def test_grassmannian_matches_projective_space():
    A = qh_grassmannian(1, 4)
    B = qh_projective(3)
    assert A.structure == B.structure
    assert A.degrees == B.degrees


def test_poincare_pairing_at_degree_zero():
    k, n = 2, 5
    A = qh_grassmannian(k, n)
    w = n - k
    top = (w,) * k
    for parts in [(), (1,), (2, 1), (3, 3), (2, 2), (3, 1)]:
        padded = parts + (0,) * (k - len(parts))
        dual = tuple(sorted((w - p for p in padded if p < w), reverse=True))
        table = quantum_product(parts, dual, k, n)
        tops = {b: c for b, c in table.items() if b == top}
        assert tops == {top: 1}


# the Pieri walk against the tableau route, which folds a full
# Littlewood-Richardson product for every pair: every G(k,n) with n <= 8,
# and G(3,9), whose first rows run longest past the box
TABLEAU_ORACLE_CASES = [(k, n) for n in range(2, 9) for k in range(1, n)]
TABLEAU_ORACLE_CASES.append((3, 9))


@pytest.mark.parametrize("k,n", TABLEAU_ORACLE_CASES)
def test_pieri_walk_matches_tableau_ring(k, n):
    A = qh_grassmannian(k, n)
    B = _qh_grassmannian_pairwise(k, n)
    for name in ("rows", "den", "unit", "anticanonical", "degrees",
                 "basis_labels"):
        assert getattr(A, name) == getattr(B, name), name


@pytest.mark.parametrize("k,n", [(0, 4), (4, 4), (5, 4), (-1, 3), (1, 1)])
def test_grassmannian_needs_k_strictly_inside(k, n):
    for build in (qh_grassmannian, _qh_grassmannian_pairwise):
        with pytest.raises(ValueError, match=r"^need 0 < k < n$"):
            build(k, n)


def test_negative_structure_constant_is_refused():
    # b_1 * b_1 = -1 on the basis of G(1,2)
    cells = [[{0: 1}, {1: 1}], [{0: -1}]]
    with pytest.raises(AssertionError,
                       match=r"negative structure constant in G\(1,2\)"):
        _ring(1, 2, _box_shapes(1, 2), cells)


def test_sigma1_charpoly_agrees_with_projective_presentation():
    # G(1,4) is 3-space in disguise; multiplication by the hyperplane class
    A = qh_grassmannian(1, 4)
    h = _basis_vector(A, 1)
    B = qh_projective(3)
    assert charpoly(mult_matrix(A, h)) == charpoly(mult_matrix(B, _basis_vector(B, 1)))


# sha256 over the repr of each public attribute of qh_grassmannian(k, n),
# one attribute a line; any change to a structure constant, label or
# grading shows here
PINNED_ATTRIBUTES = ("name", "basis_labels", "dim", "structure", "unit",
                     "degrees", "fano_index", "anticanonical", "dim_X")
GRASSMANNIAN_SHA256 = {
    (1, 2): "613f016545cdfd8e05f5e19d800dff7a7f5dd5ca8b5bf44dedf1814b063b9f74",
    (1, 4): "c55564b5060211346dbe172ffff1587e66f19c5a89855a0b73e3db470cee5072",
    (2, 4): "119c64be5aa502eaad02d5c9cd9d35d8f6eedbf2c8b5d456809ad6dc9fc7b083",
    (2, 5): "5c05438848d3a595a327fd3920ae857f40e6adc625818f40bfdcfe56008f65f6",
    (2, 6): "f8ebd9db824342209409e5f0ea48d733560a5d6c0eb597c0803aa901d71bf9d3",
    (2, 7): "8e1caffeb2fcda8e7078425ba2d0db3f10a6babd4975763555dfbf6f994347dc",
    (3, 6): "935f575a213df223db868ef3891e308ac9a41d3c916151a68f966979dd76a21f",
    (3, 7): "77da6c891f870aae08b4e8d80c1180f4380481899b1d048c451482afb7016683",
    (4, 8): "0088d060d73d803dd80f6effce81e3d79e39480f2263cbec0f47ae7b19f867a4",
}


@pytest.mark.parametrize("k,n", sorted(GRASSMANNIAN_SHA256))
def test_grassmannian_structure_is_pinned(k, n):
    A = qh_grassmannian(k, n)
    text = "\n".join(repr(getattr(A, name)) for name in PINNED_ATTRIBUTES)
    assert hashlib.sha256(text.encode()).hexdigest() \
        == GRASSMANNIAN_SHA256[(k, n)]
