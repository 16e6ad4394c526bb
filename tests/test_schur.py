import itertools
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qspectra.algebra import mult_matrix, qh_projective, validate_algebra
from qspectra.exactlin import charpoly
from qspectra.schur import (
    BoxPartition,
    Partition,
    lr_coeffs,
    qh_grassmannian,
    quantum_product,
    rim_hook_reduce,
)

P = Partition


# ---------------------------------------------------------------- oracle
# Jacobi-Trudi: s_lam = det(h_{lam_i - i + j}) with h_0 = 1 and h_r = 0 for
# r < 0, a polynomial in the algebraically independent complete classes
# h_1, h_2, ...; a monomial in them is written as the partition of its
# indices.  s_nu is h_nu plus monomials that dominate nu, hence are
# lex-larger, so a product peels into Schur classes lex-smallest monomial
# first.  Entirely independent of the strip-batch enumeration under test.

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


# ---------------------------------------------------------------- partitions

def test_partition_normalizes_and_validates():
    assert P((3, 1, 0)).parts == (3, 1)
    assert P().weight == 0
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((2, -1))


def test_conjugate_involution():
    assert P((3, 1)).conjugate() == P((2, 1, 1))
    assert P((4, 4, 2)).conjugate().conjugate() == P((4, 4, 2))


def test_box_partition_bounds():
    BoxPartition((2, 2), 2, 4)
    with pytest.raises(ValueError):
        BoxPartition((3,), 2, 4)
    with pytest.raises(ValueError):
        BoxPartition((1, 1, 1), 2, 4)


# ---------------------------------------------------------------- LR

def test_lr_pieri_row():
    assert lr_coeffs(P((1,)), P((1,))) == {P((2,)): 1, P((1, 1)): 1}
    assert lr_coeffs(P((1,)), P((2, 1))) == {
        P((3, 1)): 1, P((2, 2)): 1, P((2, 1, 1)): 1}


def test_lr_21_squared():
    table = lr_coeffs(P((2, 1)), P((2, 1)))
    assert table[P((3, 2, 1))] == 2
    assert {nu.parts: c for nu, c in table.items()} == lr_oracle((2, 1), (2, 1))


small_partitions = st.lists(
    st.integers(min_value=1, max_value=3), min_size=0, max_size=3,
).map(lambda xs: tuple(sorted(xs, reverse=True)))


@given(small_partitions, small_partitions)
def test_lr_matches_tableau_oracle(lam, mu):
    got = {nu.parts: c for nu, c in lr_coeffs(P(lam), P(mu)).items()}
    assert got == lr_oracle(lam, mu)


@given(small_partitions, small_partitions, st.integers(min_value=1, max_value=4))
def test_lr_row_cap_filters_the_full_expansion(lam, mu, rows):
    full = lr_coeffs(P(lam), P(mu))
    assert lr_coeffs(P(lam), P(mu), rows) == {
        nu: c for nu, c in full.items() if len(nu) <= rows}


@given(small_partitions, small_partitions)
def test_lr_symmetric_and_weight_graded(lam, mu):
    a = lr_coeffs(P(lam), P(mu))
    b = lr_coeffs(P(mu), P(lam))
    assert a == b
    w = sum(lam) + sum(mu)
    assert all(nu.weight == w for nu in a)


@given(small_partitions, st.integers(min_value=1, max_value=4))
def test_lr_row_case_is_multiplicity_free(lam, r):
    table = lr_coeffs(P(lam), P((r,)))
    assert all(c == 1 for c in table.values())
    lam_padded = lam + (0,)
    for nu in table:
        ps = nu.parts + (0,) * (len(lam_padded) - len(nu.parts))
        # horizontal strip: interlacing with the original rows
        assert all(ps[i] >= lam_padded[i] >= ps[i + 1]
                   for i in range(len(lam_padded) - 1))


# ---------------------------------------------------------------- rim hooks

def test_reduce_identity_inside_box():
    box, sign, d = rim_hook_reduce(P((1,)), 2, 4)
    assert (box.parts, sign, d) == ((1,), 1, 0)


def test_reduce_single_hook():
    box, sign, d = rim_hook_reduce(P((3, 1)), 2, 4)
    assert (box.parts, sign, d) == ((), 1, 1)


def test_reduce_rejects_too_many_parts():
    with pytest.raises(ValueError):
        rim_hook_reduce(P((3, 3, 1)), 2, 4)


def test_reduce_detects_vanishing():
    assert rim_hook_reduce(P((2,)), 2, 3) is None


def test_sign_pins_on_smallest_cases():
    # G(1,2): the hyperplane class squares to the (quantum) unit
    assert {b.parts: c for b, c in
            quantum_product(BoxPartition((1,), 1, 2),
                            BoxPartition((1,), 1, 2)).items()} == {(): 1}
    # G(2,3): top class times hyperplane wraps to the unit
    assert {b.parts: c for b, c in
            quantum_product(BoxPartition((1, 1), 2, 3),
                            BoxPartition((1,), 2, 3)).items()} == {(): 1}


# ---------------------------------------------------------------- products

def g24(parts):
    return BoxPartition(parts, 2, 4)


def test_product_weight_two():
    assert {b.parts: c for b, c in quantum_product(g24((1,)), g24((1,))).items()} \
        == {(2,): 1, (1, 1): 1}


def test_product_with_wraparound():
    assert {b.parts: c for b, c in quantum_product(g24((2, 1)), g24((1,))).items()} \
        == {(2, 2): 1, (): 1}


def test_top_class_squared_is_unit():
    assert {b.parts: c for b, c in
            quantum_product(g24((2, 2)), g24((2, 2))).items()} == {(): 1}


def test_product_rejects_mixed_grassmannians():
    with pytest.raises(ValueError):
        quantum_product(g24((1,)), BoxPartition((1,), 2, 5))


def test_products_nonnegative_g25():
    shapes = [(), (1,), (1, 1), (2,), (2, 1), (3, 3)]
    for a in shapes:
        for b in shapes:
            table = quantum_product(BoxPartition(a, 2, 5), BoxPartition(b, 2, 5))
            assert all(c > 0 for c in table.values())


# ---------------------------------------------------------------- algebras

def test_grassmannian_dimensions_and_grading():
    A = qh_grassmannian(2, 4)
    assert A.dim == 6
    assert A.fano_index == 4
    assert A.dim_X == 4
    assert sorted(A.degrees) == [0, 0, 1, 2, 2, 3]
    assert validate_algebra(A).ok


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
        dual = tuple(sorted((w - p for p in (parts + (0,) * (k - len(parts)))),
                            reverse=True))
        table = quantum_product(BoxPartition(parts, k, n),
                                BoxPartition(dual, k, n))
        tops = {b.parts: c for b, c in table.items() if b.parts == top}
        assert tops == {top: 1}


def test_sigma1_charpoly_agrees_with_projective_presentation():
    # G(1,4) is 3-space in disguise; multiplication by the hyperplane class
    A = qh_grassmannian(1, 4)
    h = A.basis_vector(1)
    B = qh_projective(3)
    assert charpoly(mult_matrix(A, h)) == charpoly(mult_matrix(B, B.basis_vector(1)))
