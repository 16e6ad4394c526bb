from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qspectra.exactlin import (
    Matrix,
    Poly,
    Solver,
    bezout_coprime,
    charpoly,
    kernel_basis,
    poly_gcd,
    poly_str,
    rank,
    span_basis,
    split_at_zero,
    vec,
)

F = Fraction


# ---------------------------------------------------------------- oracles
# Independent reference implementations, deliberately different algorithms
# from the ones under test.

def faddeev_charpoly(M):
    # Leverrier-Faddeev trace recurrence
    n = M.rows
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    N = Matrix.identity(n)
    for k in range(1, n + 1):
        MN = M * N
        c = -MN.trace() / k
        coeffs[n - k] = c
        N = MN + c * Matrix.identity(n)
    return Poly(coeffs)


def bareiss_det(M):
    n = M.rows
    if n == 0:
        return F(1)
    a = [list(row) for row in M.data]
    sign = 1
    prev = F(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return F(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = F(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


# ---------------------------------------------------------------- strategies

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def square_matrices(draw, max_dim=5):
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(
        st.lists(rationals, min_size=n, max_size=n),
        min_size=n, max_size=n))
    return Matrix(rows)


@st.composite
def matrices(draw, max_dim=5):
    r = draw(st.integers(min_value=1, max_value=max_dim))
    c = draw(st.integers(min_value=1, max_value=max_dim))
    rows = draw(st.lists(
        st.lists(rationals, min_size=c, max_size=c),
        min_size=r, max_size=r))
    return Matrix(rows)


polys = st.builds(Poly, st.lists(rationals, min_size=0, max_size=6))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------- kernels

def test_kernel_of_identity_is_empty():
    assert kernel_basis(Matrix.identity(2)) == []


def test_kernel_of_row_vector():
    assert kernel_basis(Matrix([[1, 1]])) == [(F(1), F(-1))]


def test_kernel_of_zero_matrix():
    basis = kernel_basis(Matrix.zeros(3, 3))
    assert len(basis) == 3
    assert rank(Matrix.from_columns(basis)) == 3


@given(matrices())
def test_kernel_vectors_annihilated_and_counted(M):
    basis = kernel_basis(M)
    for v in basis:
        assert M.apply(v) == (F(0),) * M.rows
    assert len(basis) == M.cols - rank(M)
    if basis:
        assert rank(Matrix.from_columns(basis)) == len(basis)


@given(matrices())
def test_rank_equals_rank_of_transpose(M):
    assert rank(M) == rank(M.transpose())


def test_solver_round_trip():
    S = Matrix([[1, 0], [1, 1], [0, 2]])
    solver = Solver(S)
    for x in [(F(3), F(-1)), (F(0), F(5, 7))]:
        assert solver.solve(S.apply(x)) == x
    with pytest.raises(ValueError):
        solver.solve((F(1), F(0), F(0)))


def test_solver_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        Solver(Matrix([[1, 2], [2, 4]]))


def test_span_basis_is_canonical():
    a = span_basis([(F(1), F(1)), (F(2), F(2)), (F(0), F(1))])
    b = span_basis([(F(0), F(3)), (F(5), F(5))])
    assert a == b == [(F(1), F(0)), (F(0), F(1))]


# ---------------------------------------------------------------- charpoly

def test_charpoly_one_by_one():
    assert charpoly(Matrix([[F(5, 3)]])) == Poly([F(-5, 3), 1])


def test_charpoly_identity():
    assert charpoly(Matrix.identity(2)) == Poly([1, -2, 1])


def test_charpoly_companion():
    C = Matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert charpoly(C) == Poly([-2, 0, 0, 1])


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly(Matrix([[1, 2]]))


def test_charpoly_empty_matrix_is_one():
    assert charpoly(Matrix([], cols=0)) == Poly([1])


@given(square_matrices())
def test_charpoly_matches_trace_recurrence(M):
    assert charpoly(M) == faddeev_charpoly(M)


@given(square_matrices())
def test_charpoly_constant_term_is_signed_determinant(M):
    p = charpoly(M)
    det = bareiss_det(M)
    assert p.coeffs[0] == (-1) ** M.rows * det


@given(square_matrices(max_dim=5))
def test_cayley_hamilton(M):
    assert charpoly(M)(M).is_zero()


# ---------------------------------------------------------------- polys

def test_poly_division_invariant():
    p = Poly([1, 0, -3, 1])
    d = Poly([-1, 1])
    q, r = divmod(p, d)
    assert q * d + r == p
    assert r.degree < d.degree


def test_split_examples():
    a, g = split_at_zero(Poly([0, 0, -1024, 0, 0, 0, 1]))
    assert (a, g) == (2, Poly([-1024, 0, 0, 0, 1]))
    assert split_at_zero(Poly([3, 1])) == (0, Poly([3, 1]))
    assert split_at_zero(Poly([0, 0, 0, 0, 0, 1])) == (5, Poly([1]))


@given(nonzero_polys)
def test_split_is_exact(p):
    a, g = split_at_zero(p)
    assert g(0) != 0
    assert Poly.x_power(a) * g == p


def test_bezout_examples():
    u, v = bezout_coprime(Poly([0, 1]), Poly([-1, 1]))
    assert u * Poly([0, 1]) + v * Poly([-1, 1]) == Poly([1])
    u, v = bezout_coprime(Poly([0, 0, 1]), Poly([-1, 1]))
    assert (u, v) == (Poly([1]), Poly([-1, -1]))
    u, v = bezout_coprime(Poly([1, 0, 1]), Poly([0, 1]))
    assert (u, v) == (Poly([1]), Poly([0, -1]))


def test_bezout_error_carries_gcd():
    p = Poly([0, -1, 1])        # x(x-1)
    q = Poly([-2, 1, 1])        # (x-1)(x+2)
    with pytest.raises(ValueError) as err:
        bezout_coprime(p, q)
    assert "x - 1" in str(err.value)


@given(nonzero_polys, nonzero_polys)
def test_bezout_identity_or_reported_gcd(p, q):
    g = poly_gcd(p, q)
    if g.degree >= 1:
        with pytest.raises(ValueError) as err:
            bezout_coprime(p, q)
        assert poly_str(g) in str(err.value)
        return
    u, v = bezout_coprime(p, q)
    assert u * p + v * q == Poly([1])
    assume(p.degree + q.degree >= 1)
    assert u.is_zero() or u.degree < q.degree
    assert v.is_zero() or v.degree < p.degree


def test_poly_str_layout():
    assert poly_str(Poly([1, 0, -2, 0, 0, 0, 1])) == "x^6 - 2*x^2 + 1"
    assert poly_str(Poly([])) == "0"
    assert poly_str(Poly([F(-1, 2)])) == "-1/2"


@pytest.mark.parametrize("bad", [True, False])
def test_vec_refuses_a_bool(bad):
    with pytest.raises(TypeError, match="expected int or Fraction, got %r"
                       % bad):
        vec([1, bad])
    with pytest.raises(TypeError, match="expected int or Fraction"):
        Matrix([[bad]])
