from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qspectra.exactlin import (
    Matrix,
    Poly,
    Solver,
    charpoly,
    clear_denominators,
    integer_echelon,
    kernel_basis,
    poly_str,
    rank,
    span_basis,
    split_at_zero,
    vec,
)

from conftest import _seeded, identity

F = Fraction


# ---------------------------------------------------------------- oracles
# Independent reference implementations, deliberately different algorithms
# from the ones under test.

def faddeev_charpoly(M):
    # Leverrier-Faddeev trace recurrence
    n = M.rows
    coeffs = [F(0)] * (n + 1)
    coeffs[n] = F(1)
    N = identity(n)
    for k in range(1, n + 1):
        MN = M * N
        c = -sum((MN.data[i][i] for i in range(n)), F(0)) / k
        coeffs[n - k] = c
        N = Matrix([[x + c * (i == j) for j, x in enumerate(row)]
                    for i, row in enumerate(MN.data)])
    return Poly(coeffs)


def apply(M, v):
    """M times the column vector v, as a tuple of Fractions."""
    assert len(v) == M.cols
    return tuple(sum((a * F(b) for a, b in zip(row, v)), F(0))
                 for row in M.data)


def reference_product(X, Y, width):
    """The product of the row lists X and Y, Y of the given width, by the
    plain triple loop over Fractions."""
    return [[sum((F(x) * Y[l][j] for l, x in enumerate(row)), F(0))
             for j in range(width)] for row in X]


def reference_horner(coeffs, M):
    """p(M) by Horner over Fractions, one triple-loop product a step."""
    n = M.rows
    acc = [[F(0)] * n for _ in range(n)]
    for c in reversed(coeffs):
        acc = reference_product(acc, M.data, n)
        for i in range(n):
            acc[i][i] += c
    return acc


def poly_product(p, q):
    coeffs = [F(0)] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            coeffs[i + j] += a * b
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


def gauss_jordan(rows, width):
    """The nonzero rows of the reduced row echelon form, eliminated over
    Fractions with a division at every pivot, and their pivot columns."""
    rows = [[F(x) for x in r] for r in rows]
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


def gauss_jordan_kernel(rows, width):
    reduced, pivots = gauss_jordan(rows, width)
    basis = []
    for free in range(width):
        if free not in pivots:
            v = [F(0)] * width
            v[free] = F(1)
            for r, p in zip(reduced, pivots):
                v[p] = -r[free]
            lead = next(x for x in v if x)
            basis.append(tuple(x / lead for x in v))
    return basis


# ---------------------------------------------------------------- strategies

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _fraction(rnd, bound, max_denominator):
    d = rnd.randint(1, max_denominator)
    return F(rnd.randint(-bound * d, bound * d), d)


def _rational(rnd):
    # what rationals draws: in -4..4, denominator at most 4
    return _fraction(rnd, 4, 4)


def _sparse_rational(rnd):
    # three entries in four are 0, so charpoly meets zero coefficients and
    # zero subdiagonal products (reducible blocks)
    return _rational(rnd) if rnd.randint(0, 3) == 0 else F(0)


def _random_matrix(rnd, rows, cols, entry=_rational):
    return Matrix([[entry(rnd) for _ in range(cols)] for _ in range(rows)],
                  cols=cols)


def square_matrices(max_dim=5, entry=_rational):
    def build(rnd):
        n = rnd.randint(1, max_dim)
        return _random_matrix(rnd, n, n, entry)
    return _seeded(build)


dense_or_sparse = st.one_of(square_matrices(),
                            square_matrices(max_dim=7,
                                            entry=_sparse_rational))


def matrices(max_dim=5):
    def build(rnd):
        return _random_matrix(rnd, rnd.randint(1, max_dim),
                              rnd.randint(1, max_dim))
    return _seeded(build)


def _random_rows(rnd, max_dim=6):
    """(rows, width): 0-row, 0-width, wide, tall, zero and rank-deficient
    matrices of ints and Fractions of mixed denominators."""
    width = rnd.randint(0, max_dim)
    height = rnd.randint(0, max_dim)

    def row():
        return [rnd.randint(-5, 5) if rnd.random() < 0.5
                else _fraction(rnd, 4, 6) for _ in range(width)]

    gens = [row() for _ in range(rnd.randint(1, 3))]

    def combination():
        cs = [_fraction(rnd, 2, 3) for _ in gens]
        return [sum((c * g[k] for c, g in zip(cs, gens)), F(0))
                for k in range(width)]

    return [rnd.choice((row, combination, lambda: [0] * width))()
            for _ in range(height)], width


rational_rows = _seeded(_random_rows)


def _entry_law(rnd):
    """One draw's entries: ints only, or ints, zeros and Fractions given
    with denominators of either sign."""
    if rnd.random() < 0.3:
        return lambda rnd: rnd.randint(-6, 6)
    return lambda rnd: rnd.choice((
        0, rnd.randint(-6, 6),
        F(rnd.randint(-9, 9), rnd.choice((-6, -4, -3, -1, 2, 3, 5)))))


def _random_product(rnd):
    """(A, B) with A.cols == B.rows, each dimension 0 to 5."""
    r, m, k = (rnd.randint(0, 5) for _ in range(3))
    entry = _entry_law(rnd)
    return (_random_matrix(rnd, r, m, entry),
            _random_matrix(rnd, m, k, entry))


def _random_poly_at_matrix(rnd):
    """(M, p): a square M of size 0 to 5, and p the zero polynomial, a
    constant, or of degree at most 6."""
    n = rnd.randint(0, 5)
    entry = _entry_law(rnd)
    M = _random_matrix(rnd, n, n, entry)
    length = rnd.choice((0, 1, rnd.randint(2, 7)))
    return M, Poly([entry(rnd) for _ in range(length)])


polys = st.builds(Poly, st.lists(rationals, min_size=0, max_size=6))
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------- kernels

def test_kernel_of_identity_is_empty():
    assert kernel_basis(identity(2).data, 2) == []


def test_kernel_of_row_vector():
    assert kernel_basis([[1, 1]], 2) == [(F(1), F(-1))]


def test_kernel_of_zero_matrix():
    basis = kernel_basis(Matrix.zeros(3, 3).data, 3)
    assert len(basis) == 3
    assert rank(Matrix.from_columns(basis)) == 3


@given(matrices())
def test_kernel_vectors_annihilated_and_counted(M):
    basis = kernel_basis(M.data, M.cols)
    for v in basis:
        assert apply(M, v) == (F(0),) * M.rows
    assert len(basis) == M.cols - rank(M)
    if basis:
        assert rank(Matrix.from_columns(basis)) == len(basis)


# empty, zero, tall, and wide with a pivot to clear from the row above
shapes = [([], 0), ([], 3), ([[], []], 0), ([[0, 0, 0], [0, 0, 0]], 3),
          ([[1, F(1, 2), 3]], 3), ([[1], [F(-2, 3)], [0]], 1),
          ([[1, 1, 1], [0, 1, 2]], 3),
          ([[1, F(1, 2), 3, 0], [2, 0, F(1, 3), 1]], 4)]


def _with_shapes(test):
    for case in shapes:
        test = example(case)(test)
    return given(rational_rows)(test)


@settings(max_examples=200)
# kernel vectors led by a pivot left of the free column, with the leads
# -3/2; -2; 5/3 (the lesser of two pivots nonzero at the free column) and
# -2/3: (1, -2/3); (1, 0, 0), (0, 1, -1/2); (1, -6/5, 3/5, 0),
# (1, 0, 0, -3/2)
@example(([[2, 3]], 2))
@example(([[0, 1, 2]], 3))
@example(([[3, 0, -5, 2], [0, 2, 4, 0]], 4))
@_with_shapes
def test_kernel_basis_matches_gauss_jordan(case):
    rows, width = case
    assert kernel_basis(rows, width) == gauss_jordan_kernel(rows, width)


@settings(max_examples=200)
@_with_shapes
def test_span_basis_matches_gauss_jordan(case):
    rows, width = case
    assert span_basis(rows) == gauss_jordan(rows, width)[0]


@settings(max_examples=200)
@_with_shapes
def test_rank_matches_gauss_jordan(case):
    rows, width = case
    assert rank(Matrix(rows, cols=width)) == len(gauss_jordan(rows, width)[1])


def _random_system(rnd):
    """(rows, width, x, b): a matrix S as in _random_rows, a vector x of
    its width and a vector b of its height."""
    rows, width = _random_rows(rnd)
    return (rows, width, [_fraction(rnd, 4, 4) for _ in range(width)],
            [_fraction(rnd, 4, 4) for _ in rows])


@settings(max_examples=200)
@given(_seeded(_random_system))
@example(([], 0, [], []))
@example(([[], []], 0, [], [0, 0]))
@example(([[], []], 0, [], [1, 0]))
@example(([[1, 2], [2, 4]], 2, [1, 1], [1, 2]))
@example(([[1, 0], [F(1, 2), 1], [0, 3]], 2, [F(3, 4), -1], [1, 0, 0]))
def test_solver_matches_gauss_jordan(system):
    rows, width, x, b = system
    S = Matrix(rows, cols=width)
    if len(gauss_jordan(rows, width)[1]) < width:
        with pytest.raises(ValueError, match="full column rank"):
            Solver(S)
        return
    solver = Solver(S)
    assert solver.solve(apply(S, x)) == tuple(x)
    # b is in the span of S's columns when [S | b] has no pivot in b
    reduced, pivots = gauss_jordan([(*r, y) for r, y in zip(rows, b)],
                                   width + 1)
    if width in pivots:
        with pytest.raises(ValueError, match="outside the span"):
            solver.solve(b)
    else:
        assert solver.solve(b) == tuple(r[width] for r in reduced)


@given(matrices())
def test_rank_equals_rank_of_transpose(M):
    assert rank(M) == rank(Matrix.from_columns(M.data))


def test_solver_round_trip():
    S = Matrix([[1, 0], [1, 1], [0, 2]])
    solver = Solver(S)
    for x in [(F(3), F(-1)), (F(0), F(5, 7))]:
        assert solver.solve(apply(S, x)) == x
    with pytest.raises(ValueError):
        solver.solve((F(1), F(0), F(0)))


def test_solver_rejects_rank_deficiency():
    with pytest.raises(ValueError):
        Solver(Matrix([[1, 2], [2, 4]]))


@pytest.mark.parametrize("build", [
    lambda: Matrix([[1, 2]], cols=3),
    lambda: Matrix.from_columns([(1,), (2, 3)]),
    lambda: Matrix.from_columns([(1, 2, 3), (4, 5)]),
    lambda: kernel_basis([[1, 2], [3]], 2),
], ids=["cols", "short-first-column", "long-first-column", "kernel-rows"])
def test_matrix_refuses_a_shape_its_data_disagrees_with(build):
    with pytest.raises(ValueError):
        build()


def test_span_basis_is_canonical():
    a = span_basis([(F(1), F(1)), (F(2), F(2)), (F(0), F(1))])
    b = span_basis([(F(0), F(3)), (F(5), F(5))])
    assert a == b == [(F(1), F(0)), (F(0), F(1))]


def test_integer_echelon_examples():
    assert integer_echelon([[2, 4], [1, 2], [0, 3]]) == ([[1, 2], [0, 1]],
                                                         [0, 2])
    # the basis comes first, and only the vectors' indices are reported
    assert integer_echelon([[3, 6], [5, 1]], basis=[[1, 2]]) \
        == ([[1, 2], [0, 1]], [1])
    assert integer_echelon([[0, 0, 0]]) == ([], [])
    assert integer_echelon([]) == ([], [])


def _random_integer_lists(rnd):
    """(basis, vectors) of one width: random, zero, and integer
    combinations of at most four generators, so often rank-deficient,
    and wide when the width passes the count."""
    width = rnd.randint(1, 7)

    def row():
        return [rnd.randint(-9, 9) for _ in range(width)]

    gens = [row() for _ in range(rnd.randint(1, 4))]

    def combination():
        cs = [rnd.randint(-3, 3) for _ in gens]
        return [sum(c * g[k] for c, g in zip(cs, gens)) for k in range(width)]

    def vector():
        return rnd.choice((combination, row, lambda: [0] * width))()

    return ([vector() for _ in range(rnd.randint(0, 3))],
            [vector() for _ in range(rnd.randint(0, 8))])


def _reference_span(vectors):
    return gauss_jordan(vectors, len(vectors[0]) if vectors else 0)[0]


def _span_rank(vectors):
    return len(_reference_span(vectors))


@settings(max_examples=200)
@given(_seeded(_random_integer_lists), st.booleans())
def test_integer_echelon_matches_gauss_jordan(lists, extend):
    basis, vectors = lists
    if not extend:
        basis = []
    rows, raised = integer_echelon(vectors, basis)
    reference = _reference_span(basis + vectors)
    assert len(rows) == len(reference)
    # each side's rows lie in the other side's span
    for r in rows:
        assert _span_rank(reference + [r]) == len(reference)
    for r in reference:
        assert _span_rank(rows + [r]) == len(rows)
    # primitive integer rows
    for r in rows:
        assert all(type(x) is int for x in r)
        assert gcd(*r) == 1
    assert raised == [i for i in range(len(vectors))
                      if _span_rank(basis + vectors[:i + 1])
                      > _span_rank(basis + vectors[:i])]


# ---------------------------------------------------------------- products

def _is_fraction_matrix(M, rows, cols):
    return (M.rows, M.cols) == (rows, cols) and all(
        type(x) is F for row in M.data for x in row)


@settings(max_examples=200)
@given(_seeded(_random_product))
@example((Matrix([], cols=3), Matrix.zeros(3, 2)))
@example((Matrix.zeros(2, 0), Matrix([], cols=4)))
@example((Matrix([[F(1, -2), 3]]), Matrix([[4], [F(-5, 3)]])))
def test_matrix_product_matches_triple_loop(pair):
    A, B = pair
    P = A * B
    assert _is_fraction_matrix(P, A.rows, B.cols)
    assert [list(row) for row in P.data] \
        == reference_product(A.data, B.data, B.cols)


@settings(max_examples=200)
@given(_seeded(_random_poly_at_matrix))
@example((Matrix([[1, 2], [3, 4]]), Poly([1, 1])))
@example((Matrix([[F(1, 2), 0], [0, F(1, -3)]]), Poly([0, 0, 6])))
@example((Matrix([[1, 2], [3, 4]]), Poly([])))
@example((Matrix([], cols=0), Poly([F(3, 2)])))
def test_poly_at_matrix_matches_fraction_horner(case):
    M, p = case
    value = p(M)
    assert _is_fraction_matrix(value, M.rows, M.cols)
    assert [list(row) for row in value.data] \
        == reference_horner(p.coeffs, M)


def test_poly_at_matrix_examples():
    M = Matrix([[1, 2], [3, 4]])
    assert Poly([1, 1])(M) == Matrix([[2, 2], [3, 5]])
    assert Poly([0, 0, 1])(M) == Matrix([[7, 10], [15, 22]])
    assert Poly([F(3, 2)])(M) == Matrix([[F(3, 2), 0], [0, F(3, 2)]])
    assert Poly([])(M) == Matrix.zeros(2, 2)
    assert Poly([-2, -5, 1])(M).is_zero()
    D = Matrix([[F(1, 2), 0], [0, F(-1, 3)]])
    assert Poly([0, 0, 6])(D) == Matrix([[F(3, 2), 0], [0, F(2, 3)]])


# ---------------------------------------------------------------- charpoly

def test_charpoly_one_by_one():
    assert charpoly(Matrix([[F(5, 3)]])) == Poly([F(-5, 3), 1])


def test_charpoly_identity():
    assert charpoly(identity(2)) == Poly([1, -2, 1])


def test_charpoly_companion():
    C = Matrix([[0, 0, 2], [1, 0, 0], [0, 1, 0]])
    assert charpoly(C) == Poly([-2, 0, 0, 1])


def test_charpoly_rejects_non_square():
    with pytest.raises(ValueError):
        charpoly(Matrix([[1, 2]]))


def test_charpoly_empty_matrix_is_one():
    assert charpoly(Matrix([], cols=0)) == Poly([1])


def _permutation_matrix(images):
    # the matrix sending e_j to e_images[j]
    n = len(images)
    return Matrix([[int(images[j] == i) for j in range(n)]
                   for i in range(n)])


def _block_diagonal(*blocks):
    n = sum(B.rows for B in blocks)
    rows, at = [], 0
    for B in blocks:
        rows += [[0] * at + list(row) + [0] * (n - at - B.cols)
                 for row in B.data]
        at += B.cols
    return Matrix(rows, cols=n)


_X2_5X_2 = Poly([-2, -5, 1])      # charpoly of [[1, 2], [3, 4]]


@pytest.mark.parametrize("M, want", [
    # nilpotent: strictly upper triangular, and chains e1 -> e0 -> e2 and
    # e0 -> e3 -> e1 -> e2 whose first subdiagonal entry is 0
    (Matrix([[0, 1, 2, 3], [0, 0, 4, 5], [0, 0, 0, 6], [0, 0, 0, 0]]),
     Poly([0, 0, 0, 0, 1])),
    (Matrix([[0, 1, 0], [0, 0, 0], [1, 0, 0]]), Poly([0, 0, 0, 1])),
    (Matrix([[0, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [1, 0, 0, 0]]),
     Poly([0, 0, 0, 0, 1])),
    # permutations: a product over the cycles of x^length - 1
    (_permutation_matrix([0, 1, 2]), Poly([-1, 3, -3, 1])),
    (_permutation_matrix([3, 2, 0, 1]), Poly([-1, 0, 0, 0, 1])),
    (_permutation_matrix([2, 3, 0, 4, 1]), Poly([1, 0, -1, -1, 0, 1])),
    (_permutation_matrix([1, 2, 0]), Poly([-1, 0, 0, 1])),
    # block diagonal: a product over the blocks, no pivot below a block
    (_block_diagonal(Matrix([[1, 2], [3, 4]]), Matrix([[0, -1], [1, 0]]),
                     Matrix([[F(5, 2)]])),
     poly_product(poly_product(_X2_5X_2, Poly([1, 0, 1])),
                  Poly([F(-5, 2), 1]))),
    (_block_diagonal(Matrix([[F(1, 3)]]), Matrix([[1, 2], [3, 4]])),
     poly_product(Poly([F(-1, 3), 1]), _X2_5X_2)),
    # zero subdiagonal entries with nonzeros below them: pivot swaps
    (Matrix([[1, 2, 0], [0, 3, 1], [4, 0, 5]]), Poly([-23, 23, -9, 1])),
    (Matrix([[2, 0, 0, 0], [0, 1, 0, 0], [0, 0, 3, 0], [5, 0, 0, 4]]),
     Poly([24, -50, 35, -10, 1])),
    (Matrix([[1, 7, 0], [0, 2, 0], [0, 0, 3]]), Poly([-6, 11, -6, 1])),
], ids=["strict-upper", "chain-3", "chain-4", "identity", "cycle-4",
        "cycles-2-3", "cycle-3", "blocks-2-2-1", "blocks-1-2",
        "swap-3", "swap-4", "upper-triangular"])
def test_charpoly_pins(M, want):
    assert charpoly(M) == want
    assert faddeev_charpoly(M) == want


@given(dense_or_sparse)
def test_charpoly_matches_trace_recurrence(M):
    assert charpoly(M) == faddeev_charpoly(M)


@given(dense_or_sparse)
def test_charpoly_constant_term_is_signed_determinant(M):
    p = charpoly(M)
    det = bareiss_det(M)
    assert p.coeffs[0] == (-1) ** M.rows * det


@given(square_matrices(max_dim=5))
def test_cayley_hamilton(M):
    assert charpoly(M)(M).is_zero()


# ---------------------------------------------------------------- polys

def test_split_examples():
    a, g = split_at_zero(Poly([0, 0, -1024, 0, 0, 0, 1]))
    assert (a, g) == (2, Poly([-1024, 0, 0, 0, 1]))
    assert split_at_zero(Poly([3, 1])) == (0, Poly([3, 1]))
    assert split_at_zero(Poly([0, 0, 0, 0, 0, 1])) == (5, Poly([1]))


@given(nonzero_polys)
def test_split_is_exact(p):
    a, g = split_at_zero(p)
    assert g.coeffs[0] != 0
    assert p.coeffs == (F(0),) * a + g.coeffs


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
    # the clearing that every elimination starts from refuses it too, and
    # a float, although it reads int entries without a Fraction
    for v in ([1, bad], [F(1, 2), float(bad)]):
        with pytest.raises(TypeError, match="expected int or Fraction"):
            clear_denominators(v)
        with pytest.raises(TypeError, match="expected int or Fraction"):
            kernel_basis([v], 2)
