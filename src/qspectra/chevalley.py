"""Divisor multiplication on coset spaces from the Chevalley formula.

Works in integers over minimal-length coset representatives for a maximal
parabolic in Weyl groups of types A and C.  An element w is written in
one-line notation, w_i being the signed image of e_i.  A positive root
alpha is stored as (i, j, s, c) with i <= j: s = 1 for e_i - e_j, and
s = -1 for e_i + e_j and for 2 e_i (i = j), so that w s_alpha is w with
places i and j swapped and both multiplied by s; c = <omega_k, alpha^vee>
= ([i < k] - s [j < k]) / (1 + [i = j]) is an integer.  A root is
positive when its first nonzero entry is, so with the signed images
ordered e_1 < ... < e_n < -e_n < ... < -e_1, w makes e_i - e_j negative
exactly when w_j < w_i, and the rest is closed form: the length is
#{i < j : w_j < w_i}, plus #{i <= j : -w_j < w_i} in type C; the minimal
representative of w W_P has its first k images in that order and the
rest increasing (taken as absolute values in type C); and the
representatives are listed directly, a (signed) k-subset followed by its
complement.  The divisor operator is a list of integer columns, wrapped
in a Matrix only by the two public functions.  When it has a full Krylov
space, every basis class is a polynomial in the divisor applied to the
unit, and the integer images M^l b_j rebuild the complete table in
integers over one denominator, the lcm of those of the polynomials:
grassmannian_algebra recovers the cyclic G(k,n), such as G(2,5), G(2,7),
G(3,7), G(2,9) and the projective spaces G(1,n), and refuses the others,
such as G(2,4) and G(3,8), each in well under a second.  The divisor
does not always generate (on IG(2,2n) with n >= 3 it annihilates the
whole nilpotent summand), but its matrix is exact regardless, so the
operators here double as independent oracles for rings built by other
routes: characteristic polynomials are basis independent and can be
compared directly.
"""

from itertools import combinations, product
from math import comb, lcm

from .algebra import FiniteCommAlgebra, validate_algebra
from .exactlin import Matrix, Solver, clear_denominators
from .schur import _label, _trim


class _CosetModel:
    """W/W_P for the crossed node k of type A_{n-1} (signed False) or C_n
    (signed True), in one-line notation: the minimal coset representatives
    and the positive roots outside the Levi, each as (i, j, s, c): w s_alpha
    is w with places i and j swapped and both multiplied by s, and c is
    the pairing of the crossed fundamental weight with alpha's coroot."""

    __slots__ = ("k", "signed", "mod", "roots", "reps")

    def __init__(self, n, k, signed):
        self.k, self.signed = k, signed
        # t % mod ranks the signed images e_1 < ... < e_n < -e_n < ...
        # < -e_1, and w(e_i - e_j) is negative exactly when w_j ranks
        # below w_i
        self.mod = 2 * n + 1
        # (i, j, s) for e_i - s e_j with i <= j: s = 1 for e_i - e_j, and
        # s = -1 for e_i + e_j and (at i = j) for 2 e_i
        positive = [(i, j, 1) for i in range(n) for j in range(i + 1, n)]
        if signed:
            positive += [(i, j, -1) for i in range(n) for j in range(i, n)]
        # c = <omega_k, alpha^vee>, halved for the long roots 2 e_i; the
        # roots with c = 0 are those of the Levi
        roots = []
        for i, j, s in positive:
            c = ((i < k) - s * (j < k)) // (1 + (i == j))
            if c:
                roots.append((i, j, s, c))
        self.roots = tuple(roots)
        # a (signed) k-subset in rank order, then its complement increasing
        reps = []
        everything = range(1, n + 1)
        for head in combinations(everything, k):
            tail = tuple(t for t in everything if t not in head)
            for signs in product((1, -1), repeat=k) if signed else [(1,) * k]:
                reps.append(self.to_minimal(
                    tuple(s * t for s, t in zip(signs, head)) + tail))
        self.reps = tuple(reps)

    def length(self, w):
        # positive roots made negative: e_i - e_j for i < j, and in type C
        # e_i + e_j for i <= j, which is e_i - (-e_j)
        r = [t % self.mod for t in w]
        got = sum(a > b for i, a in enumerate(r) for b in r[i + 1:])
        if self.signed:
            got += sum(a + b > self.mod
                       for i, a in enumerate(r) for b in r[i:])
        return got

    def to_minimal(self, w):
        # the Levi permutes the first k places, and the last n - k (with
        # signs in type C); the minimal element of w W_P has both runs in
        # rank order
        k = self.k
        tail = map(abs, w[k:]) if self.signed else w[k:]
        head = sorted(w[:k], key=lambda t: t % self.mod)
        return tuple(head) + tuple(sorted(tail))


def _divisor_columns(model, reps, lengths, m):
    """Multiplication by the degree-1 coset class: its integer columns
    over reps, with lengths[i] the length of reps[i]."""
    idx = {w: i for i, w in enumerate(reps)}
    cols = []
    for w, lw in zip(reps, lengths):
        col = [0] * len(reps)
        for i, j, s, c in model.roots:
            # w s_alpha: places i and j swapped, both times s
            u = list(w)
            u[i], u[j] = s * w[j], s * w[i]
            u = tuple(u)
            t = idx[model.to_minimal(u)]
            # u is a representative exactly when it is its own minimal one
            if (reps[t] == u and lengths[t] == lw + 1
                    or lengths[t] == lw + 1 - m * c):
                col[t] += c
        cols.append(col)
    return cols


def _ring_from_divisor(name, model, reps, m, dim_X, labels):
    """Rebuild the full product table from the divisor operator alone."""
    n = len(reps)
    lengths = [model.length(w) for w in reps]
    cols = [[(t, x) for t, x in enumerate(col) if x]
            for col in _divisor_columns(model, reps, lengths, m)]
    # iterated integer images M^l b_j, reused across all rows; those of
    # the unit span the Krylov space
    images = []
    for j in range(n):
        seq = [[int(t == j) for t in range(n)]]
        for _ in range(n - 1):
            image = [0] * n
            for s, c in enumerate(seq[-1]):
                if c:
                    for t, x in cols[s]:
                        image[t] += c * x
            seq.append(image)
        images.append(seq)
    try:
        solver = Solver(Matrix.from_columns(images[0]))
    except ValueError:
        raise AssertionError(
            "divisor class does not generate %s; table not reconstructible"
            % name) from None
    # b_i = p_i(M) 1, p_i's coefficients ints over d_i; scaled up to
    # den = lcm(d_i), b_i b_j = p_i(M) b_j sums in ints over den
    in_krylov = [clear_denominators(solver.solve(seq[0])) for seq in images]
    den = lcm(*[d for _coeffs, d in in_krylov])
    scaled = [[(l, c * (den // d)) for l, c in enumerate(coeffs) if c]
              for coeffs, d in in_krylov]

    def product(i, j):
        acc = {}
        for l, c in scaled[i]:
            for t, x in enumerate(images[j][l]):
                if x != 0:
                    acc[t] = acc.get(t, 0) + c * x
        return acc

    cells = [[product(i, j) for j in range(i, n)] for i in range(n)]
    if lengths[1] != 1 or lengths.count(1) != 1:
        raise AssertionError("degree-1 line is not where expected")
    degrees = [l % m for l in lengths]
    return FiniteCommAlgebra(
        name=name, basis_labels=labels, cells=cells, den=den,
        unit=images[0][0], degrees=degrees, fano_index=m,
        anticanonical=[m * x for x in images[1][0]], dim_X=dim_X)


def _grassmann_partition(w, k):
    # first k images, sorted, shifted down to a partition
    a = sorted(w[:k])
    return tuple(x - (i + 1) for i, x in enumerate(a))[::-1]


def _grassmann_reps(k, n):
    """Type A coset model of G(k,n) and its minimal representatives,
    ordered like the box model: by length, then by partition."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    model = _CosetModel(n, k, False)
    reps = sorted(model.reps,
                  key=lambda w: (model.length(w), _grassmann_partition(w, k)))
    if len(reps) != comb(n, k):
        raise AssertionError("coset count mismatch for G(%d,%d)" % (k, n))
    return model, reps


def grassmannian_algebra(k, n):
    """G(k,n) at q = 1 via type A cosets; basis ordered like the box model.

    Independent of the tableau route: same ring, different construction,
    used to cross-validate both.
    """
    model, reps = _grassmann_reps(k, n)
    labels = [_label(_trim(_grassmann_partition(w, k))) for w in reps]
    A = _ring_from_divisor("G(%d,%d)" % (k, n), model, reps, n,
                           k * (n - k), labels)
    violations = validate_algebra(A)
    if violations:
        raise AssertionError("reconstructed G(%d,%d) is invalid: %s"
                             % (k, n, violations[0]))
    return A


def grassmann_divisor_matrix(k, n):
    """Divisor operator of G(k,n) at q = 1, with basis degrees.

    Same basis order as grassmannian_algebra, but no ring reconstruction,
    so this works in the non-cyclic cases too (G(2,4) for one).
    """
    model, reps = _grassmann_reps(k, n)
    lengths = [model.length(w) for w in reps]
    M = Matrix.from_columns(_divisor_columns(model, reps, lengths, n))
    return M, lengths


def ig2_divisor_matrix(n):
    """Divisor operator of IG(2,2n) at q = 1, with basis degrees.

    Acts on the 2n(n-1) coset classes ordered by degree; crossed node 2 in
    type C_n, quantum parameter in degree 2n-1.  For n >= 3 the divisor
    kills the nilpotent summand and so cannot generate the ring; callers
    compare characteristic polynomials against independently presented
    rings instead of rebuilding the table from this matrix.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    model = _CosetModel(n, 2, True)
    reps = sorted(model.reps, key=lambda w: (model.length(w), w))
    if len(reps) != 2 * n * (n - 1):
        raise AssertionError("coset count mismatch for IG(2,%d)" % (2 * n))
    lengths = [model.length(w) for w in reps]
    M = Matrix.from_columns(_divisor_columns(model, reps, lengths, 2 * n - 1))
    return M, lengths
