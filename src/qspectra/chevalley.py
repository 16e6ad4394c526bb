"""Divisor multiplication on coset spaces from the Chevalley formula.

Works in integers over minimal-length coset representatives for a maximal
parabolic in Weyl groups of types A and C, grown from the identity by the
simple reflections.  An element is the signed permutation of its images
of e_1, ..., e_n; a root's reflection is read off the root (e_i - e_j
swaps e_i and e_j, e_i + e_j sends e_i to -e_j, 2 e_i negates e_i), and a
root is negative exactly when its first nonzero entry is.  The divisor
operator is a list of integer columns, wrapped in a Matrix only by the
two public functions.  When it has a full Krylov space, every basis class
is a polynomial in the divisor applied to the unit, and the integer
images M^l b_j rebuild the complete table: grassmannian_algebra recovers
the cyclic G(k,n), such as G(2,5), G(2,7), G(3,7), G(2,9) and the
projective spaces G(1,n), and refuses the others, such as G(2,4) and
G(3,8), each in well under a second.  The divisor does not always
generate (on IG(2,2n) with n >= 3 it annihilates the whole nilpotent
summand), but its matrix is exact regardless, so the operators here
double as independent oracles for rings built by other routes:
characteristic polynomials are basis independent and can be compared
directly.
"""

from fractions import Fraction
from math import comb

from .algebra import FiniteCommAlgebra, integer_cells, validate_algebra
from .exactlin import Matrix, Solver, clear_denominators
from .schur import _label, _trim


def _reflection(alpha):
    # signed-image tuple of the reflection in a type A/C root, in closed
    # form: with i <= j its nonzero places, e_i and e_j are swapped, and
    # negated as well unless the root is +-(e_i - e_j)
    i, *rest = [t for t, a in enumerate(alpha) if a]
    j = rest[0] if rest else i
    sign = 1 if alpha[i] * alpha[j] < 0 else -1
    images = list(range(1, len(alpha) + 1))
    images[i], images[j] = sign * (j + 1), sign * (i + 1)
    return tuple(images)


def _compose(w, s):
    # (w . s)(e_i) = w(s(e_i))
    out = []
    for t in s:
        r = w[abs(t) - 1]
        out.append(r if t > 0 else -r)
    return tuple(out)


def _act(w, vec):
    out = [0] * len(vec)
    for i, t in enumerate(w):
        if t > 0:
            out[t - 1] += vec[i]
        else:
            out[-t - 1] -= vec[i]
    return tuple(out)


class _CosetModel:
    """Root data of one crossed node, built once: the minimal coset
    representatives and, per positive root outside the Levi, its reflection
    and its pairing with the crossed fundamental weight.  Lengths are
    cached on demand."""

    __slots__ = ("positive", "levi", "roots", "reps", "_lengths")

    def __init__(self, positive, simples, k):
        self.positive = tuple(positive)
        refls = [_reflection(root) for root in simples]
        self.levi = tuple((root, refl) for i, (root, refl)
                          in enumerate(zip(simples, refls)) if i != k - 1)
        self._lengths = {}
        roots = []
        for alpha in self.positive:
            twice, norm = 2 * sum(alpha[:k]), sum(a * a for a in alpha)
            if twice % norm:
                raise AssertionError("non-integral pairing")
            if twice:
                roots.append((_reflection(alpha), twice // norm))
        self.roots = tuple(roots)
        # removing a left descent from a minimal representative leaves a
        # minimal one, so each length layer grows from the one before
        layer = [tuple(range(1, len(self.positive[0]) + 1))]
        reps = []
        while layer:
            reps.extend(layer)
            grown = {}
            for w in layer:
                lw = self.length(w)
                for refl in refls:
                    u = _compose(refl, w)
                    if self.length(u) == lw + 1 and self.is_minimal(u):
                        grown[u] = None
            layer = list(grown)
        self.reps = tuple(reps)

    @staticmethod
    def is_negative(vec):
        # every positive root of types A and C leads with a positive entry
        for x in vec:
            if x:
                return x < 0

    def length(self, w):
        got = self._lengths.get(w)
        if got is None:
            got = sum(1 for a in self.positive if self.is_negative(_act(w, a)))
            self._lengths[w] = got
        return got

    def is_minimal(self, w):
        return not any(self.is_negative(_act(w, root)) for root, _ in self.levi)

    def to_minimal(self, w):
        # strip the Levi part on the right; greedy descent terminates
        while True:
            for root, refl in self.levi:
                if self.is_negative(_act(w, root)):
                    w = _compose(w, refl)
                    break
            else:
                return w


def _root(n, i, j, sign):
    # e_i + sign * e_j; with i == j and sign 1 this is 2 e_i
    v = [0] * n
    v[i] += 1
    v[j] += sign
    return tuple(v)


def _a_roots(n):
    positive = [_root(n, i, j, -1) for i in range(n) for j in range(i + 1, n)]
    simples = [_root(n, i, i + 1, -1) for i in range(n - 1)]
    return positive, simples


def _type_a(n, k):
    return _CosetModel(*_a_roots(n), k)


def _type_c(n, k):
    positive, simples = _a_roots(n)
    positive += [_root(n, i, j, 1) for i in range(n) for j in range(i, n)]
    return _CosetModel(positive, simples + [_root(n, n - 1, n - 1, 1)], k)


def _divisor_columns(model, reps, m):
    """Multiplication by the degree-1 coset class: its integer columns
    over reps."""
    idx = {w: i for i, w in enumerate(reps)}
    cols = []
    for w in reps:
        lw = model.length(w)
        col = [0] * len(reps)
        for refl, c in model.roots:
            u = _compose(w, refl)
            if model.length(u) == lw + 1 and model.is_minimal(u):
                col[idx[u]] += c
            else:
                v = model.to_minimal(u)
                if model.length(v) == lw + 1 - m * c:
                    col[idx[v]] += c
        cols.append(col)
    return cols


def _ring_from_divisor(name, model, reps, m, dim_X, labels):
    """Rebuild the full product table from the divisor operator alone."""
    n = len(reps)
    cols = [[(t, x) for t, x in enumerate(col) if x]
            for col in _divisor_columns(model, reps, m)]
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
    # b_i = p_i(M) 1 with p_i's coefficients ints over one denominator,
    # so b_i b_j = p_i(M) b_j sums in ints and divides once per entry
    in_krylov = [clear_denominators(solver.solve(seq[0])) for seq in images]

    def product(i, j):
        coeffs, d = in_krylov[i]
        acc = {}
        for l, c in enumerate(coeffs):
            if c == 0:
                continue
            for t, x in enumerate(images[j][l]):
                if x != 0:
                    acc[t] = acc.get(t, 0) + c * x
        if d == 1:
            return acc
        return {t: Fraction(x, d) for t, x in acc.items()}

    cells, den = integer_cells([[product(i, j) for j in range(i, n)]
                                for i in range(n)])
    lengths = [model.length(w) for w in reps]
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
    model = _type_a(n, k)
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
    M = Matrix.from_columns(_divisor_columns(model, reps, n))
    return M, [model.length(w) for w in reps]


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
    model = _type_c(n, 2)
    reps = sorted(model.reps, key=lambda w: (model.length(w), w))
    if len(reps) != 2 * n * (n - 1):
        raise AssertionError("coset count mismatch for IG(2,%d)" % (2 * n))
    M = Matrix.from_columns(_divisor_columns(model, reps, 2 * n - 1))
    return M, [model.length(w) for w in reps]
