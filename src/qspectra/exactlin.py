"""Dense exact linear algebra over the rationals.

Matrices, univariate polynomials, characteristic polynomials and kernels:
the arithmetic kernel everything else is built on.  Entries are ints or
fractions.Fraction; floating point never enters.  Kernels, spans, ranks
and solves all run on one division-free elimination, integer_echelon.
A Matrix product and a Poly evaluated at a Matrix (Cayley-Hamilton) run
in integers over one denominator, dividing once at the end.  charpoly's
Hessenberg reduction, which touches only nonzero entries, and the
coordinates a Solver returns work in Fractions.
"""

from fractions import Fraction
from itertools import compress, count
from math import gcd, lcm
from operator import mul

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _q(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def vec(entries):
    """Coerce an iterable to a tuple of Fractions."""
    return tuple(_q(x) for x in entries)


def clear_denominators(v):
    """Integers and their common denominator d, with v equal to ints / d.

    d is the least common multiple of the entries' denominators; int
    entries are read as they are.
    """
    v = [c if type(c) is int else _q(c) for c in v]
    d = lcm(*[c.denominator for c in v if type(c) is not int])
    if d == 1:
        return tuple(c if type(c) is int else c.numerator for c in v), 1
    return tuple(c.numerator * (d // c.denominator) for c in v), d


def _int_rows(M):
    """Integer rows N and a denominator d, with M equal to N / d."""
    flat, d = clear_denominators(x for row in M.data for x in row)
    c = M.cols
    return [flat[i * c:(i + 1) * c] for i in range(M.rows)], d


def _product(X, Y, width):
    """The product of integer matrices, as lists of rows; Y has width
    columns, which its rows cannot tell when there are none."""
    cols = list(zip(*Y)) if Y else [()] * width
    return [[sum(map(mul, row, col)) for col in cols] for row in X]


def _over(rows, d, cols):
    """The Matrix rows / d."""
    return Matrix([[Fraction(x, d) for x in row] for row in rows], cols=cols)


class Matrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, entries, cols=None):
        data = tuple(tuple(_q(x) for x in row) for row in entries)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("rows of width %d, not %d" % (width, cols))
        else:
            width = 0 if cols is None else cols
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[_ZERO] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def from_columns(cls, columns):
        columns = [tuple(c) for c in columns]
        if any(len(c) != len(columns[0]) for c in columns):
            raise ValueError("ragged columns")
        height = len(columns[0]) if columns else 0
        return cls([[c[i] for c in columns] for i in range(height)], cols=len(columns))

    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.data == other.data \
            and self.cols == other.cols

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        X, d = _int_rows(self)
        Y, e = _int_rows(other)
        return _over(_product(X, Y, other.cols), d * e, other.cols)

    def is_zero(self):
        return all(x == 0 for row in self.data for x in row)

    def __repr__(self):
        return "Matrix(%r)" % ([[str(x) for x in row] for row in self.data],)


def integer_echelon(vectors, basis=()):
    """Fraction-free echelon form of the span of basis and vectors, all
    integer vectors of one width.

    Each vector in turn, basis first, is reduced against the rows kept so
    far by integer combinations, so that it is 0 at their pivots; if it is
    not then 0, it is divided by its content and kept, with its first
    nonzero entry, made positive, as its pivot.  Returns the kept rows as
    lists of ints, and the indices of the vectors (not of basis) that
    raised the rank.
    """
    rows, pivots, raised = [], [], []
    offset = len(basis)
    for i, v in enumerate([*basis, *vectors]):
        # a row of an echelon handed back as basis needs no reduction
        if any(map(v.__getitem__, pivots)):
            for p, r in zip(pivots, rows):
                c = v[p]
                if c:
                    a = r[p]
                    g = gcd(a, c)
                    a, c = a // g, c // g
                    v = [a * x - c * y for x, y in zip(v, r)]
        p = next(compress(count(), v), None)
        if p is None:
            continue
        g = gcd(*v)
        if v[p] < 0:
            g = -g
        rows.append(list(v) if g == 1 else [x // g for x in v])
        pivots.append(p)
        if i >= offset:
            raised.append(i - offset)
    return rows, raised


def _reduced(vectors):
    """The reduced echelon form of the span of vectors of ints or
    Fractions, all of one width, kept in integers.

    integer_echelon's rows are sorted by pivot, and each pivot is cleared
    from the rows above it by integer combinations, kept primitive.
    Returns the rows, each positive at its own pivot and 0 at the others,
    and their pivots: row / row[pivot] is the unique reduced row echelon
    form over Q.
    """
    rows, _ = integer_echelon([clear_denominators(v)[0] for v in vectors])
    rows.sort(key=_lead)
    pivots = [_lead(r) for r in rows]
    for j, (p, r) in enumerate(zip(pivots, rows)):
        for i in range(j):
            c = rows[i][p]
            if c:
                g = gcd(r[p], c)
                v = [r[p] // g * x - c // g * y for x, y in zip(rows[i], r)]
                g = gcd(*v)
                rows[i] = [x // g for x in v]
    return rows, pivots


def _lead(v):
    return next(k for k, x in enumerate(v) if x)


def rank(M):
    return len(_reduced(M.data)[1])


def span_basis(vectors):
    """Echelonized basis of the span of the given vectors (canonical, ordered):
    the nonzero rows of their reduced row echelon form, as Fraction tuples."""
    rows, pivots = _reduced(vectors)
    return [tuple(Fraction(x, r[p]) if x else _ZERO for x in r)
            for r, p in zip(rows, pivots)]


def kernel_basis(rows, width):
    """Basis of the right kernel of the matrix with the given rows, vectors
    of ints or Fractions of length width, as a list of tuples.

    Canonical: one vector per free column of the reduced row echelon form,
    scaled so the first nonzero coordinate is 1.  Only the nonzero
    entries are divided.  Before scaling, the vector is 1 at the free
    column and -r[free] / r[p] at the pivot p of each row r nonzero
    there, all left of it; so its first nonzero entry is at the least
    such pivot, if any, and is the 1 at the free column otherwise.
    """
    if any(len(r) != width for r in rows):
        raise ValueError("rows of a width other than %d" % width)
    rows, pivots = _reduced(rows)
    basis = []
    for free in sorted(set(range(width)).difference(pivots)):
        v = [_ZERO] * width
        hits = [(p, r) for r, p in zip(rows, pivots) if r[free]]
        if hits:
            # the lead is -b / a; entry -r[free] / r[p] over it
            p, r = hits[0]
            a, b = r[p], r[free]
            v[free] = Fraction(-a, b)
            for p, r in hits:
                v[p] = Fraction(r[free] * a, r[p] * b)
        else:
            v[free] = _ONE
        basis.append(tuple(v))
    return basis


class Solver:
    """Repeated solving of S x = b against a fixed full-column-rank S."""

    __slots__ = ("_transform", "_ncols")

    def __init__(self, S):
        n, m = S.rows, S.cols
        # the reduced echelon rows of [S | I] are [a e_r | a T_r], with
        # T_r S = e_r, for r < m, then [0 | L] with L S = 0
        rows, pivots = _reduced([[*S.data[i], *(int(j == i) for j in range(n))]
                                 for i in range(n)])
        if pivots[:m] != list(range(m)):
            raise ValueError("matrix does not have full column rank")
        self._transform = [(r[m:], r[p]) for r, p in zip(rows, pivots)]
        self._ncols = m

    def solve(self, b):
        """Coordinates x with S x = b; raises if b is outside the column span."""
        if len(b) != len(self._transform):
            raise ValueError("length mismatch")
        b, d = clear_denominators(b)
        t = [(sum(x * y for x, y in zip(row, b)), a)
             for row, a in self._transform]
        if any(s for s, _a in t[self._ncols:]):
            raise ValueError("vector outside the span")
        return tuple(Fraction(s, a * d) for s, a in t[:self._ncols])


class Poly:
    """Univariate polynomial with Fraction coefficients; index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [_q(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __call__(self, x):
        """Evaluate by Horner at a square Matrix.

        At a Matrix N / d, with coefficients a_i / e, Horner runs in
        integers on H <- H N + a_i d^(deg - i) I, and H is divided by
        e d^deg once at the end.
        """
        if not isinstance(x, Matrix):
            raise TypeError("expected a Matrix, got %r" % (x,))
        if not x.is_square():
            raise ValueError("evaluation at a non-square matrix")
        n = x.rows
        if not self.coeffs:
            return Matrix.zeros(n, n)
        N, d = _int_rows(x)
        a, e = clear_denominators(self.coeffs)
        deg = len(a) - 1
        H = [[a[deg] if i == j else 0 for j in range(n)]
             for i in range(n)]
        scale = 1
        for c in reversed(a[:deg]):
            scale *= d
            H = _product(H, N, n)
            if c:
                for i, row in enumerate(H):
                    row[i] += c * scale
        return _over(H, e * scale, n)

    def __repr__(self):
        return "Poly(%s)" % (poly_str(self),)


def poly_str(p):
    """Readable form, highest degree first: 'x^4 - 2*x + 1'."""
    if p.is_zero():
        return "0"
    parts = []
    for i in range(p.degree, -1, -1):
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            mono = ""
        elif i == 1:
            mono = "x"
        else:
            mono = "x^%d" % i
        mag = abs(c)
        if mag == 1 and mono:
            body = mono
        else:
            body = str(mag) + ("*" + mono if mono else "")
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append(("+ " if c > 0 else "- ") + body)
    return " ".join(parts)


def charpoly(M):
    """det(xI - M), monic of degree = size, via exact Hessenberg reduction."""
    if not M.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = M.rows
    H = [list(row) for row in M.data]
    # similarity reduction to upper Hessenberg form
    for c in range(n - 2):
        piv = None
        for r in range(c + 1, n):
            if H[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        if piv != c + 1:
            H[piv], H[c + 1] = H[c + 1], H[piv]
            for row in H:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        # row r -= f * row c+1, then column c+1 += f * column r, each on
        # the nonzero entries alone; the column update changes the pivot
        # row, so its nonzeros are read afresh for every r
        pivot = H[c + 1]
        for r in range(c + 2, n):
            if H[r][c] != 0:
                f = H[r][c] / pivot[c]
                row_r = H[r]
                for j in [j for j, b in enumerate(pivot) if b]:
                    row_r[j] -= f * pivot[j]
                for row in H:
                    if row[r]:
                        row[c + 1] += f * row[r]
    # cofactor recurrence along last columns of leading blocks, on
    # coefficient lists (index = degree); zero coefficients are skipped,
    # since the charpolys of the divisor operators are mostly zero
    ps = [[_ONE]]
    for m in range(1, n + 1):
        q = ps[m - 1]
        p = [_ZERO] + q
        h = H[m - 1][m - 1]
        if h != 0:
            for k, c in enumerate(q):
                if c != 0:
                    p[k] -= h * c
        prod = _ONE
        for i in range(1, m):
            prod *= H[m - i][m - i - 1]
            if prod == 0:
                break
            coef = H[m - 1 - i][m - 1] * prod
            if coef != 0:
                for k, c in enumerate(ps[m - 1 - i]):
                    if c != 0:
                        p[k] -= coef * c
        ps.append(p)
    return Poly(ps[n])


def split_at_zero(p):
    """Write p = x^a * g with g(0) != 0; returns (a, g)."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    a = 0
    while p.coeffs[a] == 0:
        a += 1
    return a, Poly(p.coeffs[a:])
