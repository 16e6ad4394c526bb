"""Finite commutative algebras over the rationals.

The central type is FiniteCommAlgebra: a based algebra with a sparse table,
a cyclic grading by the Fano index, and a distinguished anticanonical
vector in degree 1.  Algebras arrive two ways: normal forms modulo a
polynomial presentation (projective spaces, Jacobi rings and isotropic
Grassmannians), and a validated JSON serialisation of the table.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .exactlin import (_ONE, _ZERO, Matrix, _lead, _q, clear_denominators,
                       integer_echelon, vec)


def integer_cells(cells):
    """(ints, den) for cells of ints and Fractions: den is their least
    common denominator, and ints[i][j] maps k to den * cells[i][j][k]."""
    cells = [[{k: _q(c) for k, c in cell.items()} for cell in row]
             for row in cells]
    den = lcm(1, *(c.denominator for row in cells for cell in row
                   for c in cell.values()))
    return [[{k: c.numerator * (den // c.denominator) for k, c in cell.items()}
             for cell in row] for row in cells], den


def _lowest_terms(upper, den):
    """The upper triangle of (k, int) cells and den, divided by their gcd."""
    if den == 1:
        return upper, den
    g = gcd(den, *(c for row in upper for cell in row for _k, c in cell))
    if g == 1:
        return upper, den
    return [[tuple([(k, c // g) for k, c in cell]) for cell in row]
            for row in upper], den // g


def _square(upper):
    """The square of the upper triangle upper[i][j - i]; (j, i) is (i, j)."""
    return tuple(tuple([upper[j][i - j] for j in range(i)] + upper[i])
                 for i in range(len(upper)))


class FiniteCommAlgebra:
    """Commutative algebra with chosen basis and sparse multiplication table.

    cells[i][j - i], for j >= i, maps k to the int den * c_ijk of
    b_i * b_j = sum of c_ijk b_k: only the upper triangle is given, so the
    table is commutative.  It is held over self.den, den divided by its gcd
    with every cell, as sparse integer rows: rows[i][j] lists the
    (k, self.den * c_ijk) pairs with c_ijk != 0, sorted by k, and
    rows[j][i] is rows[i][j].  structure[i][j] is b_i * b_j as a dense
    vector of Fractions, a view built on first access.  degrees grade the
    basis modulo fano_index; anticanonical is a degree-1 vector whose
    multiplication operator drives the spectrum decomposition.
    """

    __slots__ = ("name", "basis_labels", "dim", "rows", "den", "unit",
                 "degrees", "fano_index", "anticanonical", "dim_X",
                 "_structure")

    def __init__(self, name, basis_labels, cells, den, unit, degrees,
                 fano_index, anticanonical, dim_X):
        dim = len(basis_labels)
        if [len(row) for row in cells] != list(range(dim, 0, -1)):
            raise ValueError("cells shape mismatch")
        if len(unit) != dim or len(anticanonical) != dim or len(degrees) != dim:
            raise ValueError("vector length mismatch")
        if type(den) is not int or den < 1:
            raise ValueError("den must be a positive int, got %r" % (den,))
        if type(fano_index) is not int:
            raise TypeError("fano_index must be an int, got %r"
                            % (fano_index,))
        if fano_index < 1:
            raise ValueError("fano_index must be positive")
        bad = [d for d in degrees if type(d) is not int]
        if bad:
            raise TypeError("degrees must be ints, got %r" % (bad[0],))
        if type(name) is not str:
            raise TypeError("name must be a str, got %r" % (name,))
        if type(dim_X) is not int:
            raise TypeError("dim_X must be an int, got %r" % (dim_X,))

        for row in cells:
            for cell in row:
                bad = [k for k, c in cell.items() if type(c) is not int]
                if bad:
                    raise TypeError("expected an int cell value, got %r"
                                    % (cell[min(bad)],))
                if cell and not (0 <= min(cell) and max(cell) < dim):
                    raise ValueError("basis index out of range in table")
        self._store(name, basis_labels, cells, den, vec(unit),
                    tuple(d % fano_index for d in degrees), fano_index,
                    vec(anticanonical), dim_X)

    def _store(self, name, basis_labels, cells, den, unit, degrees,
               fano_index, anticanonical, dim_X):
        """Store a table with no check: cells and den as the constructor
        takes them, ints over any positive den; degrees reduced mod
        fano_index; unit and anticanonical tuples of Fractions.  Each cell
        is sorted by k with its zeros dropped, and den and the cells are
        divided by their gcd.  The constructor ends here, and the
        package's own builders, whose tables are made from checked ints,
        call it directly: object.__new__(FiniteCommAlgebra)._store(...)."""
        upper, self.den = _lowest_terms(
            [[tuple(sorted([(k, c) for k, c in cell.items() if c]))
              for cell in row] for row in cells], den)
        self.rows = _square(upper)
        self.name = name
        self.basis_labels = tuple(basis_labels)
        self.dim = len(self.basis_labels)
        self.unit = unit
        self.degrees = degrees
        self.fano_index = fano_index
        self.anticanonical = anticanonical
        self.dim_X = dim_X
        self._structure = None
        return self

    @property
    def structure(self):
        """Dense view: structure[i][j] is the Fraction vector of b_i * b_j."""
        if self._structure is None:
            def dense(cell):
                v = [_ZERO] * self.dim
                for k, c in cell:
                    v[k] = Fraction(c, self.den)
                return tuple(v)
            self._structure = _square([[dense(cell) for cell in row[i:]]
                                       for i, row in enumerate(self.rows)])
        return self._structure

    def sparse_product(self, u, v):
        """den times the product of two integer vectors, each given by its
        nonzero (index, value) pairs; a dense list of integers."""
        out = [0] * self.dim
        rows = self.rows
        for i, a in u:
            row = rows[i]
            for j, b in v:
                ab = a * b
                for k, c in row[j]:
                    out[k] += ab * c
        return out

    def product(self, u, v):
        """Coefficient vector of the product of two coefficient vectors."""
        if len(u) != self.dim or len(v) != self.dim:
            raise ValueError("vector length mismatch")
        iu, du = clear_denominators(u)
        iv, dv = clear_denominators(v)
        out = self.sparse_product(_nonzero(iu), _nonzero(iv))
        scale = du * dv * self.den
        return tuple(Fraction(x, scale) if x else _ZERO for x in out)

    def __repr__(self):
        return "FiniteCommAlgebra(%r, dim=%d, m=%d)" % (
            self.name, self.dim, self.fano_index)


def _nonzero(v):
    return [(i, x) for i, x in enumerate(v) if x]


def mult_matrix(A, v):
    """Matrix of multiplication by the vector v in the basis of A."""
    if len(v) != A.dim:
        raise ValueError("vector length mismatch")
    iv, dv = clear_denominators(v)
    terms = _nonzero(iv)
    scale = dv * A.den
    cols = [A.sparse_product(terms, ((j, 1),)) for j in range(A.dim)]
    return Matrix([[Fraction(x, scale) if x else _ZERO for x in row]
                   for row in zip(*cols)], cols=A.dim)


def validate_algebra(A):
    """Check unit, associativity and the cyclic grading.

    Returns a tuple of every violated invariant; empty means valid.

    The checks run over the algebra's integer rows, which hold D times each
    structure constant for the common denominator D = A.den.  Scaling by D
    changes no zero pattern, so grading and the unit identity read the
    same on the scaled table (the unit vector is cleared by its own
    denominator E, and b_i must come back as D * E * b_i).  Both
    sides of an associativity test are products of two structure
    constants, so both scale by D^2 and one side equals the other exactly
    when it does before scaling.

    Associativity is proved on a generating set first, by Light's lemma
    (Clifford and Preston, The Algebraic Theory of Semigroups I, 1.2): the
    elements a with (x a) y = x (a y) for all x and y form a subspace that
    is closed under the product, and it holds the unit.  So when the unit
    holds and the basis elements b_g, g in G, generate A, A is associative
    as soon as (b_x b_g) b_y = b_x (b_g b_y) for every g in G and x < y:
    the table is commutative, so the pair (y, x) is the same equation with
    its sides swapped, and at x = y both sides read (b_x b_g) b_x.  That
    costs O(|G| dim^2) products, against O(dim^3) for every triple.  When
    the unit fails or a generator equation does, every triple i <= j <= l
    is tested, in order, and each failure listed.
    """
    out = _unit_failures(A)
    if out or not _associates_with(A, _generators(A)):
        out.extend(_associativity_sweep(A))
    return tuple(out + _grading_failures(A))


def _unit_failures(A):
    """A failure line for each b_i that the unit does not fix."""
    n = A.dim
    unit, E = clear_denominators(A.unit)
    unit = _nonzero(unit)
    out = []
    for i in range(n):
        want = [0] * n
        want[i] = A.den * E
        if A.sparse_product(unit, ((i, 1),)) != want:
            out.append("unit fails on basis element %d" % i)
    return out


def _grading_failures(A):
    """A failure line for each product b_i b_j that leaves the degree of
    b_i plus that of b_j, and for each component of the anticanonical
    vector outside degree 1."""
    out = []
    m = A.fano_index
    for i in range(A.dim):
        for j in range(i, A.dim):
            want = (A.degrees[i] + A.degrees[j]) % m
            for k, _c in A.rows[i][j]:
                if A.degrees[k] != want:
                    out.append(
                        "grading fails: b%d*b%d hits b%d (degree %d, want %d)"
                        % (i, j, k, A.degrees[k], want))
    for k, c in enumerate(A.anticanonical):
        if c != 0 and A.degrees[k] != 1 % m:
            out.append("anticanonical vector not in degree 1 (component %d)" % k)
    return out


def _generators(A):
    """Basis indices G whose elements generate A with its unit, chosen
    greedily: while the span of the unit, closed under multiplication by
    each b_g so far, is not all of A, the first index that is no pivot of
    its integer echelon rows.  Those rows lead at distinct pivots, so every
    vector of the span leads at a pivot and b_g lies outside it.  Each new
    frontier of products is reduced in one call, until the rank reaches
    dim.  Assumes the unit holds, so that each b_g lies in the span it
    closes."""
    n = A.dim
    times = A.sparse_product
    rows, _ = integer_echelon([clear_denominators(A.unit)[0]])
    G = []
    while len(rows) < n:
        pivots = {_lead(r) for r in rows}
        g = next(i for i in range(n) if i not in pivots)
        G.append(g)
        products = [times(_nonzero(r), ((g, 1),)) for r in rows]
        while products and len(rows) < n:
            kept = len(rows)
            rows, _ = integer_echelon(products, rows)
            products = [times(_nonzero(r), ((h, 1),))
                        for r in rows[kept:] for h in G]
    return G


def _associates_with(A, G):
    """Whether (b_x b_g) b_y = b_x (b_g b_y) for every g in G and x < y;
    at x = y both sides are (b_x b_g) b_x by commutativity."""
    n = A.dim
    sparse = A.rows
    times = A.sparse_product
    for g in G:
        row = sparse[g]
        for x in range(n):
            xg = sparse[x][g]
            for y in range(x + 1, n):
                if times(xg, ((y, 1),)) != times(row[y], ((x, 1),)):
                    return False
    return True


def _associativity_sweep(A):
    """A failure line for each triple i <= j <= l on which (b_i b_j) b_l,
    (b_i b_l) b_j and (b_j b_l) b_i are not all equal."""
    out = []
    n = A.dim
    sparse = A.rows
    times = A.sparse_product
    for i in range(n):
        for j in range(i, n):
            pij = sparse[i][j]
            for l in range(j, n):
                t1 = times(pij, ((l, 1),))
                t2 = times(sparse[i][l], ((j, 1),))
                if t1 != t2 or t1 != times(sparse[j][l], ((i, 1),)):
                    out.append("associativity fails at (%d, %d, %d)" % (i, j, l))
    return out


# ---------------------------------------------------------------------------
# polynomial presentations: normal forms modulo a Groebner basis, at most
# three variables, weighted graded lexicographic order

class PolyPresentation:
    """Generators with degrees, relations, and the grading/anticanonical data.

    Relations and the anticanonical class are multivariate polynomials given
    as {exponent tuple: coefficient} maps over the declared variables, both
    checked alike: one nonnegative int exponent per variable, int or
    Fraction coefficients.  Variable degrees are positive ints.  The name
    and dim_X are checked as FiniteCommAlgebra checks them, since
    from_presentation stores them unchecked.
    """

    __slots__ = ("name", "variables", "relations", "fano_index",
                 "anticanonical", "dim_X")

    def __init__(self, name, variables, relations, fano_index,
                 anticanonical=None, dim_X=0):
        self.variables = tuple((str(v), d) for v, d in variables)
        if not self.variables or len(self.variables) > 3:
            raise ValueError("between one and three variables")
        if any(type(d) is not int for _, d in self.variables):
            raise TypeError("variable degrees must be ints")
        if any(d < 1 for _, d in self.variables):
            raise ValueError("variable degrees must be positive")
        nv = len(self.variables)

        def parse(rel):
            poly = {}
            for e, c in rel.items():
                e = tuple(e)
                if any(type(x) is not int for x in e):
                    raise TypeError("exponents must be ints, got %r" % (e,))
                if len(e) != nv or any(x < 0 for x in e):
                    raise ValueError("bad exponent tuple %r" % (e,))
                poly[e] = poly.get(e, _ZERO) + _q(c)
            return {e: c for e, c in poly.items() if c != 0}

        self.relations = tuple(parse(rel) for rel in relations)
        if type(fano_index) is not int:
            raise TypeError("fano_index must be an int, got %r"
                            % (fano_index,))
        if fano_index < 1:
            raise ValueError("fano_index must be positive")
        if type(name) is not str:
            raise TypeError("name must be a str, got %r" % (name,))
        if type(dim_X) is not int:
            raise TypeError("dim_X must be an int, got %r" % (dim_X,))
        self.name = name
        self.fano_index = fano_index
        self.anticanonical = parse(anticanonical or {})
        self.dim_X = dim_X


def _order_key(weights):
    def key(e):
        return (sum(w * x for w, x in zip(weights, e)), e)
    return key


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _nf(f, G, key):
    # G entries are (poly, leading monomial, leading coefficient)
    work = dict(f)
    out = {}
    while work:
        mono = max(work, key=key)
        c = work.pop(mono)
        if c == 0:
            continue
        for g, gl, gc in G:
            if _divides(gl, mono):
                shift = tuple(a - b for a, b in zip(mono, gl))
                fac = c / gc
                for gm, gcoef in g.items():
                    if gm == gl:
                        continue
                    tm = tuple(a + b for a, b in zip(gm, shift))
                    work[tm] = work.get(tm, _ZERO) - fac * gcoef
                break
        else:
            out[mono] = c
    return out


def _groebner(relations, key):
    """Buchberger's basis, unreduced: the normal form modulo any Groebner
    basis is unique, and the standard monomials and pure-power bounds
    depend only on the ideal its leading monomials generate."""
    G = []
    for rel in relations:
        r = _nf(rel, G, key)
        if r:
            G.append((r, max(r, key=key), r[max(r, key=key)]))
    pairs = [(i, j) for i in range(len(G)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        _, li, ci = G[i]
        _, lj, cj = G[j]
        if all(min(a, b) == 0 for a, b in zip(li, lj)):
            continue
        lcm = tuple(max(a, b) for a, b in zip(li, lj))
        s = {}
        for gm, gc in G[i][0].items():
            tm = tuple(a + b - c for a, b, c in zip(gm, lcm, li))
            s[tm] = s.get(tm, _ZERO) + gc / ci
        for gm, gc in G[j][0].items():
            tm = tuple(a + b - c for a, b, c in zip(gm, lcm, lj))
            s[tm] = s.get(tm, _ZERO) - gc / cj
        s = {e: c for e, c in s.items() if c != 0}
        r = _nf(s, G, key)
        if r:
            G.append((r, max(r, key=key), r[max(r, key=key)]))
            pairs.extend((len(G) - 1, t) for t in range(len(G) - 1))
    return G


def _operator_walk(weights, steps):
    """The upper triangle of a table filled from multiplication operators:
    cells[i][j - i], j >= i, maps k to the int coefficient of b_k in
    b_i * b_j.

    The basis runs by weight, weights[i] that of b_i, and b_0 = 1 alone
    has the lowest.  For i >= 1, steps[i] = (i0, op, terms) gives b_i =
    op(b_i0) - sum of c * b_b over (b, c) in terms: op[m] lists the
    (l, s) pairs of op(b_m), b_i0 has a lower weight and each b_b has
    b_i's weight and a larger index.  So the rows fill by weight and,
    within a weight, from the last index down.  Each row holds the
    products with every b_j from its start on: its own index, or the
    least start of a row that reads it if that is less.  With no terms
    every row starts at its own index.
    """
    dim = len(weights)
    order = sorted(range(1, dim), key=lambda i: (weights[i], -i))
    # a row's readers fill after it, so walk back to hand their starts down
    lo = list(range(dim))
    for i in reversed(order):
        i0, _, terms = steps[i]
        for b in (i0, *(b for b, _ in terms)):
            lo[b] = min(lo[b], lo[i])
    rows = [None] * dim
    rows[0] = [{j: 1} for j in range(dim)]
    for i in order:
        i0, op, terms = steps[i]
        src, lo0 = rows[i0], lo[i0]
        row = []
        for j in range(lo[i], dim):
            acc = {}
            for m, c in src[j - lo0].items():
                for l, s in op[m]:
                    acc[l] = acc.get(l, 0) + c * s
            for b, c in terms:
                for l, s in rows[b][j - lo[b]].items():
                    acc[l] = acc.get(l, 0) - c * s
            row.append(acc)
        rows[i] = row
    return [row[i - lo[i]:] for i, row in enumerate(rows)]


def from_presentation(P):
    """Quotient by the relation ideal, with basis the standard monomials.

    Only products x * b_j of a variable with a basis monomial are reduced
    to normal form: each variable's operator, cleared once over the common
    denominator D.  The standard monomials form an order ideal, so every
    basis monomial but 1 is x * b_i' for a variable x and a basis monomial
    b_i' of lower weight, and _operator_walk fills the row of b_i as x's
    operator applied to the row of b_i', on ints, with no terms taken off.
    """
    nv = len(P.variables)
    weights = tuple(d for _, d in P.variables)
    key = _order_key(weights)
    G = _groebner(P.relations, key)
    if any(lm == (0,) * nv for _, lm, _ in G):
        raise ValueError("presentation collapses to the zero ring")

    bounds = [None] * nv
    for _, lm, _ in G:
        support = [i for i, e in enumerate(lm) if e > 0]
        if len(support) == 1:
            i = support[0]
            if bounds[i] is None or lm[i] < bounds[i]:
                bounds[i] = lm[i]
    if any(b is None for b in bounds):
        raise ValueError("not zero-dimensional")
    cap = 1
    for b in bounds:
        cap *= b
    if cap > 10000:
        raise ValueError("%d candidate monomials, more than 10000" % cap)

    lead = [lm for _, lm, _ in G]
    monos = [()]
    for b in bounds:
        monos = [e + (i,) for e in monos for i in range(b)]
    basis = sorted((e for e in monos if not any(_divides(lm, e) for lm in lead)),
                   key=key)
    index = {e: i for i, e in enumerate(basis)}
    d = len(basis)
    level = [sum(w * x for w, x in zip(weights, e)) for e in basis]

    def reduce(poly):
        return {index[e]: c for e, c in _nf(poly, G, key).items()}

    def dense(sparse):
        return tuple(sparse.get(k, _ZERO) for k in range(d))

    def shift(e, t, by):
        return e[:t] + (e[t] + by,) + e[t + 1:]

    # ops[t][j]: D times the normal form of x_t * b_j as (index, int) pairs
    ops, D = integer_cells([[reduce({shift(e, t, 1): _ONE}) for e in basis]
                            for t in range(nv)])
    ops = [[tuple(cell.items()) for cell in op] for op in ops]

    # the walk's row i is D^|b_i| b_i * b_j, |b_i| the total degree (one
    # variable per step), scaled here to D^top; the basis runs by weight,
    # so its last monomial need not be the deepest
    steps = [None]
    for e in basis[1:]:
        t = next(t for t, x in enumerate(e) if x)
        steps.append((index[shift(e, t, -1)], ops[t], ()))
    top = max(map(sum, basis))
    cells = [[{k: c * s for k, c in cell.items()} for cell in row]
             if s > 1 else row
             for row, s in zip(_operator_walk(level, steps),
                               (D ** (top - sum(e)) for e in basis))]

    names = [v for v, _ in P.variables]

    def label(e):
        parts = []
        for nm, x in zip(names, e):
            if x == 1:
                parts.append(nm)
            elif x > 1:
                parts.append("%s^%d" % (nm, x))
        return "*".join(parts) if parts else "1"

    m = P.fano_index
    return object.__new__(FiniteCommAlgebra)._store(
        name=P.name,
        basis_labels=[label(e) for e in basis],
        cells=cells,
        den=D ** top,
        unit=dense({0: _ONE}),
        degrees=tuple(w % m for w in level),
        fano_index=m,
        anticanonical=dense(reduce(P.anticanonical)),
        dim_X=P.dim_X,
    )


# ---------------------------------------------------------------------------
# providers

@lru_cache(maxsize=None)
def qh_projective(n):
    """Quantum cohomology of n-dimensional projective space at q = 1.

    One relation h^(n+1) = 1, eliminated like every other presentation.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    return from_presentation(PolyPresentation(
        "P%d" % n, (("h", 1),), ({(n + 1,): 1, (0,): -1},), n + 1,
        {(1,): n + 1}, n))


def _poly_mul2(a, b):
    out = {}
    for (i, j), ca in a.items():
        for (k, l), cb in b.items():
            e = (i + k, j + l)
            out[e] = out.get(e, _ZERO) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ig2_relations(n):
    """The two relations presenting IG(2,2n) at q = 1 on c1, c2.

    On the isotropic Grassmannian the symplectic form turns the quotient
    U^perp/U into a self-dual bundle of rank 2n-4 whose total Chern class
    is the inverse series of c(U) c(U*) = 1 + (2 c2 - c1^2) + c2^2, with
    ci = ci(U*).  Its components f_j vanish beyond the rank, and the first
    two vanishings, in degrees 2n-2 and 2n, present the classical ring.
    Quantum corrections carry degree 2n-1, so the lower relation survives
    untouched and the top one can only pick up a multiple of q c1; the
    multiple is 1, pinned by the divisor operator (see the tests).
    """
    u = {(2, 0): -_ONE, (0, 1): Fraction(2)}
    v = {(0, 2): _ONE}
    prev, cur = {}, {(0, 0): _ONE}
    for _ in range(n):
        step = {}
        for part in (_poly_mul2(u, cur), _poly_mul2(v, prev)):
            for e, c in part.items():
                step[e] = step.get(e, _ZERO) - c
        prev, cur = cur, {e: c for e, c in step.items() if c}
    top = dict(cur)
    top[(1, 0)] = top.get((1, 0), _ZERO) + _ONE
    return prev, top


def _ig2_presentation(n):
    if n < 2:
        raise ValueError("n must be at least 2")
    return PolyPresentation(
        name="IG(2,%d)" % (2 * n),
        variables=(("c1", 1), ("c2", 2)),
        relations=_ig2_relations(n),
        fano_index=2 * n - 1,
        anticanonical={(1, 0): 2 * n - 1},
        dim_X=4 * n - 5,
    )


@lru_cache(maxsize=None)
def qh_ig2(n):
    """Quantum cohomology of the isotropic Grassmannian IG(2,2n) at q = 1.

    Eliminates the two-relation presentation in c1, c2.
    """
    A = from_presentation(_ig2_presentation(n))
    if A.dim != 2 * n * (n - 1):
        raise AssertionError("dimension mismatch for IG(2,%d): got %d"
                             % (2 * n, A.dim))
    return A


def _jacobi_presentation(label):
    label = str(label).strip()
    letter, rank = label[:1], label[1:]
    if letter not in "ADE" or not (rank.isascii() and rank.isdigit()):
        raise ValueError("unsupported singularity type %r" % (label,))
    r = int(rank)
    # the potential f(x, y); the ring is Q[x,y] modulo both partials
    if letter == "A" and r >= 1:
        f = {(r + 1, 0): 1, (0, 2): 1}
    elif letter == "D" and r >= 4:
        f = {(r - 1, 0): 1, (1, 2): 1}
    elif letter == "E" and r in (6, 7, 8):
        f = {(3, 0): 1, {6: (0, 4), 7: (1, 3), 8: (0, 5)}[r]: 1}
    else:
        raise ValueError("unsupported singularity type %r" % (label,))
    fx = {(a - 1, b): a * _q(c) for (a, b), c in f.items() if a > 0}
    fy = {(a, b - 1): b * _q(c) for (a, b), c in f.items() if b > 0}
    return PolyPresentation(
        name=label,
        variables=(("x", 1), ("y", 1)),
        relations=(fx, fy),
        fano_index=1,
        anticanonical=None,
        dim_X=0,
    )


def jacobi_ring(label):
    """Milnor algebra of the plane singularity named by an ADE label.

    Accepts 'A1', 'A2', ..., 'D4', 'D5', ..., 'E6', 'E7', 'E8'.  The result
    is local of dimension equal to the rank, graded trivially (index 1, no
    anticanonical direction): its spectrum is a single fat point at the origin.
    """
    P = _jacobi_presentation(label)
    A = from_presentation(P)
    r = int(P.name[1:])
    if A.dim != r:
        raise AssertionError("Milnor number mismatch for %s: got %d"
                             % (P.name, A.dim))
    return A


# ---------------------------------------------------------------------------
# JSON serialisation: upper-triangle structure constants as exact
# fractions; reading always validates the result

def _frac_pair(c):
    c = _q(c)
    return [c.numerator, c.denominator]


def algebra_to_json(A):
    triples = []
    for i in range(A.dim):
        for j in range(i, A.dim):
            for k, c in A.rows[i][j]:
                c = Fraction(c, A.den)
                triples.append([i, j, k, c.numerator, c.denominator])
    triples.sort()
    return {
        "name": A.name,
        "dim": A.dim,
        "fano_index": A.fano_index,
        "dim_X": A.dim_X,
        "degrees": list(A.degrees),
        "anticanonical": [_frac_pair(c) for c in A.anticanonical],
        "unit": [_frac_pair(c) for c in A.unit],
        "triples": triples,
    }


def _json_fraction(num, den):
    if type(num) is not int or type(den) is not int or den == 0:
        raise ValueError("bad fraction %r / %r" % (num, den))
    return Fraction(num, den)


# the largest dimension algebra_from_json reads: every registry ring and
# G(5,10) (252), not G(6,12) (924).  The table grows as dim^2, and a table
# may need dim - 1 generators to validate: a square-zero one took 0.014,
# 0.12, 1.3-1.4 and 16-20 s to accept at dim 32, 64, 128 and 256
# (Python 3.11, 2-core host)
JSON_MAX_DIM = 256


def algebra_from_json(obj):
    for key, kind in (("name", str), ("dim", int), ("fano_index", int),
                      ("dim_X", int), ("degrees", list), ("unit", list),
                      ("anticanonical", list), ("triples", list)):
        if type(obj.get(key)) is not kind:
            raise ValueError("missing or bad %s: %r" % (key, obj.get(key)))
    if {*map(type, obj["degrees"])} - {int}:
        raise ValueError("degrees must be ints, got %r" % (obj["degrees"],))
    dim = obj["dim"]  # a negative dim matches no length below
    if any(len(obj[key]) != dim
           for key in ("unit", "anticanonical", "degrees")):
        raise ValueError("vector length mismatch")
    if dim > JSON_MAX_DIM:
        raise ValueError("dimension %d exceeds the limit of %d"
                         % (dim, JSON_MAX_DIM))
    cells = [[{} for _j in range(i, dim)] for i in range(dim)]
    for i, j, k, num, den in obj["triples"]:
        if not (all(type(x) is int for x in (i, j, k))
                and 0 <= i <= j < dim and 0 <= k < dim):
            raise ValueError("triple out of range: %r" % ([i, j, k],))
        cell = cells[i][j - i]
        if k in cell:
            raise ValueError("duplicate triple: %r" % ([i, j, k],))
        cell[k] = _json_fraction(num, den)
    cells, den = integer_cells(cells)
    A = FiniteCommAlgebra(
        name=obj["name"],
        basis_labels=["b%d" % i for i in range(dim)],
        cells=cells, den=den,
        unit=[_json_fraction(n, d) for n, d in obj["unit"]],
        degrees=list(obj["degrees"]),
        fano_index=obj["fano_index"],
        anticanonical=[_json_fraction(n, d) for n, d in obj["anticanonical"]],
        dim_X=obj["dim_X"],
    )
    # refused on the first generator equation that fails, without the
    # O(dim^3) sweep that validate_algebra runs to list every failure
    violations = _unit_failures(A)
    if not violations and not _associates_with(A, _generators(A)):
        violations.append("associativity fails on a generator")
    violations += _grading_failures(A)
    if violations:
        raise ValueError("invalid algebra data %r: %s"
                         % (obj.get("name"), "; ".join(violations[:5])))
    return A


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))


def save_algebra(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(A), fh, indent=2, sort_keys=True)
        fh.write("\n")
