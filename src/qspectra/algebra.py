"""Finite commutative algebras over the rationals.

The central type is FiniteCommAlgebra: a based algebra with full structure
tensor, a cyclic grading by the Fano index, and a distinguished anticanonical
vector in degree 1.  Algebras arrive three ways: direct construction
(projective spaces), normal forms modulo a polynomial presentation
(Jacobi rings and isotropic Grassmannians), and a validated JSON
serialisation of the structure tensor.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .exactlin import Matrix, _q

_ZERO = Fraction(0)
_ONE = Fraction(1)


class FiniteCommAlgebra:
    """Commutative algebra with chosen basis and full multiplication table.

    structure[i][j] is the coefficient vector of b_i * b_j.  degrees grade
    the basis modulo fano_index; anticanonical is a degree-1 vector whose
    multiplication operator drives the spectrum decomposition.
    """

    __slots__ = ("name", "basis_labels", "dim", "structure", "unit",
                 "degrees", "fano_index", "anticanonical", "dim_X")

    def __init__(self, name, basis_labels, structure, unit, degrees,
                 fano_index, anticanonical, dim_X):
        dim = len(basis_labels)
        table = tuple(tuple(tuple(_q(c) for c in cell) for cell in row)
                      for row in structure)
        if len(table) != dim or any(len(row) != dim for row in table) \
                or any(len(cell) != dim for row in table for cell in row):
            raise ValueError("structure tensor shape mismatch")
        if len(unit) != dim or len(anticanonical) != dim or len(degrees) != dim:
            raise ValueError("vector length mismatch")
        if fano_index < 1:
            raise ValueError("fano_index must be positive")
        self.name = name
        self.basis_labels = tuple(basis_labels)
        self.dim = dim
        self.structure = table
        self.unit = tuple(_q(c) for c in unit)
        self.degrees = tuple(d % fano_index for d in degrees)
        self.fano_index = fano_index
        self.anticanonical = tuple(_q(c) for c in anticanonical)
        self.dim_X = dim_X

    def basis_vector(self, i):
        return tuple(_ONE if j == i else _ZERO for j in range(self.dim))

    def product(self, u, v):
        """Coefficient vector of the product of two coefficient vectors."""
        out = [_ZERO] * self.dim
        for i, a in enumerate(u):
            if a == 0:
                continue
            row = self.structure[i]
            for j, b in enumerate(v):
                if b == 0:
                    continue
                ab = a * b
                for k, c in enumerate(row[j]):
                    if c != 0:
                        out[k] += ab * c
        return tuple(out)

    def __repr__(self):
        return "FiniteCommAlgebra(%r, dim=%d, m=%d)" % (
            self.name, self.dim, self.fano_index)


def mult_matrix(A, v):
    """Matrix of multiplication by the vector v in the basis of A."""
    if len(v) != A.dim:
        raise ValueError("vector length mismatch")
    cols = []
    for j in range(A.dim):
        col = [_ZERO] * A.dim
        for l, c in enumerate(v):
            if c == 0:
                continue
            for k, s in enumerate(A.structure[l][j]):
                if s != 0:
                    col[k] += c * s
        cols.append(col)
    return Matrix([[cols[j][i] for j in range(A.dim)] for i in range(A.dim)])


class ValidationReport:
    __slots__ = ("violations",)

    def __init__(self, violations):
        self.violations = tuple(violations)

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        if self.ok:
            return "ValidationReport(ok)"
        return "ValidationReport(%d violations)" % len(self.violations)


def _common_denominator(values):
    d = 1
    for c in values:
        if c.denominator != 1:
            d = lcm(d, c.denominator)
    return d


def validate_algebra(A):
    """Check commutativity, unit, associativity and the cyclic grading.

    Returns a report listing every violated invariant; empty means valid.

    The sweeps run over the integers.  With D the least common denominator
    of the structure constants, D * c is an integer for every constant c,
    and scaling by D changes no zero pattern, so commutativity, grading and
    the unit identity read the same on the scaled table (the unit vector is
    cleared by its own denominator E, and b_i must come back as D * E * b_i).
    Both sides of an associativity test are products of two structure
    constants, so both scale by D^2 and one side equals the other exactly
    when it does before scaling.
    """
    out = []
    m = A.fano_index
    n = A.dim
    D = _common_denominator(c for row in A.structure for cell in row
                            for c in cell)
    # sparse integer rows keep the associativity sweep near-linear in
    # practice
    sparse = [[tuple((k, c.numerator * (D // c.denominator))
                     for k, c in enumerate(cell) if c)
               for cell in row] for row in A.structure]

    for i in range(n):
        for j in range(i, n):
            if sparse[i][j] != sparse[j][i]:
                out.append("commutativity fails at (%d, %d)" % (i, j))

    def right_mult(vec_sparse, l):
        acc = {}
        for k, c in vec_sparse:
            for t, s in sparse[k][l]:
                acc[t] = acc.get(t, 0) + c * s
        return {t: c for t, c in acc.items() if c}

    E = _common_denominator(A.unit)
    unit = [(l, c.numerator * (E // c.denominator))
            for l, c in enumerate(A.unit) if c]
    for i in range(n):
        if right_mult(unit, i) != {i: D * E}:
            out.append("unit fails on basis element %d" % i)

    for i in range(n):
        for j in range(i, n):
            pij = sparse[i][j]
            for l in range(j, n):
                t1 = right_mult(pij, l)
                t2 = right_mult(sparse[i][l], j)
                if t1 != t2 or t1 != right_mult(sparse[j][l], i):
                    out.append("associativity fails at (%d, %d, %d)" % (i, j, l))

    for i in range(n):
        for j in range(i, n):
            want = (A.degrees[i] + A.degrees[j]) % m
            for k, _c in sparse[i][j]:
                if A.degrees[k] != want:
                    out.append(
                        "grading fails: b%d*b%d hits b%d (degree %d, want %d)"
                        % (i, j, k, A.degrees[k], want))

    for k, c in enumerate(A.anticanonical):
        if c != 0 and A.degrees[k] != 1 % m:
            out.append("anticanonical vector not in degree 1 (component %d)" % k)

    return ValidationReport(out)


# ---------------------------------------------------------------------------
# polynomial presentations: normal forms modulo a Groebner basis, at most
# three variables, weighted graded lexicographic order

class PolyPresentation:
    """Generators with degrees, relations, and the grading/anticanonical data.

    Relations and the anticanonical class are multivariate polynomials given
    as {exponent tuple: coefficient} maps over the declared variables.
    """

    __slots__ = ("name", "variables", "relations", "fano_index",
                 "anticanonical", "dim_X")

    def __init__(self, name, variables, relations, fano_index,
                 anticanonical=None, dim_X=0):
        self.variables = tuple((str(v), int(d)) for v, d in variables)
        if not self.variables or len(self.variables) > 3:
            raise ValueError("between one and three variables")
        if any(d < 1 for _, d in self.variables):
            raise ValueError("variable degrees must be positive")
        nv = len(self.variables)
        rels = []
        for rel in relations:
            poly = {}
            for e, c in rel.items():
                e = tuple(int(x) for x in e)
                if len(e) != nv or any(x < 0 for x in e):
                    raise ValueError("bad exponent tuple %r" % (e,))
                c = _q(c)
                if c != 0:
                    poly[e] = poly.get(e, _ZERO) + c
            rels.append({e: c for e, c in poly.items() if c != 0})
        self.relations = tuple(rels)
        if fano_index < 1:
            raise ValueError("fano_index must be positive")
        self.name = name
        self.fano_index = fano_index
        self.anticanonical = dict(anticanonical) if anticanonical else {}
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
    # minimalize, then fully reduce and normalize
    keep = []
    for idx, (_, lm, _) in enumerate(G):
        if any(o != idx and _divides(G[o][1], lm)
               and (not _divides(lm, G[o][1]) or o < idx)
               for o in range(len(G))):
            continue
        keep.append(idx)
    reduced = []
    for idx in keep:
        others = [G[o] for o in keep if o != idx]
        r = _nf(G[idx][0], others, key)
        if not r:
            continue
        lm = max(r, key=key)
        lc = r[lm]
        r = {e: c / lc for e, c in r.items()}
        reduced.append((r, lm, _ONE))
    return reduced


def from_presentation(P):
    """Quotient by the relation ideal, with basis the standard monomials.

    Only products x * b_j of a variable with a basis monomial are reduced
    to normal form, which gives each variable's multiplication operator.
    The standard monomials form an order ideal, so every basis monomial
    but 1 is x * b_i' for a variable x and a basis monomial b_i' of lower
    weight; the row of b_i is x's operator applied to the row of b_i', and
    the upper triangle fills in basis order.
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
        raise ValueError("not zero-dimensional")

    lead = [lm for _, lm, _ in G]
    monos = [()]
    for b in bounds:
        monos = [e + (i,) for e in monos for i in range(b)]
    basis = sorted((e for e in monos if not any(_divides(lm, e) for lm in lead)),
                   key=key)
    if not basis:
        raise ValueError("presentation collapses to the zero ring")
    index = {e: i for i, e in enumerate(basis)}
    d = len(basis)

    def reduce(poly):
        return {index[e]: c for e, c in _nf(poly, G, key).items()}

    def dense(sparse):
        v = [_ZERO] * d
        for k, c in sparse.items():
            v[k] = c
        return tuple(v)

    def shift(e, t, by):
        return e[:t] + (e[t] + by,) + e[t + 1:]

    def column(mono):
        # a product that is itself standard needs no reduction
        if mono in index:
            return ((index[mono], _ONE),)
        return tuple(reduce({mono: _ONE}).items())

    # ops[t][j]: normal form of x_t * b_j as (index, coefficient) pairs
    ops = [[column(shift(e, t, 1)) for e in basis] for t in range(nv)]

    # rows[i][j] is b_i * b_j as a sparse map; b_0 = 1 and b_i' precedes
    # b_i, so its row is filled from the diagonal of b_i onwards
    rows = [[{j: _ONE} for j in range(d)]]
    structure = [[dense(cell) for cell in rows[0]]]
    for i in range(1, d):
        t = next(t for t, x in enumerate(basis[i]) if x)
        src = rows[index[shift(basis[i], t, -1)]]
        op = ops[t]
        row = [None] * d
        for j in range(i, d):
            acc = {}
            for k, c in src[j].items():
                for l, s in op[k]:
                    acc[l] = acc.get(l, _ZERO) + c * s
            row[j] = {l: c for l, c in acc.items() if c}
        rows.append(row)
        structure.append([structure[j][i] if j < i else dense(row[j])
                          for j in range(d)])

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
    degrees = [sum(w * x for w, x in zip(weights, e)) % m for e in basis]
    anticanonical = dense(reduce(
        {tuple(int(x) for x in e): _q(c) for e, c in P.anticanonical.items()}))
    return FiniteCommAlgebra(
        name=P.name,
        basis_labels=[label(e) for e in basis],
        structure=structure,
        unit=dense({0: _ONE}),
        degrees=degrees,
        fano_index=m,
        anticanonical=anticanonical,
        dim_X=P.dim_X,
    )


# ---------------------------------------------------------------------------
# providers

@lru_cache(maxsize=None)
def qh_projective(n):
    """Quantum cohomology of n-dimensional projective space at q = 1.

    One relation h^(n+1) = 1; the table is cyclic and needs no elimination.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    dim = n + 1
    structure = [[tuple(_ONE if k == (i + j) % dim else _ZERO
                        for k in range(dim))
                  for j in range(dim)] for i in range(dim)]
    return FiniteCommAlgebra(
        name="P%d" % n,
        basis_labels=["1"] + ["h" if i == 1 else "h^%d" % i
                              for i in range(1, dim)],
        structure=structure,
        unit=tuple(_ONE if k == 0 else _ZERO for k in range(dim)),
        degrees=list(range(dim)),
        fano_index=dim,
        anticanonical=tuple(Fraction(dim) if k == 1 else _ZERO
                            for k in range(dim)),
        dim_X=n,
    )


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


_JACOBI_POTENTIALS = {
    # (letter, rank) -> f(x, y); the ring is Q[x,y] modulo both partials
    "A": lambda r: {(r + 1, 0): 1, (0, 2): 1},
    "D": lambda r: {(r - 1, 0): 1, (1, 2): 1},
    "E": {
        6: {(3, 0): 1, (0, 4): 1},
        7: {(3, 0): 1, (1, 3): 1},
        8: {(3, 0): 1, (0, 5): 1},
    },
}


def _jacobi_presentation(label):
    label = str(label).strip()
    letter, rank = label[:1], label[1:]
    if letter not in "ADE" or not rank.isdigit():
        raise ValueError("unsupported singularity type %r" % (label,))
    r = int(rank)
    if letter == "A" and r >= 1:
        f = _JACOBI_POTENTIALS["A"](r)
    elif letter == "D" and r >= 4:
        f = _JACOBI_POTENTIALS["D"](r)
    elif letter == "E" and r in (6, 7, 8):
        f = _JACOBI_POTENTIALS["E"][r]
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
# fractions; reading validates the result unless told not to

def _frac_pair(c):
    c = _q(c)
    return [c.numerator, c.denominator]


def algebra_to_json(A):
    triples = []
    for i in range(A.dim):
        for j in range(i, A.dim):
            for k, c in enumerate(A.structure[i][j]):
                if c != 0:
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


def algebra_from_json(obj, check=True):
    dim = obj["dim"]
    structure = [[[_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, num, den in obj["triples"]:
        if not 0 <= i <= j < dim or not 0 <= k < dim:
            raise ValueError("triple out of range: %r" % ([i, j, k],))
        c = Fraction(num, den)
        structure[i][j][k] = c
        structure[j][i][k] = c
    A = FiniteCommAlgebra(
        name=obj["name"],
        basis_labels=["b%d" % i for i in range(dim)],
        structure=structure,
        unit=[Fraction(n, d) for n, d in obj["unit"]],
        degrees=list(obj["degrees"]),
        fano_index=obj["fano_index"],
        anticanonical=[Fraction(n, d) for n, d in obj["anticanonical"]],
        dim_X=obj["dim_X"],
    )
    if check:
        report = validate_algebra(A)
        if not report.ok:
            raise ValueError("invalid algebra data %r: %s"
                             % (obj.get("name"), "; ".join(report.violations[:5])))
    return A


def load_algebra(path):
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(json.load(fh))


def save_algebra(A, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(A), fh, indent=2, sort_keys=True)
        fh.write("\n")
