"""Cohomology of irreducible homogeneous bundles on G(k,n) and the
exceptionality checks built on it.

The dotted-weight procedure: add the staircase rho, kill weights with a
repeated entry, otherwise sort and count inversions; the single surviving
cohomological degree carries the Weyl dimension of the sorted, unshifted
weight.  The identification of S^lam U* tensor S^mu Q* with the
concatenated GL(n) weight (lam | mu), and the descending sort, are pinned
by two calibration requirements rather than by convention: H^0(U*) must
be the n-dimensional standard representation and H^0(O(1)) must have
dimension C(n,k).  The calibration tests freeze both.

Restriction to the isotropic Grassmannian IG(2,2n), a hyperplane section
of G(2,2n), is handled by a sufficient criterion on the two ambient Ext
tables; when the long exact sequence leaves a connecting map undetermined
the answer is reported as inconclusive, never guessed.
"""

import re
from fractions import Fraction

from .lefschetz import twisted_objects
from .schur import Partition, lr_coeffs


def _rho(n):
    return tuple(range(n - 1, -1, -1))


def weyl_dim(delta):
    """Dimension of the GL(n) irrep with highest weight delta, as the
    product over positive roots of (delta_i - delta_j + j - i)/(j - i)."""
    n = len(delta)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= delta[i] - delta[j] + j - i
            den *= j - i
    d = Fraction(num, den)
    assert d.denominator == 1 and d > 0, "Weyl dimension must be a positive integer"
    return int(d)


def bott(w, k, n):
    """Cohomology table {degree: dim} of the irreducible bundle with
    GL(n) weight w on G(k,n); empty when the dotted weight degenerates."""
    w = tuple(int(x) for x in w)
    if len(w) != n:
        raise ValueError("weight length %d, expected %d" % (len(w), n))
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    rho = _rho(n)
    dotted = tuple(w[i] + rho[i] for i in range(n))
    if len(set(dotted)) < n:
        return {}
    ell = sum(1 for i in range(n) for j in range(i + 1, n)
              if dotted[i] < dotted[j])
    srt = sorted(dotted, reverse=True)
    delta = tuple(srt[i] - rho[i] for i in range(n))
    return {ell: weyl_dim(delta)}


def _check_chunk(chunk, length, what):
    chunk = tuple(int(x) for x in chunk)
    if len(chunk) != length:
        raise ValueError("%s must have %d entries, got %d"
                         % (what, length, len(chunk)))
    if any(chunk[i] < chunk[i + 1] for i in range(len(chunk) - 1)):
        raise ValueError("%s must be weakly decreasing" % what)
    return chunk


def _lr_restricted(a, b, rows):
    """Decompose S^a tensor S^b for GL(rows), entries possibly negative.

    Shift both factors into partitions with last entry 0, expand with at
    most rows parts, unshift.  Equivariance under det twists makes the
    shift harmless; a property test pins it.  Shifting down as well as up
    keeps the cost of a twist O(t) independent of t.
    """
    sa = -a[-1]
    sb = -b[-1]
    pa = Partition(tuple(x + sa for x in a))
    pb = Partition(tuple(x + sb for x in b))
    out = {}
    for nu, c in lr_coeffs(pa, pb, rows).items():
        parts = nu.parts
        full = parts + (0,) * (rows - len(parts))
        out[tuple(x - sa - sb for x in full)] = c
    return out


class BundleExpr:
    """Formal sum of bundles S^lam U* tensor S^mu Q* on one G(k,n).

    Stored canonically: twists live in lam (O(t) = det(U*)^t), and any
    det Q* power in mu is moved across using det Q* = O(-1), so canonical
    mu ends in 0.  Both rewrites shift the full GL(n) weight by a central
    vector, which the cohomology of the weight never sees.
    """

    __slots__ = ("k", "n", "terms")

    def __init__(self, k, n, terms):
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        canon = {}
        for (lam, mu), mult in terms.items():
            mult = int(mult)
            if mult == 0:
                continue
            if mult < 0:
                raise ValueError("multiplicities must be positive")
            lam = _check_chunk(lam, k, "U* weight")
            mu = _check_chunk(mu, n - k, "Q* weight")
            c = mu[-1]
            if c:
                lam = tuple(x - c for x in lam)
                mu = tuple(x - c for x in mu)
            key = (lam, mu)
            canon[key] = canon.get(key, 0) + mult
        self.k = k
        self.n = n
        self.terms = dict(sorted(canon.items()))

    @classmethod
    def structure_sheaf(cls, k, n):
        return cls(k, n, {((0,) * k, (0,) * (n - k)): 1})

    @classmethod
    def schur_u_dual(cls, lam, k, n):
        lam = tuple(lam) + (0,) * (k - len(lam))
        return cls(k, n, {(lam, (0,) * (n - k)): 1})

    @classmethod
    def schur_q_dual(cls, mu, k, n):
        mu = tuple(mu) + (0,) * (n - k - len(mu))
        return cls(k, n, {((0,) * k, mu): 1})

    def twist(self, t):
        return BundleExpr(self.k, self.n, {
            (tuple(x + t for x in lam), mu): m
            for (lam, mu), m in self.terms.items()})

    def dual(self):
        return BundleExpr(self.k, self.n, {
            (tuple(-x for x in reversed(lam)),
             tuple(-x for x in reversed(mu))): m
            for (lam, mu), m in self.terms.items()})

    def __add__(self, other):
        self._same_ambient(other)
        merged = dict(self.terms)
        for key, m in other.terms.items():
            merged[key] = merged.get(key, 0) + m
        return BundleExpr(self.k, self.n, merged)

    def tensor(self, other):
        self._same_ambient(other)
        out = {}
        for (la, ma), ca in self.terms.items():
            for (lb, mb), cb in other.terms.items():
                lams = _lr_restricted(la, lb, self.k)
                mus = _lr_restricted(ma, mb, self.n - self.k)
                for lam, cl in lams.items():
                    for mu, cm in mus.items():
                        key = (lam, mu)
                        out[key] = out.get(key, 0) + ca * cb * cl * cm
        return BundleExpr(self.k, self.n, out)

    def _same_ambient(self, other):
        if not isinstance(other, BundleExpr):
            raise TypeError("expected a BundleExpr")
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("mismatched ambient Grassmannian: G(%d,%d) vs "
                             "G(%d,%d)" % (self.k, self.n, other.k, other.n))

    @property
    def rank(self):
        total = 0
        for (lam, mu), m in self.terms.items():
            total += m * weyl_dim(lam) * weyl_dim(mu)
        return total

    def __eq__(self, other):
        return (isinstance(other, BundleExpr)
                and (self.k, self.n) == (other.k, other.n)
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.k, self.n, tuple(self.terms.items())))

    def __repr__(self):
        return "BundleExpr(k=%d, n=%d, %r)" % (self.k, self.n, self.terms)


# --- descriptor grammar -------------------------------------------------
#
#   expr   := factor (" * " factor)*
#   factor := atom twist?
#   atom   := "O" | "U*" | "Q*" | "S^" exps ("U*" | "Q*")
#   exps   := int | "(" int ("," int)* ")"
#   twist  := "(" int ")"
#
# The weight spread of a factor is first minus last entry of its U* weight
# plus the same of its Q* weight; a twist shifts every entry alike and
# leaves it unchanged.  Spreads add under tensor product (the Cartan
# component adds the weights), and the Littlewood-Richardson cost grows
# with them, so a descriptor's total spread is bounded.

MAX_SPREAD = 256

_TOKEN = re.compile(r"(U\*|Q\*|S\^|O|\(|\)|,|\*|-?\d+)")


def _tokenize(text):
    toks = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError("parse error at position %d: unexpected %r"
                             % (pos, text[pos]))
        toks.append((m.group(1), pos))
        pos = m.end()
    return toks


class _Cursor:
    __slots__ = ("toks", "i", "text")

    def __init__(self, toks, text):
        self.toks = toks
        self.i = 0
        self.text = text

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def pos(self):
        return self.toks[self.i][1] if self.i < len(self.toks) else len(self.text)

    def take(self, expected=None):
        if self.i >= len(self.toks):
            raise ValueError("parse error at position %d: unexpected end of "
                             "input" % len(self.text))
        tok, pos = self.toks[self.i]
        if expected is not None and tok != expected:
            raise ValueError("parse error at position %d: expected %r, got %r"
                             % (pos, expected, tok))
        self.i += 1
        return tok

    def take_int(self):
        tok, pos = self.toks[self.i] if self.i < len(self.toks) else (None, len(self.text))
        if tok is None or not re.fullmatch(r"-?\d+", tok):
            raise ValueError("parse error at position %d: expected an integer"
                             % pos)
        self.i += 1
        return int(tok)


def _parse_exps(cur):
    if cur.peek() == "(":
        cur.take("(")
        exps = [cur.take_int()]
        while cur.peek() == ",":
            cur.take(",")
            exps.append(cur.take_int())
        cur.take(")")
        return tuple(exps)
    return (cur.take_int(),)


def _parse_factor(cur, k, n):
    pos = cur.pos()
    tok = cur.take()
    if tok == "O":
        expr = BundleExpr.structure_sheaf(k, n)
    elif tok == "U*":
        expr = BundleExpr.schur_u_dual((1,), k, n)
    elif tok == "Q*":
        expr = BundleExpr.schur_q_dual((1,), k, n)
    elif tok == "S^":
        exps = _parse_exps(cur)
        which = cur.take()
        if which == "U*":
            if len(exps) > k:
                raise ValueError("parse error at position %d: U* weight has "
                                 "more than %d entries" % (pos, k))
            expr = BundleExpr.schur_u_dual(exps, k, n)
        elif which == "Q*":
            if len(exps) > n - k:
                raise ValueError("parse error at position %d: Q* weight has "
                                 "more than %d entries" % (pos, n - k))
            expr = BundleExpr.schur_q_dual(exps, k, n)
        else:
            raise ValueError("parse error at position %d: expected U* or Q* "
                             "after the Schur power" % pos)
    else:
        raise ValueError("parse error at position %d: unexpected %r"
                         % (pos, tok))
    if cur.peek() == "(":
        cur.take("(")
        t = cur.take_int()
        cur.take(")")
        expr = expr.twist(t)
    return expr


def parse_bundle(text, k, n):
    """Parse a bundle descriptor on G(k,n): O, O(t), U*, Q*, S^a U*,
    S^(a,b) U*, S^(..) Q*, tensor written as *, twist suffix (t).  The
    total weight spread may not exceed MAX_SPREAD; twists are unbounded."""
    cur = _Cursor(_tokenize(text), text)
    factors = [_parse_factor(cur, k, n)]
    while cur.peek() == "*":
        cur.take("*")
        factors.append(_parse_factor(cur, k, n))
    if cur.peek() is not None:
        raise ValueError("parse error at position %d: trailing %r"
                         % (cur.pos(), cur.peek()))
    spread = 0
    for f in factors:
        (lam, mu), = f.terms
        spread += lam[0] - lam[-1] + mu[0] - mu[-1]
    if spread > MAX_SPREAD:
        raise ValueError("descriptor %r has weight spread %d, more than %d"
                         % (text, spread, MAX_SPREAD))
    expr = factors[0]
    for f in factors[1:]:
        expr = expr.tensor(f)
    return expr


def hom_bundle(E, F):
    """Decomposition of E* tensor F into irreducibles."""
    E._same_ambient(F)
    return E.dual().tensor(F)


def _cohomology(H):
    """Cohomology table {i: dim} of a formal sum of irreducible bundles,
    summing the Bott table of every summand."""
    top = H.k * (H.n - H.k)
    table = {}
    for (lam, mu), mult in H.terms.items():
        for deg, d in bott(lam + mu, H.k, H.n).items():
            assert 0 <= deg <= top, "degree outside [0, dim]"
            table[deg] = table.get(deg, 0) + mult * d
    return table


def ext_table(E, F):
    """Ext table {i: dim} between E and F: the cohomology of
    hom_bundle(E, F)."""
    return _cohomology(hom_bundle(E, F))


def euler_char(table):
    return sum(d if deg % 2 == 0 else -d for deg, d in table.items())


_AMBIENT = re.compile(r"P(\d+)|G\((\d+),(\d+)\)|IG\(2,(\d+)\)")


def _ambient(variety):
    """(backend, k, n) for a variety id: ("grassmannian", k, n) for G(k,n)
    and Pn = G(1,n+1), ("hyperplane", 2, 2n) for IG(2,2n) with n >= 2,
    which sits in G(2,2n); None when no backend covers the id."""
    m = _AMBIENT.fullmatch(variety)
    if m is None:
        return None
    p, k, n, isotropic = m.groups()
    if p is not None:
        return "grassmannian", 1, int(p) + 1
    if k is not None:
        return "grassmannian", int(k), int(n)
    if int(isotropic) % 2 == 0 and int(isotropic) >= 4:
        return "hyperplane", 2, int(isotropic)
    return None


def collection_backend(variety):
    """Which Ext backend covers a variety id: "grassmannian" for G(k,n)
    and Pn, "hyperplane" for IG(2,2n), None otherwise."""
    found = _ambient(variety)
    return None if found is None else found[0]


class CollectionVerdict:
    """Per-pair outcome of an exceptionality check."""

    __slots__ = ("variety", "objects", "failures", "inconclusive")

    def __init__(self, variety, objects, failures, inconclusive=()):
        self.variety = variety
        self.objects = objects
        self.failures = list(failures)
        self.inconclusive = list(inconclusive)

    @property
    def ok(self):
        return not self.failures and not self.inconclusive

    def to_dict(self):
        return {
            "variety": self.variety,
            "objects": list(self.objects),
            "failures": self.failures,
            "inconclusive": self.inconclusive,
            "ok": self.ok,
        }

    def __repr__(self):
        state = "ok" if self.ok else ("%d failures, %d inconclusive"
                                      % (len(self.failures),
                                         len(self.inconclusive)))
        return "CollectionVerdict(%r, %s)" % (self.variety, state)


_NO_BACKEND = {"grassmannian": "no cohomology backend for variety %r",
               "hyperplane": "no hyperplane-section backend for variety %r"}


def _check(c, backend, ext):
    """The pair loop of both routes.  ext(E, F) returns (table, ambient),
    table None when the route cannot decide the pair.  Every object must
    have table {0: 1} and every strictly-later-to-earlier table must be
    empty; undecided pairs are recorded with their ambient data."""
    found = _ambient(c.variety)
    if found is None or found[0] != backend:
        raise ValueError(_NO_BACKEND[backend] % (c.variety,))
    _, k, n = found
    objects = twisted_objects(c)
    exprs = [parse_bundle(desc, k, n).twist(t) for desc, t in objects]
    labels = ["%s (%d)" % (desc, t) if t else desc for desc, t in objects]
    pairs = [({"kind": "exceptional", "object": labels[a]}, E, E, {0: 1})
             for a, E in enumerate(exprs)]
    pairs += [({"kind": "semiorthogonal", "source": labels[b],
                "target": labels[a]}, exprs[b], exprs[a], {})
              for b in range(len(exprs)) for a in range(b)]
    failures = []
    inconclusive = []
    for record, E, F, want in pairs:
        table, ambient = ext(E, F)
        if table is None:
            inconclusive.append(dict(record, ambient=ambient))
        elif table != want:
            failures.append(dict(record, table=table))
    return CollectionVerdict(c.variety, labels, failures, inconclusive)


def check_collection(c):
    """Exceptionality of a collection on a Grassmannian or projective
    space, from the Ext tables on the variety itself; no pair is left
    undecided."""
    return _check(c, "grassmannian", lambda E, F: (ext_table(E, F), None))


def ext_hyperplane(E, F):
    """Ext between restrictions to the isotropic Grassmannian inside
    G(2,2n), by the hyperplane-section long exact sequence.

    With T0 = ext(E,F) and T1 = ext(E,F(-1)) on the ambient space, the
    restricted Ext in degree i is T0[i] + T1[i+1] whenever no degree
    carries both tables at once; any overlap leaves a connecting map
    undetermined and the verdict is inconclusive.  Both tables come from
    one decomposition of Hom(E, F).
    """
    E._same_ambient(F)
    if E.k != 2 or E.n % 2 != 0 or E.n < 4:
        raise ValueError("hyperplane reduction needs ambient G(2,2n)")
    H = hom_bundle(E, F)
    t0 = _cohomology(H)
    # Hom(E, F(-1)) = Hom(E, F)(-1): tensor commutes with det twists
    t1 = _cohomology(H.twist(-1))
    overlap = sorted(set(t0) & set(t1))
    if overlap:
        return {"verdict": "inconclusive", "table": None,
                "ambient": {"hom": t0, "hom_twisted": t1},
                "overlap_degrees": overlap}
    # with disjoint supports the twisted table cannot sit in degree 0:
    # it would inject into an empty group
    assert 0 not in t1, "twisted Ext in degree 0 contradicts exactness"
    table = dict(t0)
    for deg, d in t1.items():
        table[deg - 1] = table.get(deg - 1, 0) + d
    verdict = "dims" if table else "vanishes"
    return {"verdict": verdict, "table": table,
            "ambient": {"hom": t0, "hom_twisted": t1},
            "overlap_degrees": []}


def check_collection_hyperplane(c):
    """Exceptionality of a collection on IG(2,2n), from ext_hyperplane
    on the ambient G(2,2n); a pair whose connecting map the tables leave
    open is reported as inconclusive, never passed."""
    def ext(E, F):
        r = ext_hyperplane(E, F)
        return r["table"], r["ambient"]
    return _check(c, "hyperplane", ext)
