"""Cohomology of irreducible homogeneous bundles on G(k,n) and the
exceptionality checks built on it.

The dotted-weight procedure: add the staircase rho, kill weights with a
repeated entry, otherwise sort and count inversions; the single surviving
cohomological degree carries the Weyl dimension of the sorted, unshifted
weight, which is the product of the sorted dotted weight's pairwise
differences over the superfactorial.  Both run as one pass over the
pairs of entries in itertools.  A term S^lam U* tensor S^mu Q* is
stored as the GL(n) weight (lam | mu) that this procedure reads.  That
identification and the descending sort are pinned by calibration, not
convention, and frozen by tests: H^0(U*) must be the n-dimensional
standard representation and H^0(O(1)) must have dimension C(n,k).
Tensor products expand each block by Littlewood-Richardson, except that
a det power shifts the other factor.  The descriptor parser checks the
ambient G(k,n) once, reads the text in one pass to one weight per
factor, and builds each factor's BundleExpr once, for the product.
Each (text, k, n) is parsed once per process: a memo keeps the
immutable canonical terms, and every call builds a new BundleExpr from
them, so no caller can change what a later one gets.  Refusals are not
memoized, and k and n must be ints (1.0 and True would find the entry
of 1).  The tensor step adds each Littlewood-Richardson product straight
into the canonical terms and sorts them once.  Hom(E, F) feeds E's dual
weights straight into it, and the hyperplane reduction reads its two
ambient tables in one pass over Hom's summands.  An Ext table reads each
summand's Bott table from a second memo, also kept for the life of the
process and also immutable: the public bott runs once per distinct
weight, and every table is a new dict summed in the order of Hom's terms.

Restriction to the isotropic Grassmannian IG(2,2n), a hyperplane section
of G(2,2n), is handled by a sufficient criterion on the two ambient Ext
tables; when the long exact sequence leaves a connecting map undetermined
the answer is reported as inconclusive, never guessed.
"""

import re
from functools import lru_cache
from itertools import combinations, starmap
from math import factorial, prod
from operator import add, lt, sub

from .lefschetz import twisted_objects
from .schur import lr_coeffs
from .varieties import parse_variety


def _weyl_quotient(dotted):
    """The Weyl dimension formula on a dotted weight: the product of its
    pairwise differences over the superfactorial 0! 1! ... (n-1)!."""
    num = prod(starmap(sub, combinations(dotted, 2)))
    den = prod(map(factorial, range(len(dotted))))
    if num % den or num <= 0:
        raise AssertionError("Weyl dimension must be a positive integer")
    return num // den


def _check_ambient(k, n):
    """k and n as ints (bools refused: the parse memo would take True for
    1) with 0 < k < n."""
    if type(k) is not int or type(n) is not int:
        raise TypeError("k and n must be ints, got %r and %r" % (k, n))
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")


def bott(w, k, n):
    """Cohomology table {degree: dim} of the irreducible bundle with
    GL(n) weight w on G(k,n); empty when the dotted weight degenerates."""
    _check_ambient(k, n)
    w = tuple(w)
    if {*map(type, w)} - {int}:
        raise TypeError("weight entries must be ints, got %r" % (w,))
    if len(w) != n:
        raise ValueError("weight length %d, expected %d" % (len(w), n))
    dotted = tuple(map(add, w, range(n - 1, -1, -1)))
    if len(set(dotted)) < n:
        return {}
    # the degree is the number of inversions of the dotted weight, and the
    # dimension that of the dominant weight it sorts to, read dotted
    ell = sum(starmap(lt, combinations(dotted, 2)))
    return {ell: _weyl_quotient(sorted(dotted, reverse=True))}


def _check_weight(w, k, n):
    """w as a tuple of n ints, each of w[:k] and w[k:] weakly decreasing."""
    w = tuple(w)
    if len(w) != n:
        raise ValueError("weight must have %d entries, got %d" % (n, len(w)))
    for what, block in (("U* weight", w[:k]), ("Q* weight", w[k:])):
        if {*map(type, block)} - {int}:
            raise TypeError("%s entries must be ints, got %r" % (what, block))
        if any(map(lt, block, block[1:])):
            raise ValueError("%s must be weakly decreasing" % what)
    return w


def _lr_restricted(a, b, rows):
    """Decompose S^a tensor S^b for GL(rows), entries possibly negative.

    Shift both factors into partitions with last entry 0, expand with at
    most rows parts, unshift.  Equivariance under det twists makes the
    shift harmless; a property test pins it.  Shifting down as well as up
    keeps the cost of a twist O(t) independent of t.  A constant factor
    is a det power, and tensoring by it shifts the other factor.
    """
    if a[0] == a[-1]:
        c = a[0]
        return {tuple([x + c for x in b]): 1}
    if b[0] == b[-1]:
        c = b[0]
        return {tuple([x + c for x in a]): 1}
    sa = -a[-1]
    sb = -b[-1]
    # the shifted entries are nonnegative and weakly decreasing, so
    # dropping the zeros trims them to partitions
    pa = tuple(x + sa for x in a if x + sa)
    pb = tuple(x + sb for x in b if x + sb)
    out = {}
    for nu, c in lr_coeffs(pa, pb, rows):
        full = nu + (0,) * (rows - len(nu))
        out[tuple(x - sa - sb for x in full)] = c
    return out


def _dual_weight(w, k):
    """The weight of the dual of the irreducible bundle with weight w:
    each block reversed and negated."""
    return tuple([-x for x in w[:k][::-1] + w[k:][::-1]])


def _tensor(k, n, left, right):
    """The canonical BundleExpr of the product of two formal sums given
    as (weight, mult) pairs on G(k,n), block by block by
    Littlewood-Richardson.  A weight need not end in 0: a central shift
    of a factor shifts every product alike, and the canonical form
    drops it.  Each product goes straight into the canonical dict,
    shifted by its Q* block's last entry; every multiplicity here is
    positive, so none is dropped, and the terms are sorted once."""
    canon = {}
    for a, ca in left:
        for b, cb in right:
            us = _lr_restricted(a[:k], b[:k], k).items()
            for q, cq in _lr_restricted(a[k:], b[k:], n - k).items():
                c = q[-1]
                if c:
                    q = tuple([x - c for x in q])
                m = ca * cb * cq
                for u, cu in us:
                    w = (tuple([x - c for x in u]) if c else u) + q
                    canon[w] = canon.get(w, 0) + m * cu
    expr = object.__new__(BundleExpr)
    expr.k = k
    expr.n = n
    expr.terms = dict(sorted(canon.items()))
    return expr


class BundleExpr:
    """Formal sum of bundles S^lam U* tensor S^mu Q* on one G(k,n); terms
    maps each weight lam | mu, a tuple of n ints, to its multiplicity.

    Stored canonically: twists live in lam (O(t) = det(U*)^t), and any det
    Q* power in mu is moved across using det Q* = O(-1), so a canonical
    weight ends in 0.  Both rewrites shift the weight by a central vector,
    which its cohomology never sees.
    """

    __slots__ = ("k", "n", "terms")

    def __init__(self, k, n, terms):
        _check_ambient(k, n)
        checked = []
        for w, mult in terms.items():
            if type(mult) is not int:
                raise TypeError("multiplicities must be ints, got %r"
                                % (mult,))
            if mult < 0:
                raise ValueError("multiplicities must be positive")
            checked.append((_check_weight(w, k, n), mult))
        self._canonical(k, n, checked)

    def _canonical(self, k, n, pairs):
        """Fill self from (weight, mult) pairs whose weights are already
        checked: each weight shifted to end in 0, zero multiplicities
        dropped, equal terms merged, terms sorted.  The operations below
        build their results here from the weights of their operands."""
        canon = {}
        for w, mult in pairs:
            c = w[-1]
            if c:
                w = tuple(x - c for x in w)
            if mult:
                canon[w] = canon.get(w, 0) + mult
        self.k = k
        self.n = n
        self.terms = dict(sorted(canon.items()))
        return self

    @classmethod
    def structure_sheaf(cls, k, n):
        _check_ambient(k, n)
        return cls(k, n, {(0,) * n: 1})

    def twist(self, t):
        return object.__new__(BundleExpr)._canonical(self.k, self.n, (
            (tuple(x + t for x in w[:self.k]) + w[self.k:], m)
            for w, m in self.terms.items()))

    def tensor(self, other):
        self._same_ambient(other)
        return _tensor(self.k, self.n, self.terms.items(),
                       other.terms.items())

    def _same_ambient(self, other):
        if not isinstance(other, BundleExpr):
            raise TypeError("expected a BundleExpr")
        if (self.k, self.n) != (other.k, other.n):
            raise ValueError("mismatched ambient Grassmannian: G(%d,%d) vs "
                             "G(%d,%d)" % (self.k, self.n, other.k, other.n))

    def __eq__(self, other):
        return (isinstance(other, BundleExpr)
                and (self.k, self.n) == (other.k, other.n)
                and self.terms == other.terms)

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
# The parser pops the tokens off a reversed list whose bottom is the end
# token; only an error pops that, so a peek at the top always finds one.
#
# The weight spread of a factor is first minus last entry of its U* block
# plus the same of its Q* block; a twist shifts every entry alike and
# leaves it unchanged.  Spreads add under tensor product (the Cartan
# component adds the weights), and the Littlewood-Richardson cost grows
# with them, so a descriptor's total spread is bounded.  A small spread
# still allows a long product of small factors, whose summands multiply
# (Q* to the m-th power on P10 has one per partition of m into at most
# 10 parts), so the running product's summands are bounded too.  The
# pair loop of a collection check is quadratic in its objects, so their
# number is bounded as well.  So is the work of the loop itself: every
# pair it decides costs at most the product of the two objects' summands,
# which may not exceed MAX_TERMS, and their sum over all pairs may not
# exceed what MAX_OBJECTS irreducible objects need.  One summand pair
# can still take millions of Littlewood-Richardson steps (the staircase
# S^(6,5,4,3,2,1) Q* with itself on P10), so each expansion stops after
# schur.MAX_LR_STEPS of them.

MAX_SPREAD = 256
MAX_TERMS = 64
MAX_OBJECTS = 128

# whitespace (\s is str.isspace()), then a token or a character starting none
_TOKEN = re.compile(r"\s*(?:(U\*|Q\*|S\^|O|\(|\)|,|\*|-?[0-9]+)|(\S))")


def _tokenize(text):
    """(token, position) pairs: the end token (None, len(text)) first,
    then the tokens of text from last to first, so pops read them in
    order."""
    toks = []
    for m in _TOKEN.finditer(text):
        tok, bad = m.groups()
        if bad:
            raise ValueError("parse error at position %d: unexpected %r"
                             % (m.start(2), bad))
        toks.append((tok, m.start(1)))
    toks.append((None, len(text)))
    toks.reverse()
    return toks


def _take(toks, expected=None):
    """Pop the next token, which may not be the end, nor other than
    expected when that is given."""
    tok, pos = toks.pop()
    if tok is None:
        raise ValueError("parse error at position %d: unexpected end of "
                         "input" % pos)
    if expected is not None and tok != expected:
        raise ValueError("parse error at position %d: expected %r, got %r"
                         % (pos, expected, tok))
    return tok


def _take_int(toks):
    tok, pos = toks.pop()
    # of the tokens, only the integers end in a digit
    if tok is None or tok[-1] not in "0123456789":
        raise ValueError("parse error at position %d: expected an integer"
                         % pos)
    try:
        return int(tok)
    except ValueError:
        # the only refusal left is CPython's limit on the digits of an
        # integer read from a string
        raise ValueError("parse error at position %d: integer has too many "
                         "digits" % pos) from None


def _parse_factor(toks, k, n):
    """One factor's weight, off the reversed token list: built once,
    checked only when a Schur power spells it out, then twisted."""
    pos = toks[-1][1]
    tok = _take(toks)
    if tok == "O":
        w = (0,) * n
    elif tok == "U*":
        w = (1,) + (0,) * (n - 1)
    elif tok == "Q*":
        w = (0,) * k + (1,) + (0,) * (n - k - 1)
    elif tok == "S^":
        if toks[-1][0] == "(":
            toks.pop()
            exps = [_take_int(toks)]
            while toks[-1][0] == ",":
                toks.pop()
                exps.append(_take_int(toks))
            _take(toks, ")")
        else:
            exps = [_take_int(toks)]
        which = _take(toks)
        if which not in ("U*", "Q*"):
            raise ValueError("parse error at position %d: expected U* or Q* "
                             "after the Schur power" % pos)
        rank = k if which == "U*" else n - k
        if len(exps) > rank:
            raise ValueError("parse error at position %d: %s weight has more "
                             "than %d entries" % (pos, which, rank))
        exps = tuple(exps) + (0,) * (rank - len(exps))
        w = _check_weight(exps + (0,) * (n - k) if which == "U*"
                          else (0,) * k + exps, k, n)
    else:
        raise ValueError("parse error at position %d: unexpected %r"
                         % (pos, tok))
    if toks[-1][0] == "(":
        toks.pop()
        t = _take_int(toks)
        _take(toks, ")")
        w = tuple([x + t for x in w[:k]]) + w[k:]
    return w


def parse_bundle(text, k, n):
    """Parse a bundle descriptor on G(k,n): O, O(t), U*, Q*, S^a U*,
    S^(a,b) U*, S^(..) Q*, tensor written as *, twist suffix (t).  The
    total weight spread may not exceed MAX_SPREAD, nor the summands of
    the product MAX_TERMS; twists are unbounded.  Each call returns a
    new BundleExpr, built from the memo of its canonical terms."""
    _check_ambient(k, n)
    expr = object.__new__(BundleExpr)
    expr.k = k
    expr.n = n
    expr.terms = dict(_parsed(text, k, n))
    return expr


@lru_cache(maxsize=None)
def _parsed(text, k, n):
    """The canonical ((weight, mult), ...) terms of a descriptor on a
    checked G(k,n): immutable, so one parse serves every later call on
    the same text; a refused text raises again, since no exception is
    cached."""
    toks = _tokenize(text)
    weights = [_parse_factor(toks, k, n)]
    while toks[-1][0] == "*":
        toks.pop()
        weights.append(_parse_factor(toks, k, n))
    tok, pos = toks[-1]
    if tok is not None:
        raise ValueError("parse error at position %d: trailing %r"
                         % (pos, tok))
    spread = sum(w[0] - w[k - 1] + w[k] - w[-1] for w in weights)
    if spread > MAX_SPREAD:
        raise ValueError("descriptor %r has weight spread %d, more than %d"
                         % (text, spread, MAX_SPREAD))
    expr, *factors = [object.__new__(BundleExpr)._canonical(k, n, ((w, 1),))
                      for w in weights]
    for f in factors:
        expr = expr.tensor(f)
        if len(expr.terms) > MAX_TERMS:
            raise ValueError("descriptor %r has more than %d summands"
                             % (text, MAX_TERMS))
    return tuple(expr.terms.items())


def hom_bundle(E, F):
    """Decomposition of E* tensor F into irreducibles.  The dual weights
    of E go straight into the tensor step; no canonical E* is built."""
    E._same_ambient(F)
    k = E.k
    return _tensor(k, E.n, [(_dual_weight(w, k), m)
                            for w, m in E.terms.items()], F.terms.items())


@lru_cache(maxsize=None)
def _bott_table(w, k, n):
    """The Bott table of a stored weight as ((degree, dim),): immutable,
    so one evaluation serves every later summand with the same weight.
    A miss calls the public bott, which keeps its checks."""
    table = tuple(bott(w, k, n).items())
    for deg, _ in table:
        if not 0 <= deg <= k * (n - k):
            raise AssertionError("degree outside [0, dim]")
    return table


def _cohomology(H, twists=(0,)):
    """Cohomology tables {i: dim} of H(t), one for each t in twists, in
    one pass over the summands of H, summing the Bott table of each.  A
    twist shifts the U* block of a weight and keeps it ending in 0."""
    k, n = H.k, H.n
    tables = [{} for _ in twists]
    for w, mult in H.terms.items():
        for t, table in zip(twists, tables):
            wt = tuple([x + t for x in w[:k]]) + w[k:] if t else w
            for deg, d in _bott_table(wt, k, n):
                table[deg] = table.get(deg, 0) + mult * d
    return tables


def ext_table(E, F):
    """Ext table {i: dim} between E and F: the cohomology of
    hom_bundle(E, F)."""
    return _cohomology(hom_bundle(E, F))[0]


def collection_backend(variety):
    """Which Ext backend covers a variety id: "grassmannian" for G(k,n)
    and Pn, "hyperplane" for IG(2,2n), None otherwise."""
    found = parse_variety(variety)
    return None if found is None else found.backend


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
    empty; undecided pairs are recorded with their ambient data.  Block 0
    holds each entry, which is parsed once; the pair (E(s), F(t)) is
    decided once per (E, F, t - s), as ext(E, F(t - s))."""
    found = parse_variety(c.variety)
    if found is None or found.backend != backend:
        raise ValueError(_NO_BACKEND[backend] % (c.variety,))
    # the support is read padded to the collection's Fano index, so refuse
    # one that is not the variety's (IG(2,n) has n - 1) before reading it
    fano_index = found.n - (backend == "hyperplane")
    if c.fano_index != fano_index:
        raise ValueError("Fano index mismatch: variety %d, collection %d"
                         % (fano_index, c.fano_index))
    # the support counts the objects: refuse a long one before building it
    if sum(c.support) > MAX_OBJECTS:
        raise ValueError("collection has %d objects, more than %d"
                         % (sum(c.support), MAX_OBJECTS))
    objects = twisted_objects(c)
    entries = {desc: parse_bundle(desc, found.k, found.n)
               for desc in dict.fromkeys(c.starting_block[:c.support[0]])}
    labels = ["%s (%d)" % (desc, t) if t else desc for desc, t in objects]
    # the Ext of a pair costs the product of the two sides' summands; an
    # object with itself is the dearest pair it takes part in
    sizes = [len(entries[desc].terms) for desc, _ in objects]
    for label, s in zip(labels, sizes):
        if s * s > MAX_TERMS:
            raise ValueError("object %s has %d summands, so its Ext with "
                             "itself needs %d summand pairs, more than %d"
                             % (label, s, s * s, MAX_TERMS))
    work = (sum(sizes) ** 2 + sum(s * s for s in sizes)) // 2
    budget = MAX_OBJECTS * (MAX_OBJECTS + 1) // 2
    if work > budget:
        raise ValueError("collection needs %d summand pairs, more than %d"
                         % (work, budget))
    pairs = [({"kind": "exceptional", "object": labels[a]}, o, o, {0: 1})
             for a, o in enumerate(objects)]
    pairs += [({"kind": "semiorthogonal", "source": labels[b],
                "target": labels[a]}, objects[b], objects[a], {})
              for b in range(len(objects)) for a in range(b)]
    decided = {}
    failures = []
    inconclusive = []
    for record, (e, s), (f, t), want in pairs:
        if (e, f, t - s) not in decided:
            decided[e, f, t - s] = ext(entries[e], entries[f].twist(t - s))
        table, ambient = decided[e, f, t - s]
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
    one pass over one decomposition of Hom(E, F).
    """
    E._same_ambient(F)
    if E.k != 2 or E.n % 2 != 0 or E.n < 4:
        raise ValueError("hyperplane reduction needs ambient G(2,2n)")
    # Hom(E, F(-1)) = Hom(E, F)(-1): tensor commutes with det twists
    t0, t1 = _cohomology(hom_bundle(E, F), (0, -1))
    overlap = sorted(set(t0) & set(t1))
    if overlap:
        return {"verdict": "inconclusive", "table": None,
                "ambient": {"hom": t0, "hom_twisted": t1},
                "overlap_degrees": overlap}
    # with disjoint supports the twisted table cannot sit in degree 0:
    # it would inject into an empty group
    if 0 in t1:
        raise AssertionError("twisted Ext in degree 0 contradicts exactness")
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
