"""Spectrum of a finite commutative algebra along its anticanonical direction.

Multiplication by the anticanonical vector has a generalized kernel (the
fiber of the spectrum over zero) and an invertible complement.  By
Fitting's lemma a power of that operator has exactly the generalized
kernel as its kernel and the complement as its image, and both are
ideals, so the two fibers are quotients of the algebra by them.
Everything downstream -- orbit counts, Hilbert functions, comparisons with
Milnor algebras -- is linear algebra over the two pieces.

The report builds only the zero fiber, the object compared with the
residual category.  Of the invertible fiber it needs the dimension and
the point count: the algebra is the product of the two fibers and trace
forms add, so those are the ring's less the zero fiber's.  kappa_split
builds both fibers through the same quotient and is kept as the oracle.

The work follows the Z/m grading by the Fano index m.  kappa has degree
1, so its operator M maps each graded piece V_d to V_{d+1} and is read
as the cycle of those m blocks: the characteristic polynomial comes from
the product of the blocks around the cycle on the smallest piece, the
powers of M are products of blocks from one piece to another, so their
kernels and images are found piece by piece, and the trace form pairs
V_d only with V_-d, so the nilradical is the sum of the kernels of those
small blocks and the point count the sum of their ranks.  The rings of
index 1 are the case of a single block.

kappa is taken to be the anticanonical multiplication itself, not a
primitive-root rescaling of it; every quantity reported here (dimensions,
point counts, orbit counts, Hilbert data) is invariant under that choice
of scale.
"""

from fractions import Fraction
from math import lcm

from .algebra import FiniteCommAlgebra, _nonzero, jacobi_ring
from .exactlin import (
    _ZERO,
    Matrix,
    Poly,
    charpoly,
    clear_denominators,
    integer_echelon,
    kernel_basis,
    poly_str,
    span_basis,
    split_at_zero,
)


def _pieces(A):
    """The basis indices of each degree, in order: pieces[d] spans V_d."""
    pieces = [[] for _ in range(A.fano_index)]
    for i, d in enumerate(A.degrees):
        pieces[d].append(i)
    return pieces


def _embed(n, idx, v):
    """The vector of width n with the entries of v at the indices idx."""
    out = [_ZERO] * n
    for i, x in zip(idx, v):
        out[i] = x
    return tuple(out)


def _last_nonzero(v):
    return max(i for i, x in enumerate(v) if x)


def _trace_blocks(A):
    """The trace form's blocks, one per nonempty piece V_d: the indices
    of V_d and den^2 times the form's integer rows from V_d to V_-d.

    An element of nonzero degree shifts every piece and has trace 0, so
    the form pairs V_d only with V_-d and is the sum of these blocks.
    """
    pieces = _pieces(A)
    rows = A.rows
    # tau[l] is den times the trace of multiplication by b_l
    tau = [0] * A.dim
    for l in pieces[0]:
        tau[l] = sum(c for j, cell in enumerate(rows[l])
                     for k, c in cell if k == j)
    for d, idx in enumerate(pieces):
        if idx:
            yield idx, [[sum(c * tau[l] for l, c in rows[i][j]) for j in idx]
                        for i in pieces[-d % A.fano_index]]


def nilradical(A):
    """Basis of the ideal of nilpotents: the kernel of the trace form.

    In characteristic zero the radical of (a, b) -> trace of multiplication
    by ab is exactly the nilradical, so symmetric matrix kernels find it
    without any factoring.  The form is built from the integer rows, so
    it comes out scaled by den^2, which leaves its kernel as it is; its
    kernel is the sum over d of the kernels of the blocks from V_d to
    V_-d.  Each block's kernel basis is the canonical one on its own
    piece; sorted by free column, which is each vector's last nonzero
    entry, the embedded vectors form the canonical kernel basis of the
    whole form.
    """
    basis = [_embed(A.dim, idx, v) for idx, block in _trace_blocks(A)
             for v in kernel_basis(block, len(idx))]
    basis.sort(key=_last_nonzero)
    return basis


def point_count(A):
    """Number of geometric points of Spec A: the dimension after killing
    nilpotents (finite reduced algebras in characteristic 0 are etale).

    That is the rank of the trace form, the sum of its blocks' ranks, so
    by rank-nullity A.dim less the length of the nilradical.
    """
    return sum(len(integer_echelon(block)[0])
               for _idx, block in _trace_blocks(A))


def _apply(block, w):
    return [sum(b * x for b, x in zip(row, w) if b) for row in block]


class _KappaCycle:
    """kappa's operator M on A as the cycle of its graded blocks.

    One pass over the integer rows reads scale * M, with scale = den
    times kappa's common denominator; blocks[d] is its integer matrix from
    V_d to V_{d+1 mod m}, rows by pieces[d + 1], columns by pieces[d].
    An entry that leaves that cycle raises AssertionError: every fact
    below rests on it.
    """

    __slots__ = ("pieces", "blocks", "scale")

    def __init__(self, A):
        m = A.fano_index
        pieces = _pieces(A)
        pos = {i: r for idx in pieces for r, i in enumerate(idx)}
        kappa, dk = clear_denominators(A.anticanonical)
        terms = [(l, c) for l, c in enumerate(kappa) if c]
        blocks = [[[0] * len(pieces[d]) for _ in pieces[(d + 1) % m]]
                  for d in range(m)]
        for j, d in enumerate(A.degrees):
            up = (d + 1) % m
            block = blocks[d]
            for l, c in terms:
                for k, s in A.rows[l][j]:
                    if A.degrees[k] != up:
                        raise AssertionError(
                            "kappa * b%d has a component in degree %d, not "
                            "%d" % (j, A.degrees[k], up))
                    block[pos[k]][pos[j]] += c * s
        self.pieces = pieces
        self.blocks = blocks
        self.scale = A.den * dk

    def around(self, w, start=0):
        """scale^m times M^m applied to the integer vector w on V_start."""
        m = len(self.blocks)
        for t in range(m):
            w = _apply(self.blocks[(start + t) % m], w)
        return w

    def charpoly(self):
        """det(xI - M) = x^(N - m n) det(x^m I - P), with P the product of
        the blocks around the cycle on a smallest piece, of size n.

        Each nonzero eigenvalue of M is carried to every piece by the
        cycle, so the m-th powers of the nonzero eigenvalues are those of
        P on any piece, with the same multiplicities.
        """
        m = len(self.blocks)
        sizes = [len(idx) for idx in self.pieces]
        n = min(sizes)
        j = sizes.index(n)
        S = self.scale ** m
        cols = [self.around([int(r == c) for r in range(n)], j)
                for c in range(n)]
        q = charpoly(Matrix([[Fraction(col[r], S) if col[r] else _ZERO
                              for col in cols] for r in range(n)], cols=n))
        N = sum(sizes)
        coeffs = [_ZERO] * (N + 1)
        for i, b in enumerate(q.coeffs):
            coeffs[N - m * (n - i)] = b
        return Poly(coeffs)


def _empty_part(A, name):
    return object.__new__(FiniteCommAlgebra)._store(
        name=name, basis_labels=(), cells=[], den=1, unit=(), degrees=(),
        fano_index=A.fano_index, anticanonical=(), dim_X=A.dim_X)


def _quotient(A, name, ideal):
    """A modulo the ideal spanned by the integer rows ideal.

    Each row is the sorted nonzero (k, int) pairs of a reduced echelon
    vector times the positive value s at its pivot p, its first entry,
    and is 0 at the other pivots; so modulo the ideal b_p is minus the
    tail of p's row over s, and A's b_k at the other columns, with their
    labels and degrees, are a basis of the quotient.  Cells, unit and
    kappa are images of A's, read off the integer rows with the tails
    cleared once over the lcm L of the pivot values; the cells stay
    integers over A.den * L and go to the constructor's private step.
    """
    L = lcm(*(row[0][1] for row in ideal))
    pivots = [row[0][0] for row in ideal]
    keep = sorted(set(range(A.dim)).difference(pivots))
    new = {k: i for i, k in enumerate(keep)}
    # L times the image of each b_k, in the quotient basis
    image = {k: [(i, L)] for k, i in new.items()}
    for row in ideal:
        s = L // row[0][1]
        image[row[0][0]] = [(new[k], -s * x) for k, x in row[1:]]

    def reduce(pairs):
        # pairs are (k, c) with ints c; L times their image, as a cell
        out = {}
        for k, c in pairs:
            for i, x in image[k]:
                out[i] = out.get(i, 0) + c * x
        return out

    def dense(v):
        ints, d = clear_denominators(v)
        cell = reduce(enumerate(ints))
        return tuple(Fraction(cell.get(i, 0), d * L)
                     for i in range(len(keep)))

    return object.__new__(FiniteCommAlgebra)._store(
        name=name,
        basis_labels=[A.basis_labels[k] for k in keep],
        cells=[[reduce(A.rows[i][k]) for k in keep[a:]]
               for a, i in enumerate(keep)],
        den=A.den * L,
        unit=dense(A.unit),
        degrees=tuple(A.degrees[k] for k in keep),
        fano_index=A.fano_index,
        anticanonical=dense(A.anticanonical),
        dim_X=A.dim_X,
    )


def _integer_rows(pieces, bases):
    """The vectors of each bases[t], which live on the piece pieces[t], as
    _quotient's integer rows of A's width: each is cleared of denominators
    at its piece's own width, and its nonzero entries are moved to A's
    indices, which keeps them sorted."""
    return [[(idx[i], x) for i, x in enumerate(clear_denominators(v)[0]) if x]
            for idx, basis in zip(pieces, bases) for v in basis]


def _fitting_power(A, a, cycle):
    """The columns of scale^r M^r on each piece and the integer rows of
    im M^r, for the least r at which the kernels of M^r on the pieces add
    up to a.

    M^r maps each piece V_d to V_{d+r}, so r steps through the blocks; the
    kernel on V_d has dimension |V_d| minus the rank of its image, the
    length of the image's reduced echelon basis, so r comes from ranks
    alone.  By Fitting's lemma r never passes a.
    """
    pieces, m = cycle.pieces, len(cycle.blocks)
    # cols[d] is scale^r times M^r on V_d, column by column in V_{d+r}
    cols = [[[int(i == j) for i in range(len(idx))] for j in range(len(idx))]
            for idx in pieces]
    for r in range(1, a + 1):
        cols = [[_apply(cycle.blocks[(d + r - 1) % m], w) for w in piece]
                for d, piece in enumerate(cols)]
        images = [span_basis(piece) for piece in cols]
        if sum(map(len, images)) == A.dim - a:
            break
    else:
        raise AssertionError("fiber dimensions disagree with the charpoly")
    return cols, _integer_rows([pieces[(d + r) % m] for d in range(m)],
                               images)


def kappa_split(A):
    """Split A into the fiber over kappa = 0 and its invertible complement.

    Returns (A_zero, A_nonzero).  By Fitting's lemma A is the direct sum
    of the ideals ker M^r and im M^r, M the anticanonical operator, once r
    reaches the nilpotency index of M on its generalized kernel, whose
    dimension a is the order of its characteristic polynomial at zero;
    then A_zero = A / im M^r and A_nonzero = A / ker M^r.  The reduced
    echelon bases of both ideals are collected piece by piece, so both
    quotients are graded algebras on some of A's own basis elements.
    The report builds only A_zero, the same way; this full split is kept
    as its oracle.
    """
    cycle = _KappaCycle(A)
    a, _g = split_at_zero(cycle.charpoly())
    if a == 0:
        return _empty_part(A, "%s (zero fiber)" % A.name), A
    if a == A.dim:
        return A, _empty_part(A, "%s (invertible fiber)" % A.name)
    cols, image = _fitting_power(A, a, cycle)
    kernels = [span_basis(kernel_basis(list(zip(*piece)), len(piece)))
               for piece in cols]
    return (_quotient(A, "%s (zero fiber)" % A.name, image),
            _quotient(A, "%s (invertible fiber)" % A.name,
                      _integer_rows(cycle.pieces, kernels)))


def orbit_analysis(dim, points, m, g):
    """Orbit counts for the root-of-unity action on the invertible fiber,
    from its dimension dim and its number of geometric points.

    orbit_count_by_length divides the vector-space length by m,
    orbit_count_by_points the geometric points; charpoly_rotation_invariant
    certifies eigenvalue invariance under multiplication by a primitive
    m-th root via the support of g, the characteristic polynomial of kappa
    on the fiber.  The keys are the report's.
    """
    if m <= 0:
        raise ValueError("m must be positive")
    k_len = Fraction(dim, m)
    k_pts = Fraction(points, m)
    return {
        "nonzero_point_count": points,
        "nonzero_semisimple": points == dim,
        "orbit_count_by_length":
            int(k_len) if k_len.denominator == 1 else k_len,
        "orbit_length_integral": k_len.denominator == 1,
        "orbit_count_by_points":
            int(k_pts) if k_pts.denominator == 1 else k_pts,
        "orbit_points_integral": k_pts.denominator == 1,
        "charpoly_rotation_invariant": all(
            (g.degree - i) % m == 0 for i, c in enumerate(g.coeffs) if c != 0),
    }


def local_invariants(A_zero):
    """The report's zero_part: length, point count, Hilbert function of
    the radical filtration, and socle dimension of the fiber over zero.

    The filtration is walked as N, N^2, G N^2, G N^3, ...: the vectors G
    of N that raise the rank over N^2 lift a basis of N/N^2, so by
    Nakayama they generate the nilpotent ideal N, which gives N^(k+1) =
    G N^k and socle = Ann(N) = Ann(G).  Every product is of integer
    vectors, and every span is an integer echelon: only dimensions are
    read, and scaling a vector leaves them as they are.
    """
    if A_zero.dim == 0:
        return {"dim": 0, "geometric_point_count": 0,
                "is_single_point": False, "hilbert_function": (),
                "socle_dim": 0}
    N = [clear_denominators(v)[0] for v in nilradical(A_zero)]
    pts = A_zero.dim - len(N)
    terms = [_nonzero(v) for v in N]
    times = A_zero.sparse_product
    power, _ = integer_echelon([times(u, v) for i, u in enumerate(terms)
                                for v in terms[i:]])
    _, lifted = integer_echelon(N, power)
    gens = [terms[i] for i in lifted]
    # N A = N, so the filtration starts at N with the point count
    hilbert = [pts]
    size = len(N)
    while size:
        # N is nilpotent on a valid ring, so by Nakayama each step shrinks
        if len(power) >= size:
            raise AssertionError("the radical filtration stalls at "
                                 "dimension %d: N is not nilpotent"
                                 % len(power))
        hilbert.append(size - len(power))
        size = len(power)
        power, _ = integer_echelon([times(g, _nonzero(w)) for g in gens
                                    for w in power])
    # the socle: the kernel of G's operators stacked, all of A_zero if G = [];
    # column j of the stack is the products g b_j
    ops, _ = integer_echelon([[x for g in gens for x in times(g, ((j, 1),))]
                              for j in range(A_zero.dim)])
    return {"dim": A_zero.dim, "geometric_point_count": pts,
            "is_single_point": pts == 1, "hilbert_function": tuple(hilbert),
            "socle_dim": A_zero.dim - len(ops)}


def compare_with_jacobi(A_zero, label):
    """Invariant-level comparison of a zero fiber against an ADE Milnor
    algebra: dimension, points, Hilbert function, socle.  No isomorphism
    is attempted; matching invariants are necessary, not sufficient."""
    got = local_invariants(A_zero)
    want = local_invariants(jacobi_ring(label))
    checks = {}
    for field in ("dim", "geometric_point_count", "hilbert_function",
                  "socle_dim"):
        checks[field] = {"value": got[field], "expected": want[field],
                         "match": got[field] == want[field]}
    return {"type": label, "checks": checks,
            "match": all(c["match"] for c in checks.values())}


def _json_count(x):
    if isinstance(x, Fraction):
        return [x.numerator, x.denominator]
    return x


class SpectrumReport:
    """Full spectrum summary for one algebra."""

    __slots__ = ("name", "fano_index", "dim_total", "kappa_charpoly",
                 "dim_zero_part", "dim_nonzero_part", "nonzero_semisimple",
                 "nonzero_point_count", "orbit_count_by_length",
                 "orbit_length_integral", "orbit_count_by_points",
                 "orbit_points_integral", "charpoly_rotation_invariant",
                 "zero_part")

    def __init__(self, **fields):
        for slot in self.__slots__:
            setattr(self, slot, fields.pop(slot))
        if fields:
            raise TypeError("unexpected fields: %s" % sorted(fields))

    def to_dict(self):
        out = {slot: getattr(self, slot) for slot in self.__slots__}
        out["kappa_charpoly"] = poly_str(self.kappa_charpoly)
        for slot in ("orbit_count_by_length", "orbit_count_by_points"):
            out[slot] = _json_count(out[slot])
        out["zero_part"] = dict(self.zero_part, hilbert_function=list(
            self.zero_part["hilbert_function"]))
        out["kappa_convention"] = "eigenvalues of anticanonical multiplication"
        return out

    def __repr__(self):
        return ("SpectrumReport(%r, dim %d = %d + %d, k=%r)"
                % (self.name, self.dim_total, self.dim_nonzero_part,
                   self.dim_zero_part, self.orbit_count_by_length))


def quantum_spectrum_report(A):
    """Compose the split, orbit, and local analyses into one report.

    Only the zero fiber A / im kappa^r is built: the invertible fiber has
    the ring's dimension and points less the zero fiber's, and kappa's
    charpoly on it is p with the factor x^a removed.  The ring's points
    are the ranks of its trace-form blocks, so its nilradical is never
    built.
    """
    cycle = _KappaCycle(A)
    p = cycle.charpoly()
    a, g = split_at_zero(p)
    if a == 0:
        A_zero = _empty_part(A, "%s (zero fiber)" % A.name)
    elif a == A.dim:
        A_zero = A
    else:
        A_zero = _quotient(A, "%s (zero fiber)" % A.name,
                           _fitting_power(A, a, cycle)[1])
    local = local_invariants(A_zero)
    points = 0 if a == A.dim else (
        point_count(A) - local["geometric_point_count"])
    orbits = orbit_analysis(A.dim - a, points, A.fano_index, g)
    return SpectrumReport(
        name=A.name, fano_index=A.fano_index, dim_total=A.dim,
        kappa_charpoly=p, dim_zero_part=a,
        dim_nonzero_part=A.dim - a, zero_part=local, **orbits)
