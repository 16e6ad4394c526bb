"""Spectrum of a finite commutative algebra along its anticanonical direction.

Multiplication by the anticanonical vector has a generalized kernel (the
fiber of the spectrum over zero) and an invertible complement.  A Bezout
identity between the coprime factors of its characteristic polynomial
yields the idempotent that splits the algebra into those two ideals, and
everything downstream -- orbit counts, Hilbert functions, comparisons with
Milnor algebras -- is linear algebra over the two pieces.

kappa is taken to be the anticanonical multiplication itself, not a
primitive-root rescaling of it; every quantity reported here (dimensions,
point counts, orbit counts, Hilbert data) is invariant under that choice
of scale.
"""

from fractions import Fraction

from .algebra import FiniteCommAlgebra, jacobi_ring, mult_matrix
from .exactlin import (
    Matrix,
    Poly,
    bezout_coprime,
    charpoly,
    kernel_basis,
    poly_str,
    span_basis,
    split_at_zero,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


def nilradical(A):
    """Basis of the ideal of nilpotents: the kernel of the trace form.

    In characteristic zero the radical of (a, b) -> trace of multiplication
    by ab is exactly the nilradical, so one symmetric matrix kernel finds
    it without any factoring.
    """
    n = A.dim
    tau = [sum((A.structure[l][j][j] for j in range(n)), _ZERO)
           for l in range(n)]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = A.structure[i][j]
            row.append(sum((c * tau[l] for l, c in enumerate(cell) if c != 0),
                           _ZERO))
        rows.append(row)
    return kernel_basis(Matrix(rows))


def point_count(A):
    """Number of geometric points of Spec A: the dimension after killing
    nilpotents (finite reduced algebras in characteristic 0 are etale)."""
    return A.dim - len(nilradical(A))


def _kappa_charpoly(A):
    return charpoly(mult_matrix(A, A.anticanonical))


def _empty_part(A, name):
    return FiniteCommAlgebra(
        name=name, basis_labels=(), structure=(), unit=(), degrees=(),
        fano_index=A.fano_index, anticanonical=(), dim_X=A.dim_X)


def _induced_part(A, name, vectors, degrees, unit_vec, kappa_vec):
    if not vectors:
        return _empty_part(A, name)
    # the vectors are reduced echelon blocks with disjoint supports, one
    # block per degree, so the coordinates of a vector in their span are
    # its entries at the pivots
    pivots = [next(i for i, x in enumerate(v) if x != 0) for v in vectors]
    sparse = [[(i, x) for i, x in enumerate(v) if x != 0] for v in vectors]

    def coords(w):
        x = tuple(w[p] for p in pivots)
        rebuilt = [_ZERO] * len(w)
        for c, terms in zip(x, sparse):
            if c != 0:
                for i, y in terms:
                    rebuilt[i] += c * y
        if tuple(rebuilt) != tuple(w):
            raise AssertionError("vector outside the span of the fiber basis")
        return x

    k = len(vectors)
    structure = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            cell = coords(A.product(vectors[i], vectors[j]))
            structure[i][j] = cell
            structure[j][i] = cell
    return FiniteCommAlgebra(
        name=name,
        basis_labels=["b%d" % i for i in range(k)],
        structure=structure,
        unit=coords(unit_vec),
        degrees=degrees,
        fano_index=A.fano_index,
        anticanonical=coords(kappa_vec),
        dim_X=A.dim_X,
    )


def kappa_split(A, p=None):
    """Split A into the fiber over kappa = 0 and its invertible complement.

    Returns (A_zero, A_nonzero); p, if the caller already has it, is the
    characteristic polynomial of the anticanonical operator M on A, and is
    computed here otherwise.  It factors as x^a * g with g(0) != 0, and the
    Bezout identity u x^a + v g = 1 makes e0 = (v g)(M) 1 the idempotent
    projecting onto ker M^a along the invertible part.  Since A is
    commutative, (v g)(M) is multiplication by e0, so e0 comes from Horner
    on the unit vector with the algebra's own product, and the projector
    from the structure constants, with no matrix powers.  Both parts come
    back with induced structure constants on degree-homogeneous bases, so
    they are valid graded algebras in their own right.
    """
    if p is None:
        p = _kappa_charpoly(A)
    a, g = split_at_zero(p)
    if a == 0:
        return _empty_part(A, "%s (zero fiber)" % A.name), A
    if a == A.dim:
        return A, _empty_part(A, "%s (invertible fiber)" % A.name)
    u, v = bezout_coprime(Poly.x_power(a), g)
    e0 = (_ZERO,) * A.dim
    for c in reversed((v * g).coeffs):
        e0 = tuple(x + c * y for x, y in
                   zip(A.product(A.anticanonical, e0), A.unit))
    proj = mult_matrix(A, e0)
    if A.product(e0, e0) != e0:
        raise AssertionError("splitting idempotent is not idempotent")
    # the two ideals are graded, so collect each fiber degree by degree;
    # the projector preserves degrees even though single powers of M do not
    parts = {True: ([], []), False: ([], [])}
    n = A.dim
    for d in range(A.fano_index):
        idx = [i for i in range(n) if A.degrees[i] == d]
        if not idx:
            continue
        cols_zero = [tuple(proj.data[r][i] for r in range(n)) for i in idx]
        for vec in span_basis(cols_zero):
            parts[True][0].append(vec)
            parts[True][1].append(d)
        cols_one = [tuple((_ONE if r == i else _ZERO) - proj.data[r][i]
                          for r in range(n)) for i in idx]
        for vec in span_basis(cols_one):
            parts[False][0].append(vec)
            parts[False][1].append(d)
    if len(parts[True][0]) != a or len(parts[False][0]) != n - a:
        raise AssertionError("fiber dimensions disagree with the charpoly")
    kappa_zero = A.product(e0, A.anticanonical)
    kappa_one = tuple(x - y for x, y in zip(A.anticanonical, kappa_zero))
    one_minus = tuple(x - y for x, y in zip(A.unit, e0))
    A_zero = _induced_part(A, "%s (zero fiber)" % A.name,
                           parts[True][0], parts[True][1], e0, kappa_zero)
    A_nonzero = _induced_part(A, "%s (invertible fiber)" % A.name,
                              parts[False][0], parts[False][1],
                              one_minus, kappa_one)
    return A_zero, A_nonzero


def orbit_analysis(A_nonzero, m, g=None):
    """Orbit counts for the root-of-unity action on the invertible fiber.

    k_len divides the vector-space length, k_pts the geometric points;
    rotation_ok certifies eigenvalue invariance under multiplication by a
    primitive m-th root via the support of the characteristic polynomial
    g of kappa on the fiber (computed unless given), which comes back as
    "charpoly" next to the point count "points".
    """
    if m <= 0:
        raise ValueError("m must be positive")
    points = point_count(A_nonzero)
    k_len = Fraction(A_nonzero.dim, m)
    k_pts = Fraction(points, m)
    if g is None:
        g = _kappa_charpoly(A_nonzero)
    rotation_ok = all((g.degree - i) % m == 0
                      for i, c in enumerate(g.coeffs) if c != 0)
    return {
        "k_len": int(k_len) if k_len.denominator == 1 else k_len,
        "k_len_integral": k_len.denominator == 1,
        "k_pts": int(k_pts) if k_pts.denominator == 1 else k_pts,
        "k_pts_integral": k_pts.denominator == 1,
        "rotation_ok": rotation_ok,
        "points": points,
        "charpoly": g,
    }


def local_invariants(A_zero):
    """Length data of the fiber over zero: point count, Hilbert function
    of the radical filtration, and socle dimension."""
    if A_zero.dim == 0:
        return {"geometric_points": 0, "is_single_point": False,
                "hilbert_function": (), "socle_dim": 0}
    N = nilradical(A_zero)
    pts = A_zero.dim - len(N)
    hilbert = []
    current = [A_zero.basis_vector(i) for i in range(A_zero.dim)]
    while current:
        if N:
            nxt = span_basis([A_zero.product(v, w) for v in N for w in current])
        else:
            nxt = []
        hilbert.append(len(current) - len(nxt))
        current = nxt
    if N:
        rows = []
        for v in N:
            rows.extend(list(r) for r in mult_matrix(A_zero, v).data)
        socle = len(kernel_basis(Matrix(rows)))
    else:
        socle = A_zero.dim
    return {"geometric_points": pts, "is_single_point": pts == 1,
            "hilbert_function": tuple(hilbert), "socle_dim": socle}


def compare_with_jacobi(A_zero, label):
    """Invariant-level comparison of a zero fiber against an ADE Milnor
    algebra: dimension, points, Hilbert function, socle.  No isomorphism
    is attempted; matching invariants are necessary, not sufficient."""
    J = jacobi_ring(label)
    got = dict(local_invariants(A_zero), dim=A_zero.dim)
    want = dict(local_invariants(J), dim=J.dim)
    checks = {}
    for field in ("dim", "geometric_points", "hilbert_function", "socle_dim"):
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
        zp = dict(self.zero_part)
        zp["hilbert_function"] = list(zp["hilbert_function"])
        return {
            "name": self.name,
            "fano_index": self.fano_index,
            "dim_total": self.dim_total,
            "kappa_charpoly": poly_str(self.kappa_charpoly),
            "dim_zero_part": self.dim_zero_part,
            "dim_nonzero_part": self.dim_nonzero_part,
            "nonzero_semisimple": self.nonzero_semisimple,
            "nonzero_point_count": self.nonzero_point_count,
            "orbit_count_by_length": _json_count(self.orbit_count_by_length),
            "orbit_length_integral": self.orbit_length_integral,
            "orbit_count_by_points": _json_count(self.orbit_count_by_points),
            "orbit_points_integral": self.orbit_points_integral,
            "charpoly_rotation_invariant": self.charpoly_rotation_invariant,
            "zero_part": zp,
            "kappa_convention": "eigenvalues of anticanonical multiplication",
        }

    def __repr__(self):
        return ("SpectrumReport(%r, dim %d = %d + %d, k=%r)"
                % (self.name, self.dim_total, self.dim_nonzero_part,
                   self.dim_zero_part, self.orbit_count_by_length))


def quantum_spectrum_report(A):
    """Compose the split, orbit, and local analyses into one report."""
    p = _kappa_charpoly(A)
    A_zero, A_nonzero = kappa_split(A, p)
    if A_zero.dim + A_nonzero.dim != A.dim:
        raise AssertionError("fiber dimensions do not sum to the total")
    # kappa is nilpotent on the zero fiber and invertible on the other, so
    # the invertible fiber's charpoly is p with its factor x^a removed
    orbits = orbit_analysis(A_nonzero, A.fano_index, split_at_zero(p)[1])
    local = local_invariants(A_zero)
    if sum(local["hilbert_function"]) != A_zero.dim:
        raise AssertionError("Hilbert function does not sum to the fiber "
                             "dimension")
    return SpectrumReport(
        name=A.name,
        fano_index=A.fano_index,
        dim_total=A.dim,
        kappa_charpoly=p,
        dim_zero_part=A_zero.dim,
        dim_nonzero_part=A_nonzero.dim,
        nonzero_semisimple=orbits["points"] == A_nonzero.dim,
        nonzero_point_count=orbits["points"],
        orbit_count_by_length=orbits["k_len"],
        orbit_length_integral=orbits["k_len_integral"],
        orbit_count_by_points=orbits["k_pts"],
        orbit_points_integral=orbits["k_pts_integral"],
        charpoly_rotation_invariant=orbits["rotation_ok"],
        zero_part={
            "dim": A_zero.dim,
            "geometric_point_count": local["geometric_points"],
            "is_single_point": local["is_single_point"],
            "hilbert_function": local["hilbert_function"],
            "socle_dim": local["socle_dim"],
        },
    )
