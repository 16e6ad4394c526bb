"""Partitions, Littlewood-Richardson coefficients, and the rim-hook model
of the quantum cohomology of G(k,n) at q = 1.

Products are computed classically by tableau enumeration and then folded
into the k x (n-k) box by removing rim hooks of size n; the fold sign is
pinned by the nonnegativity of the resulting structure constants.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .algebra import FiniteCommAlgebra


class Partition:
    """Weakly decreasing positive parts; trailing zeros are dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        ps = tuple(int(p) for p in parts)
        while ps and ps[-1] == 0:
            ps = ps[:-1]
        if any(p <= 0 for p in ps):
            raise ValueError("parts must be positive")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = ps

    @property
    def weight(self):
        return sum(self.parts)

    def conjugate(self):
        if not self.parts:
            return Partition()
        return Partition(tuple(sum(1 for p in self.parts if p > c)
                               for c in range(self.parts[0])))

    def __len__(self):
        return len(self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)


class BoxPartition:
    """A partition confined to the k x (n-k) box of a fixed Grassmannian."""

    __slots__ = ("partition", "k", "n")

    def __init__(self, parts, k, n):
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        p = parts if isinstance(parts, Partition) else Partition(parts)
        if len(p) > k:
            raise ValueError("more than k parts")
        if p.parts and p.parts[0] > n - k:
            raise ValueError("part exceeds n - k")
        self.partition = p
        self.k = k
        self.n = n

    @property
    def parts(self):
        return self.partition.parts

    @property
    def weight(self):
        return self.partition.weight

    def __eq__(self, other):
        return isinstance(other, BoxPartition) and self.parts == other.parts \
            and self.k == other.k and self.n == other.n

    def __hash__(self):
        return hash((self.parts, self.k, self.n))

    def __repr__(self):
        return "BoxPartition(%r, %d, %d)" % (self.parts, self.k, self.n)


def _strips(shape, size, prev_cum):
    """Horizontal strips of `size` cells added to `shape`, as
    (new shape, cumulative-count profile) pairs.

    prev_cum caps this label's count through row r by the previous label's
    count through row r-1 (the lattice-word condition, batch by batch);
    None means first label, uncapped.
    """
    R = len(shape)
    out = []
    strip = [0] * R

    def rec(r, left, cum):
        if left == 0:
            new_shape = tuple(s + (strip[i] if i < r else 0)
                              for i, s in enumerate(shape))
            cums = []
            t = 0
            for i in range(R):
                t += strip[i] if i < r else 0
                cums.append(t)
            out.append((new_shape, tuple(cums)))
            return
        if r == R:
            return
        hi = left
        if r >= 1:
            hi = min(hi, shape[r - 1] - shape[r])
        if prev_cum is not None:
            hi = min(hi, (prev_cum[r - 1] if r >= 1 else 0) - cum)
        for s in range(hi, -1, -1):
            strip[r] = s
            rec(r + 1, left - s, cum + s)
            strip[r] = 0

    rec(0, size, 0)
    return out


def _trim(shape):
    t = list(shape)
    while t and t[-1] == 0:
        t.pop()
    return tuple(t)


@lru_cache(maxsize=None)
def _lr_table(lam, mu, rows):
    # sorted tuple of (nu, coefficient) over nu with at most `rows` parts;
    # cache-safe because immutable.  Strips only add cells, so a tableau
    # of a shape that fits is built entirely on the first `rows` rows
    if len(lam) > rows or len(mu) > rows:
        return ()
    R = max(1, rows)
    start = lam + (0,) * (R - len(lam))
    states = {(start, None): 1}
    for part in mu:
        nxt = {}
        for (shape, cum), cnt in states.items():
            for key in _strips(shape, part, cum):
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    table = {}
    for (shape, _cum), cnt in states.items():
        t = _trim(shape)
        table[t] = table.get(t, 0) + cnt
    return tuple(sorted(table.items()))


def lr_coeffs(lam, mu, rows=None):
    """Littlewood-Richardson expansion of the product of two Schur classes.

    Returns {nu: c} over all nu of weight |lam| + |mu| with c > 0 and, if
    rows is given, at most rows parts.
    """
    lam, mu = lam.parts, mu.parts
    # no nu has more than len(lam) + len(mu) parts; capping there keeps
    # one cache entry for every rows beyond it
    full = len(lam) + len(mu)
    cap = full if rows is None else min(rows, full)
    return {Partition(nu): c for nu, c in _lr_table(lam, mu, cap)}


def rim_hook_reduce(nu, k, n):
    """Fold a partition with at most k parts into the k x (n-k) box.

    Removes rim hooks of n cells until the class fits, tracking the sign
    and the number of removals; returns None when the class collapses to
    zero, and raises on more than k parts.
    """
    parts = nu.parts
    if len(parts) > k:
        raise ValueError("partition has more than %d parts" % k)
    beta = [parts[i] if i < len(parts) else 0 for i in range(k)]
    beta = [b + (k - 1 - i) for i, b in enumerate(beta)]
    sign = 1
    d = 0
    while True:
        b = max(beta)
        if b < n:
            break
        t = b - n
        if t in beta:
            return None
        height = 1 + sum(1 for x in beta if t < x < b)
        if (k - height) % 2:
            sign = -sign
        beta[beta.index(b)] = t
        d += 1
    beta.sort(reverse=True)
    folded = Partition(tuple(x - (k - 1 - i) for i, x in enumerate(beta)))
    return BoxPartition(folded, k, n), sign, d


def quantum_product(lam, mu):
    """Structure constants of the two box classes at q = 1.

    Classical expansion capped at k rows, then folded; the aggregated
    coefficients are three-point counts and must be nonnegative.
    """
    if (lam.k, lam.n) != (mu.k, mu.n):
        raise ValueError("mismatched Grassmannians: (%d,%d) vs (%d,%d)"
                         % (lam.k, lam.n, mu.k, mu.n))
    k, n = lam.k, lam.n
    rows = min(k, len(lam.parts) + len(mu.parts))
    out = {}
    for nu, c in _lr_table(lam.parts, mu.parts, rows):
        red = rim_hook_reduce(Partition(nu), k, n)
        if red is None:
            continue
        box, sign, _ = red
        out[box] = out.get(box, 0) + sign * c
    if any(c < 0 for c in out.values()):
        raise AssertionError("negative structure constant in G(%d,%d) product"
                             % (k, n))
    return {box: c for box, c in out.items() if c != 0}


def _box_shapes(rows, width):
    if rows == 0:
        return [()]
    out = []
    for first in range(width, 0, -1):
        for rest in _box_shapes(rows - 1, first):
            out.append((first,) + rest)
    out.append(())
    return out


def _label(parts):
    if not parts:
        return "1"
    return "s(%s)" % ",".join(str(p) for p in parts)


@lru_cache(maxsize=None)
def qh_grassmannian(k, n):
    """Quantum cohomology of G(k,n) at q = 1, built from the rim-hook fold.

    Basis the box partitions sorted by weight, grading |lam| mod n,
    anticanonical class n times the first special class.
    """
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    shapes = sorted(_box_shapes(k, n - k), key=lambda p: (sum(p), p))
    if len(shapes) != comb(n, k):
        raise AssertionError("box enumeration does not match C(n,k)")
    boxes = [BoxPartition(p, k, n) for p in shapes]
    index = {b.parts: i for i, b in enumerate(boxes)}
    dim = len(boxes)

    structure = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            vec = [Fraction(0)] * dim
            for box, c in quantum_product(boxes[i], boxes[j]).items():
                vec[index[box.parts]] = Fraction(c)
            vec = tuple(vec)
            structure[i][j] = vec
            structure[j][i] = vec

    one = Fraction(1)
    return FiniteCommAlgebra(
        name="G(%d,%d)" % (k, n),
        basis_labels=[_label(b.parts) for b in boxes],
        structure=structure,
        unit=tuple(one if i == index[()] else Fraction(0) for i in range(dim)),
        degrees=[b.weight % n for b in boxes],
        fano_index=n,
        anticanonical=tuple(Fraction(n) if i == index[(1,)] else Fraction(0)
                            for i in range(dim)),
        dim_X=k * (n - k),
    )
