"""Partitions, Littlewood-Richardson coefficients, and the rim-hook model
of the quantum cohomology of G(k,n) at q = 1.

G(k,n) is built from the quantum Pieri operators: multiplication by each
complete class h_r adds horizontal strips and folds the result into the
k x (n-k) box by removing rim hooks of size n (Bertram, Quantum Schubert
calculus, 1997; Bertram-Ciocan-Fontanine-Fulton, 1999).  The tableau
route, a classical Littlewood-Richardson product folded the same way for
each pair of classes, is kept as an independent oracle; its fold sign is
pinned by the nonnegativity of the resulting structure constants.
A partition is a plain tuple of positive, weakly decreasing ints with
no trailing zeros.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, count
from math import comb

from .algebra import FiniteCommAlgebra, _operator_walk
from .exactlin import _ONE, _ZERO

# the search steps one Littlewood-Richardson expansion may take; see the
# bundle bounds in qspectra.bwb
MAX_LR_STEPS = 10000


def _strips(shape, size, prev_cum, steps=None):
    """Horizontal strips of `size` cells added to `shape`, as
    (new shape, cumulative-count profile) pairs.

    prev_cum caps this label's count through row r by the previous label's
    count through row r-1 (the lattice-word condition, batch by batch);
    None means first label, uncapped.  steps, when given, is an
    itertools.count numbering the search's steps; past MAX_LR_STEPS,
    ValueError.
    """
    R = len(shape)
    out = []
    strip = [0] * R

    def rec(r, left, cum):
        if steps is not None and next(steps) > MAX_LR_STEPS:
            raise ValueError("Littlewood-Richardson expansion takes more "
                             "than %d steps" % MAX_LR_STEPS)
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
    steps = count(1)
    for part in mu:
        nxt = {}
        for (shape, cum), cnt in states.items():
            for key in _strips(shape, part, cum, steps):
                nxt[key] = nxt.get(key, 0) + cnt
        states = nxt
    table = {}
    for (shape, _cum), cnt in states.items():
        t = _trim(shape)
        table[t] = table.get(t, 0) + cnt
    return tuple(sorted(table.items()))


def lr_coeffs(lam, mu, rows):
    """Littlewood-Richardson expansion of the product of two Schur classes.

    Partitions are tuples of positive, weakly decreasing ints.  Returns
    the sorted (nu, c) pairs over all nu of weight |lam| + |mu| with
    c > 0 and at most rows parts.  An expansion whose search takes more
    than MAX_LR_STEPS steps raises ValueError and is not cached.
    """
    # no nu has more than len(lam) + len(mu) parts; capping there keeps
    # one cache entry for every rows beyond it
    return _lr_table(lam, mu, min(rows, len(lam) + len(mu)))


def rim_hook_reduce(parts, k, n):
    """Fold a partition with at most k parts into the k x (n-k) box.

    Removes rim hooks of n cells until the class fits, tracking the
    sign; returns (box partition, sign), None when the class collapses
    to zero, and raises on more than k parts.
    """
    if len(parts) > k:
        raise ValueError("partition has more than %d parts" % k)
    beta = [parts[i] if i < len(parts) else 0 for i in range(k)]
    beta = [b + (k - 1 - i) for i, b in enumerate(beta)]
    sign = 1
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
    beta.sort(reverse=True)
    box = _trim(tuple(x - (k - 1 - i) for i, x in enumerate(beta)))
    return box, sign


def quantum_product(lam, mu, k, n):
    """Structure constants of two box classes of G(k,n) at q = 1.

    Classical expansion capped at k rows, then folded; the aggregated
    coefficients are three-point counts and must be nonnegative.
    """
    out = {}
    for nu, c in lr_coeffs(lam, mu, k):
        red = rim_hook_reduce(nu, k, n)
        if red is None:
            continue
        box, sign = red
        out[box] = out.get(box, 0) + sign * c
    if any(c < 0 for c in out.values()):
        raise AssertionError("negative structure constant in G(%d,%d) product"
                             % (k, n))
    return {box: c for box, c in out.items() if c != 0}


def _label(parts):
    if not parts:
        return "1"
    return "s(%s)" % ",".join(str(p) for p in parts)


def _box_shapes(k, n):
    """The box partitions of G(k,n), sorted by weight, then as tuples."""
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    shapes = sorted((_trim(p) for p in combinations_with_replacement(
        range(n - k, -1, -1), k)), key=lambda p: (sum(p), p))
    if len(shapes) != comb(n, k):
        raise AssertionError("box enumeration does not match C(n,k)")
    return shapes


def _ring(k, n, shapes, cells):
    """QH(G(k,n)) from the upper triangle of its integer table."""
    if any(c < 0 for row in cells for cell in row for c in cell.values()):
        raise AssertionError("negative structure constant in G(%d,%d) product"
                             % (k, n))
    unit, sigma1 = shapes.index(()), shapes.index((1,))
    return object.__new__(FiniteCommAlgebra)._store(
        name="G(%d,%d)" % (k, n),
        basis_labels=[_label(p) for p in shapes],
        cells=cells,
        den=1,
        unit=tuple(_ONE if i == unit else _ZERO for i in range(len(shapes))),
        degrees=tuple(sum(p) % n for p in shapes),
        fano_index=n,
        anticanonical=tuple(Fraction(n) if i == sigma1 else _ZERO
                            for i in range(len(shapes))),
        dim_X=k * (n - k),
    )


def _pieri_operators(shapes, index, k, n):
    """ops[r][j] for r = 1..n-k: h_r times s of shapes[j], as the nonzero
    (index, coefficient) pairs of its fold into the box.

    The classical Pieri rule adds a horizontal r-strip on at most k rows
    (Bertram, Quantum Schubert calculus, 1997); each result is folded by
    rim_hook_reduce.
    """
    ops = [None]
    for r in range(1, n - k + 1):
        op = []
        for mu in shapes:
            acc = {}
            for nu, _cum in _strips(mu + (0,) * (k - len(mu)), r, None):
                red = rim_hook_reduce(_trim(nu), k, n)
                if red is not None:
                    l = index[red[0]]
                    acc[l] = acc.get(l, 0) + red[1]
            op.append(tuple((l, c) for l, c in acc.items() if c))
        ops.append(op)
    return ops


@lru_cache(maxsize=None)
def qh_grassmannian(k, n):
    """Quantum cohomology of G(k,n) at q = 1, built from the quantum Pieri
    operators H_r of multiplication by h_r.

    Basis the box partitions sorted by weight, grading |lam| mod n,
    anticanonical class n times the first special class.  Write lam' for
    lam without its first row: h_{lam_1} s_{lam'} is s_lam plus Pieri
    terms s_nu with nu_1 > lam_1.  Each of those is a box class of lam's
    weight and a larger tuple, or folds to zero: lam' has fewer than k
    rows, so the quantum Pieri rule gives it no q-term.  So
    s_lam s_mu = H_{lam_1}(s_{lam'} s_mu) minus those terms times s_mu,
    which is the step _operator_walk takes for lam: the rows fill by
    weight and, within a weight, from the largest tuple down.
    """
    shapes = _box_shapes(k, n)
    index = {p: i for i, p in enumerate(shapes)}
    ops = _pieri_operators(shapes, index, k, n)
    steps = [None]
    for i, lam in enumerate(shapes[1:], 1):
        op = ops[lam[0]]
        i0 = index[lam[1:]]
        steps.append((i0, op, [(b, c) for b, c in op[i0] if b != i]))
    return _ring(k, n, shapes, _operator_walk(list(map(sum, shapes)), steps))


def _qh_grassmannian_pairwise(k, n):
    """QH(G(k,n)) from quantum_product on every pair of box classes: the
    tableau route, kept as an independent oracle for the Pieri walk."""
    shapes = _box_shapes(k, n)
    index = {p: i for i, p in enumerate(shapes)}
    return _ring(k, n, shapes, [
        [{index[box]: c for box, c
          in quantum_product(shapes[i], shapes[j], k, n).items()}
         for j in range(i, len(shapes))] for i in range(len(shapes))])
