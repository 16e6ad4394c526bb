"""Cross-validation between the coset-model route and the other constructions."""

import ast
import hashlib
import itertools
import json
import pathlib
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, strategies as st

from qspectra.algebra import (algebra_to_json, mult_matrix, qh_ig2,
                              qh_projective)
import qspectra.chevalley
from qspectra.chevalley import (
    _CosetModel,
    grassmann_divisor_matrix,
    grassmannian_algebra,
    ig2_divisor_matrix,
)
from qspectra.exactlin import charpoly, poly_str
from qspectra.schur import qh_grassmannian

# sigma_1 characteristic polynomials, frozen after the two independent
# constructions (tableau folding, coset Chevalley) first agreed on them
DIVISOR_CHARPOLY = {
    ("G", 2, 4): "x^6 - 4*x^2",
    ("G", 2, 5): "x^10 - 11*x^5 - 1",
    ("G", 2, 6): "x^15 - 26*x^9 - 27*x^3",
    ("G", 3, 6): "x^20 - 66*x^14 + 129*x^8 - 64*x^2",
    ("G", 3, 7): "x^35 - 302*x^28 + 3828*x^21 - 36250*x^14 - 7309*x^7 + 128",
    ("G", 4, 8): "x^70 - 2416*x^62 + 536416*x^54 - 22398208*x^46"
                 " - 1083260672*x^38 - 7894294528*x^30 + 21265186816*x^22"
                 " - 4672454656*x^14 + 268435456*x^6",
    ("IG", 2, 4): "x^4 - 4*x",
    ("IG", 2, 6): "x^12 - 26*x^7 - 27*x^2",
    ("IG", 2, 8): "x^24 - 120*x^17 - 2160*x^10 + 256*x^3",
    ("IG", 2, 10): "x^40 - 502*x^31 - 73749*x^22 + 383750*x^13 + 3125*x^4",
    ("IG", 2, 12): "x^60 - 2036*x^49 - 1845522*x^38 + 124221692*x^27"
                   " + 126018521*x^16 - 46656*x^5",
    ("IG", 2, 14): "x^84 - 8178*x^71 - 39859401*x^58 + 21957517156*x^45"
                   " + 498666568799*x^32 - 68871018706*x^19 - 823543*x^6",
}

# sha256 of repr((matrix, lengths)) of the divisor operators, taken when
# every representative was still found by listing the whole Weyl group
IG2_DIVISOR_SHA256 = {
    2: "4c52c57e7104c185069003d5caddfc9d65f0561f915b1212746e2efde16bf98a",
    3: "23fda51b5ad226c9528df5d72a254dcf9e0d630137e2d86b3c486d7e97266dd7",
    4: "08e400e1dcff71fc3e5d0408d1cf3a72efd83426bad4353f62739e5398f38bcb",
    5: "65688b685f605ab683a70505e85fc7ff2e24907134443c7c21e23d90c23a9c7e",
    6: "78882ee515c3bc90cb2b92dd7660e5da7202da910ad2fa64310cbb5cfb08d1d4",
    7: "024aee1faeca523f73db324b3c3460fb894803a7fc79cb35db677f796c4cb70f",
}
GRASSMANN_DIVISOR_SHA256 = {
    (1, 2): "6ad8953693c8375d4444c5e38c65239a1db40d9f131246c084da5915a6041d51",
    (1, 4): "2b7bbeaa024bb4192518345fc6f79e8b13bdab05500460fa99255e4c625ecb18",
    (1, 6): "c85a953fb84fbcb4f64020aa5951a4c8946e0fdad41fdf7eee3891bf6145063e",
    (2, 4): "8fb0044a923383020cea2586b23b7e93b4461b667c461ab20f788448894b8655",
    (2, 5): "852b088a5325f28b89a7903d2b25aaf37bb31b8ead48b437616e1c538703eb37",
    (2, 6): "9d715fc3890bafc107a2089648a8a5f6ca1b738d90766bbbb67f38bfb86b251c",
    (3, 6): "3fc8aa9a356b80e47ca381c3edbfb8a1a53d7f555a68b97348b8973c530fc433",
    (2, 7): "b6f884678257f5c43fa113b7a58be8ab299c5889109fa5d5fddcea4955ab67b4",
    (3, 7): "7aa5cf1207a1d87819f4e4db72e5602fbedde468c4a32a27b9c92bd6fcafe2cb",
    (4, 8): "ad5a5ba07fe1e1155fb7ab7267aaedebe70eee5444db401ef5367f6496925d2f",
}


def _basis_vector(A, i):
    """The coordinates of b_i in A's basis."""
    return tuple(int(j == i) for j in range(A.dim))


def _sha256_repr(obj):
    return hashlib.sha256(repr(obj).encode("utf-8")).hexdigest()


def sigma1_vector(A):
    m = A.fano_index
    return tuple(c / m for c in A.anticanonical)


@given(st.permutations(list(range(1, 6))))
def test_type_a_length_counts_inversions(p):
    model = _CosetModel(5, 2, False)
    w = tuple(p)
    inversions = sum(1 for i in range(5) for j in range(i + 1, 5)
                     if w[i] > w[j])
    assert model.length(w) == inversions


def _reference_reflection(alpha):
    """The signed-image tuple of v - 2 (v, alpha) / (alpha, alpha) alpha,
    read off the images of e_1, ..., e_n in Fractions."""
    n = len(alpha)
    norm = sum(a * a for a in alpha)
    images = []
    for i in range(n):
        coef = Fraction(2 * alpha[i], norm)
        v = [int(j == i) - coef * alpha[j] for j in range(n)]
        nz = [(j, c) for j, c in enumerate(v) if c]
        assert len(nz) == 1 and nz[0][1] in (1, -1), (alpha, v)
        j, c = nz[0]
        images.append(int(c) * (j + 1))
    return tuple(images)


def _signed_roots(n):
    """Every root of C_n: +-e_i +- e_j for i < j, and +-2 e_i."""
    out = []
    for i in range(n):
        for j in range(i, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [0] * n
                    v[i] += si
                    v[j] += sj
                    if any(v):
                        out.append(tuple(v))
    return out


def _compose(w, v):
    """(w . v)(e_i) = w(v(e_i)) on signed-image tuples."""
    return tuple(w[t - 1] if t > 0 else -w[-t - 1] for t in v)


def _swapped(w, i, j, s):
    # the model's action of a root on the right: places i and j swapped,
    # both multiplied by s
    u = list(w)
    u[i], u[j] = s * w[j], s * w[i]
    return tuple(u)


@pytest.mark.parametrize("n", range(1, 7))
def test_reflection_matches_the_defining_formula(n):
    roots = _signed_roots(n)
    # the roots of A_{n-1} are the e_i - e_j among them
    type_a = [r for r in roots if sum(r) == 0]
    assert len(type_a) == n * (n - 1)
    assert len(roots) == 2 * n * n
    identity = tuple(range(1, n + 1))
    for signed in (False, True):
        positive = _positive_roots(n, signed)
        covered = set()
        for k, model in _models(n, signed):
            omega = [int(t < k) for t in range(n)]
            seen = []
            for i, j, s, c in model.roots:
                alpha = [0] * n
                alpha[i] += 1
                alpha[j] -= s
                alpha = tuple(alpha)
                seen.append(alpha)
                # w s_alpha is the swap, at the identity and elsewhere
                assert _swapped(identity, i, j, s) \
                    == _reference_reflection(alpha), (signed, k, alpha)
                w = identity[::-1]
                assert _swapped(w, i, j, s) \
                    == _compose(w, _reference_reflection(alpha))
                norm = sum(a * a for a in alpha)
                assert c == Fraction(2 * sum(map(mul, omega, alpha)), norm)
            # every positive root outside the Levi, each once
            want = [a for a in positive if sum(map(mul, omega, a))]
            assert len(seen) == len(set(seen))
            assert set(seen) == set(want), (signed, k)
            covered |= set(seen)
        # every positive root lies outside some Levi
        assert covered == set(positive), signed


def test_chevalley_imports_no_fractions():
    tree = ast.parse(pathlib.Path(qspectra.chevalley.__file__)
                     .read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
    assert not imported & {"fractions", "Fraction", "integer_cells"}


# the root action, kept here as the reference for the closed forms: an
# element acts on a root through its signed images, and a root is
# positive exactly when its first nonzero entry is

def _act(w, vec):
    out = [0] * len(vec)
    for i, t in enumerate(w):
        if t > 0:
            out[t - 1] += vec[i]
        else:
            out[-t - 1] -= vec[i]
    return tuple(out)


def _is_negative(vec):
    return next(x for x in vec if x) < 0


def _positive_roots(n, signed):
    """The positive roots of C_n, or of A_{n-1} (the e_i - e_j)."""
    return [r for r in _signed_roots(n)
            if not _is_negative(r) and (signed or sum(r) == 0)]


def _simple_roots(n, signed):
    """e_i - e_{i+1}, and 2 e_n in type C, in the order of the nodes."""
    out = []
    for i in range(n - 1):
        v = [0] * n
        v[i], v[i + 1] = 1, -1
        out.append(tuple(v))
    if signed:
        out.append((0,) * (n - 1) + (2,))
    return out


def _levi_roots(n, k, signed):
    """The simple roots other than the crossed one, the k-th."""
    simples = _simple_roots(n, signed)
    return simples[:k - 1] + simples[k:]


def _made_negative(w, positive):
    return sum(1 for a in positive if _is_negative(_act(w, a)))


def _elements(n, signed):
    signs = list(itertools.product((1, -1), repeat=n)) if signed \
        else [(1,) * n]
    for p in itertools.permutations(range(1, n + 1)):
        for sign in signs:
            yield tuple(s * t for s, t in zip(sign, p))


def _models(n, signed):
    # type A needs 0 < k < n; type C allows k = n
    for k in range(1, n + 1 if signed else n):
        yield k, _CosetModel(n, k, signed)


@pytest.mark.parametrize("n", range(2, 7))
def test_type_a_length_counts_positive_roots_made_negative(n):
    positive = _positive_roots(n, False)
    assert len(positive) == n * (n - 1) // 2
    models = list(_models(n, False))
    for w in _elements(n, False):
        want = _made_negative(w, positive)
        # the inversion count, read straight off the one-line notation
        assert want == sum(1 for i in range(n) for j in range(i + 1, n)
                           if w[i] > w[j])
        for k, model in models:
            assert model.length(w) == want, (w, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type_c_length_counts_positive_roots_made_negative(n):
    positive = _positive_roots(n, True)
    assert len(positive) == n * n
    models = list(_models(n, True))
    for w in _elements(n, True):
        want = _made_negative(w, positive)
        for k, model in models:
            assert model.length(w) == want, (w, k)


def _greedy_minimal(w, levi):
    # strip the Levi part on the right: while some Levi root is made
    # negative, apply its reflection; the descent terminates
    while True:
        for root in levi:
            if _is_negative(_act(w, root)):
                w = _compose(w, _reference_reflection(root))
                break
        else:
            return w


@pytest.mark.parametrize("signed,n,k", [
    (signed, n, k) for signed in (False, True) for n in (2, 3, 4, 5)
    for k in range(1, n + 1 if signed else n)])
def test_minimal_representative_is_greedy_levi_descent(signed, n, k):
    model = _CosetModel(n, k, signed)
    levi = _levi_roots(n, k, signed)
    assert len(levi) == (n - 1 if signed else n - 2)
    for w in _elements(n, signed):
        assert model.to_minimal(w) == _greedy_minimal(w, levi), w


@pytest.mark.parametrize("signed", [False, True], ids=["A", "C"])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_representatives_grow_from_the_identity(n, signed):
    # removing a left descent from a minimal representative leaves a
    # minimal one, so each length layer grows from the one before by the
    # simple reflections
    positive = _positive_roots(n, signed)
    simples = _simple_roots(n, signed)
    for k, model in _models(n, signed):
        levi = _levi_roots(n, k, signed)
        layer, grown_all = [tuple(range(1, n + 1))], []
        while layer:
            grown_all.extend(layer)
            grown = {}
            for w in layer:
                lw = _made_negative(w, positive)
                for root in simples:
                    u = _compose(_reference_reflection(root), w)
                    if _made_negative(u, positive) == lw + 1 and not any(
                            _is_negative(_act(u, a)) for a in levi):
                        grown[u] = None
            layer = list(grown)
        assert len(model.reps) == len(set(model.reps))
        assert set(model.reps) == set(grown_all), k


@pytest.mark.parametrize("k,n", [(2, 5), (2, 7), (3, 7), (2, 9)])
def test_grassmannian_cross_check(k, n):
    A = grassmannian_algebra(k, n)
    B = qh_grassmannian(k, n)
    for name in ("rows", "den", "unit", "anticanonical", "degrees",
                 "basis_labels"):
        assert getattr(A, name) == getattr(B, name), name


def test_grassmannian_cross_check_projective():
    A = grassmannian_algebra(1, 4)
    B = qh_projective(3)
    assert A.dim == B.dim == 4
    assert A.structure == B.structure
    assert A.degrees == B.degrees


@pytest.mark.parametrize("n", sorted(IG2_DIVISOR_SHA256))
def test_ig2_divisor_matrix_is_pinned(n):
    assert _sha256_repr(ig2_divisor_matrix(n)) == IG2_DIVISOR_SHA256[n]


@pytest.mark.parametrize("k,n", sorted(GRASSMANN_DIVISOR_SHA256))
def test_grassmann_divisor_matrix_is_pinned(k, n):
    assert _sha256_repr(grassmann_divisor_matrix(k, n)) \
        == GRASSMANN_DIVISOR_SHA256[(k, n)]


def test_non_cyclic_case_raises():
    for k, n in ((2, 4), (3, 8)):
        with pytest.raises(AssertionError, match="does not generate"):
            grassmannian_algebra(k, n)


@pytest.mark.parametrize("k,n", [(2, 4), (2, 5), (2, 6), (3, 6), (3, 7),
                                 (4, 8)])
def test_divisor_operator_matches_tableau_route(k, n):
    M, lengths = grassmann_divisor_matrix(k, n)
    assert poly_str(charpoly(M)) == DIVISOR_CHARPOLY[("G", k, n)]
    A = qh_grassmannian(k, n)
    assert poly_str(charpoly(mult_matrix(A, _basis_vector(A, 1)))) \
        == DIVISOR_CHARPOLY[("G", k, n)]
    # same Schubert basis order on both routes: the operators are equal
    assert mult_matrix(A, _basis_vector(A, 1)) == M
    assert sorted(l % A.fano_index for l in lengths) == sorted(A.degrees)
    assert len(lengths) == A.dim


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_ig2_matches_divisor_operator(n):
    A = qh_ig2(n)
    assert A.dim == 2 * n * (n - 1)
    assert A.fano_index == 2 * n - 1
    p = charpoly(mult_matrix(A, sigma1_vector(A)))
    assert poly_str(p) == DIVISOR_CHARPOLY[("IG", 2, 2 * n)]
    M, lengths = ig2_divisor_matrix(n)
    assert charpoly(M) == p
    assert len(lengths) == A.dim


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_ig2_betti_numbers_are_complete_intersection(n):
    # graded dimensions of Q[c1,c2]/(degrees 2n-2, 2n), c1 in degree 1
    top = 4 * n - 5
    series = [0] * (top + 1)
    for a in range(0, top + 1):
        for b in range(0, (top - a) // 2 + 1):
            series[a + 2 * b] += 1
    for d in (2 * n - 2, 2 * n):
        for i in range(top, d - 1, -1):
            series[i] -= series[i - d]
    _, lengths = ig2_divisor_matrix(n)
    betti = [lengths.count(i) for i in range(top + 1)]
    assert betti == series[:top + 1]
    assert sum(betti) == 2 * n * (n - 1)


# sha256 of the structure-constant files once shipped for IG(2,2n); the
# presentation must keep reproducing them byte for byte
IG2_JSON_SHA256 = {
    2: "4bca377b40f012618c8d1c076eb225749f16ba54760375c4b2fb126e92a1ca72",
    3: "576d01e617882dde0d390ef9815866b32593a4e7a5cdf0cf56112ef388b5edd4",
    4: "81a9f2cf8f4ec8ce37536b8df0cabe9e0d25db39b7c67d40187ef1ee735f4035",
    5: "d9ae3e136f2fda0899f6dccf91b6d9e00807e1d05df5e390c2a55f02405600b8",
}


def test_ig2_presentation_matches_former_data_files():
    for n, want in IG2_JSON_SHA256.items():
        text = json.dumps(algebra_to_json(qh_ig2(n)), indent=2,
                          sort_keys=True) + "\n"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want, n


def test_ig2_rejects_small_n():
    with pytest.raises(ValueError):
        qh_ig2(1)
