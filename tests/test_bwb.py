import hashlib
import random
import time
from collections import Counter
from itertools import product
from math import comb
from operator import add

import pytest
from hypothesis import given, strategies as st

from qspectra import bwb
from qspectra.bwb import (BundleExpr, CollectionVerdict, bott,
                          check_collection, check_collection_hyperplane,
                          collection_backend, ext_hyperplane, ext_table,
                          hom_bundle, parse_bundle)
from qspectra.lefschetz import (LefschetzCollection, builtin_collection,
                                twisted_objects)
from qspectra.schur import lr_coeffs
from qspectra.varieties import REGISTRY, parse_variety


def O(k, n):
    return BundleExpr.structure_sheaf(k, n)


def weyl_dim(delta):
    """Dimension of the GL(n) irrep with highest weight delta, read through
    the quotient that bott takes its dimensions from: delta + rho, with the
    staircase rho = (n - 1, ..., 0)."""
    n = len(delta)
    return bwb._weyl_quotient(tuple(map(add, delta, range(n - 1, -1, -1))))


def rank(E):
    """The rank of a formal sum: each S^lam U* tensor S^mu Q* has rank the
    product of the Weyl dimensions of its two blocks."""
    return sum(m * weyl_dim(w[:E.k]) * weyl_dim(w[E.k:])
               for w, m in E.terms.items())


def dual(E):
    """E*, each weight through the dual-weight formula of hom_bundle."""
    return BundleExpr(E.k, E.n, {bwb._dual_weight(w, E.k): m
                                 for w, m in E.terms.items()})


# S^lam U* and S^mu Q*: each block is padded on its own, so an overlong one
# fails the length check
def schur_u_dual(lam, k, n):
    lam = tuple(lam)
    return BundleExpr(k, n, {lam + (0,) * (k - len(lam)) + (0,) * (n - k): 1})


def schur_q_dual(mu, k, n):
    mu = tuple(mu)
    return BundleExpr(k, n, {(0,) * k + mu + (0,) * (n - k - len(mu)): 1})


# --- Weyl dimension -----------------------------------------------------

def test_weyl_dim_small_representations():
    assert weyl_dim((0, 0, 0, 0)) == 1
    assert weyl_dim((1, 0, 0, 0)) == 4
    assert weyl_dim((2, 0, 0)) == 6          # Sym^2 of C^3
    assert weyl_dim((1, 1, 0, 0, 0)) == 10   # wedge^2 of C^5
    assert weyl_dim((1, 1, 1)) == 1          # det of GL(3)
    assert weyl_dim((1, -1)) == 3            # adjoint of SL(2) inside GL(2)


@given(st.integers(1, 5), st.lists(st.integers(0, 4), min_size=1, max_size=5))
def test_weyl_dim_matches_hook_content(n, parts):
    lam = tuple(sorted(parts, reverse=True))
    if len(lam) > n:
        lam = lam[:n]
    padded = lam + (0,) * (n - len(lam))
    num = den = 1
    cells = [(i, j) for i in range(len(lam)) for j in range(lam[i])]
    conj = [sum(1 for p in lam if p > c) for c in range(lam[0])] if lam and lam[0] else []
    for i, j in cells:
        num *= n + j - i
        den *= (lam[i] - j) + (conj[j] - i) - 1
    assert weyl_dim(padded) * den == num


# --- the dotted-weight computation --------------------------------------

def test_cohomology_of_structure_sheaf():
    for k, n in [(1, 2), (2, 4), (2, 5), (3, 6)]:
        assert bott((0,) * n, k, n) == {0: 1}


def test_calibration_standard_bundle():
    # H^0(U*) is the standard representation; this pins the convention
    # that the U* chunk of the weight comes first
    assert bott((1, 0, 0, 0), 2, 4) == {0: 4}
    assert bott((0, 0, 1, 0), 2, 4) == {}


def test_calibration_hyperplane_bundle():
    assert bott((1, 1, 0, 0), 2, 4) == {0: comb(4, 2)}
    assert bott((1, 1, 0, 0, 0), 2, 5) == {0: comb(5, 2)}
    assert bott((1, 1, 1, 0, 0, 0), 3, 6) == {0: comb(6, 3)}


def test_canonical_bundle_of_projective_space():
    assert bott((-4, 0, 0, 0), 1, 4) == {3: 1}


def test_line_bundles_on_projective_space():
    n = 4
    for d in range(-9, 6):
        table = bott((d,) + (0,) * n, 1, n + 1)
        if d >= 0:
            assert table == {0: comb(n + d, n)}
        elif d >= -n:
            assert table == {}
        else:
            assert table == {n: comb(-d - 1, n)}


def test_bott_weight_length_checked():
    with pytest.raises(ValueError, match="weight length"):
        bott((1, 0, 0), 2, 4)
    with pytest.raises(ValueError, match="0 < k < n"):
        bott((0, 0, 0, 0), 4, 4)


@given(st.sampled_from([(2, 4), (2, 5), (3, 6)]), st.data())
def test_bott_single_degree(kn, data):
    k, n = kn
    w = data.draw(st.tuples(*[st.integers(-8, 8)] * n))
    table = bott(w, k, n)
    assert len(table) <= 1
    for deg, d in table.items():
        assert 0 <= deg <= n * (n - 1) // 2
        assert d > 0


# The double loops over positive roots that weyl_dim and bott ran before
# they moved into itertools: an independent reading of the same formulas.

def _loop_weyl_dim(delta):
    n = len(delta)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= delta[i] - delta[j] + j - i
            den *= j - i
    if num % den or num <= 0:
        raise AssertionError("Weyl dimension must be a positive integer")
    return num // den


def _loop_bott(w, k, n):
    w = tuple(w)
    if any(type(x) is not int for x in w):
        raise TypeError("weight entries must be ints, got %r" % (w,))
    if len(w) != n:
        raise ValueError("weight length %d, expected %d" % (len(w), n))
    if not 0 < k < n:
        raise ValueError("need 0 < k < n")
    rho = tuple(range(n - 1, -1, -1))
    dotted = tuple(w[i] + rho[i] for i in range(n))
    if len(set(dotted)) < n:
        return {}
    ell = sum(1 for i in range(n) for j in range(i + 1, n)
              if dotted[i] < dotted[j])
    srt = sorted(dotted, reverse=True)
    delta = tuple(srt[i] - rho[i] for i in range(n))
    return {ell: _loop_weyl_dim(delta)}


def _outcome(f, *args):
    """The value of f(*args), or the type and message of what it raised."""
    try:
        return f(*args)
    except (TypeError, ValueError, AssertionError) as err:
        return type(err).__name__, str(err)


def test_bott_matches_the_loops_on_every_small_weight():
    for n in range(2, 6):
        weights = list(product(range(-3, 4), repeat=n))
        for k in range(1, n):
            for w in weights:
                assert bott(w, k, n) == _loop_bott(w, k, n), (w, k)


def test_weyl_dim_matches_the_loops_on_every_small_weight():
    # the non-dominant weights among these raise, with the same message
    raised = 0
    for n in range(1, 6):
        for delta in product(range(-3, 4), repeat=n):
            got = _outcome(weyl_dim, delta)
            assert got == _outcome(_loop_weyl_dim, delta), delta
            raised += type(got) is tuple
    assert raised > 10000


@pytest.mark.parametrize("w,k,n", [
    ((0, 1, 0, 0), 2, 4),                  # dotted (3, 3, 1, 0)
    ((0, 0, 0, 3), 1, 4),                  # dotted (3, 2, 1, 3)
    ((-3, -2, -1, 0), 2, 4),               # anti-dominant, degenerate
    ((-6, -4, -2, 0), 2, 4),               # anti-dominant, longest element
    ((-5, -5, -5, -5, 0), 4, 5),
    ((10**12 + 1, 10**12, 0, 0), 2, 4),
    ((-10**12, -10**12, 0, 0, 0), 2, 5),
    ((0, 0, 10**12, 10**12 - 1, -10**12), 2, 5),
    ((10**12, 0, -10**12), 1, 3),
    ((1.9, 0, 0, 0), 2, 4),
    ((True, 0, 0, 0), 2, 4),
    (("1", 0, 0, 0), 2, 4),
    ((0, 0, 0), 2, 4),
    ((0,) * 5, 2, 4),
    ((), 0, 0),
    ((0, 0, 0, 0), 0, 4),
    ((0, 0, 0, 0), 4, 4),
    ((0, 0, 0, 0), -1, 4),
])
def test_bott_matches_the_loops_on_edge_weights(w, k, n):
    assert _outcome(bott, w, k, n) == _outcome(_loop_bott, w, k, n)


@pytest.mark.parametrize("delta", [
    (), (0,), (-7,), (10**12,), (10**12 + 3, 10**12, 10**12, -10**12),
    (0, 1), (-3, -2, -1, 0), (0, 0, 0, 5), (2, 3, 1), (1, 0, -1, -1),
])
def test_weyl_dim_matches_the_loops_on_edge_weights(delta):
    assert _outcome(weyl_dim, delta) == _outcome(_loop_weyl_dim, delta)


# --- BundleExpr algebra -------------------------------------------------

def test_twist_is_normalized_into_lambda():
    E = O(2, 4).twist(3)
    assert E.terms == {(3, 3, 0, 0): 1}
    assert parse_bundle("O(3)", 2, 4) == E


def test_mu_canonicalized_to_end_in_zero():
    E = BundleExpr(2, 5, {(0, 0, 2, 1, 1): 1})
    assert E.terms == {(-1, -1, 1, 0, 0): 1}


def test_det_q_dual_is_anti_hyperplane():
    # on G(2,3) the quotient has rank 1 and Q* = O(-1)
    E = schur_q_dual((1,), 2, 3)
    assert E == O(2, 3).twist(-1)


def test_dual_is_an_involution():
    E = parse_bundle("S^(2,1) U* * Q*", 2, 5)
    assert dual(dual(E)) == E


def test_dual_reverses_and_negates():
    E = schur_u_dual((2, 1), 2, 4)
    assert dual(E).terms == {(-1, -2, 0, 0): 1}


@pytest.mark.parametrize("make", [schur_u_dual, schur_q_dual])
def test_schur_weight_longer_than_its_block_is_refused(make):
    # padding (1, 1, 1) to n = 4 as a whole would spill it into the other
    # block and pass
    with pytest.raises(ValueError, match="weight must have 4 entries, got 5"):
        make((1, 1, 1), 2, 4)


def test_tensor_with_line_bundle_is_twist():
    E = parse_bundle("S^2 U*", 2, 5)
    assert E.tensor(O(2, 5).twist(2)) == E.twist(2)


def test_mismatched_ambient_rejected():
    with pytest.raises(ValueError, match="mismatched ambient"):
        O(2, 4).tensor(O(2, 5))
    with pytest.raises(ValueError, match="mismatched ambient"):
        ext_table(O(2, 4), O(2, 5))


def test_multiplicities_positive():
    with pytest.raises(ValueError, match="positive"):
        BundleExpr(2, 4, {(0, 0, 0, 0): -1})


@pytest.mark.parametrize("terms,match", [
    ({(1.5, 0, 0, 0): 1}, r"U\* weight entries must be ints"),
    ({("1", 0, 0, 0): 1}, r"U\* weight entries must be ints"),
    ({(1, 0, True, 0): 1}, r"Q\* weight entries must be ints"),
    ({(0, 0, 0, 0): 1.7}, "multiplicities must be ints"),
    ({(0, 0, 0, 0): True}, "multiplicities must be ints"),
])
def test_bundle_refuses_non_int_values(terms, match):
    with pytest.raises(TypeError, match=match):
        BundleExpr(2, 4, terms)


@pytest.mark.parametrize("terms,match", [
    pytest.param({(5, 1, 0): 0}, r"^weight must have 4 entries, got 3$",
                 id="weight-too-short"),
    ({(0, 0, 0, 1): 0}, r"Q\* weight must be weakly decreasing"),
    ({(0.5, 0, 0, 0): 0}, r"U\* weight entries must be ints"),
    ({(0, 1, 0, 0): 0}, r"U\* weight must be weakly decreasing"),
    pytest.param({(5, 1, 0, 0, 0): 0}, r"^weight must have 4 entries, got 5$",
                 id="weight-too-long"),
])
def test_zero_multiplicity_still_checks_weights(terms, match):
    with pytest.raises((TypeError, ValueError), match=match):
        BundleExpr(2, 4, terms)


@pytest.mark.parametrize("k", [0, 4])
def test_constructor_needs_a_proper_grassmannian(k):
    with pytest.raises(ValueError, match="need 0 < k < n"):
        BundleExpr(k, 4, {})


@pytest.mark.parametrize("w", [(1.9, 0, 0, 0), (True, 0, 0, 0),
                               ("1", 0, 0, 0)])
def test_bott_refuses_non_int_weights(w):
    with pytest.raises(TypeError, match="weight entries must be ints"):
        bott(w, 2, 4)


def test_rank_of_tautological_pieces():
    assert rank(parse_bundle("U*", 2, 5)) == 2
    assert rank(parse_bundle("Q*", 2, 5)) == 3
    assert rank(parse_bundle("S^2 U*", 2, 5)) == 3
    assert rank(parse_bundle("U* * Q*", 2, 5)) == 6


def _small_chunk(data, size):
    xs = data.draw(st.tuples(*[st.integers(-2, 2)] * size))
    return tuple(sorted(xs, reverse=True))


def _small_expr(data, k, n):
    terms = {}
    for _ in range(data.draw(st.integers(1, 2))):
        key = _small_chunk(data, k) + _small_chunk(data, n - k)
        terms[key] = terms.get(key, 0) + data.draw(st.integers(1, 2))
    return BundleExpr(k, n, terms)


@given(st.sampled_from([(2, 4), (2, 5)]), st.data())
def test_rank_multiplicative_under_tensor(kn, data):
    # exercises the shift trick and the row cutoff in one go
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    assert rank(E.tensor(F)) == rank(E) * rank(F)


@given(st.sampled_from([(2, 4), (2, 5)]), st.integers(-3, 3), st.data())
def test_twist_equivariance_of_tensor(kn, t, data):
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    assert E.twist(t).tensor(F) == E.tensor(F).twist(t)


@given(st.sampled_from([(2, 4), (2, 5)]), st.data())
def test_tensor_commutes(kn, data):
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    assert E.tensor(F) == F.tensor(E)


def _lr_shifted(a, b, rows):
    """S^a tensor S^b for GL(rows) through the Littlewood-Richardson rule
    alone: shift both into partitions, expand, shift back."""
    sa, sb = -a[-1], -b[-1]
    pa = tuple(x + sa for x in a if x + sa)
    pb = tuple(x + sb for x in b if x + sb)
    return {tuple(x - sa - sb for x in nu + (0,) * (rows - len(nu))): c
            for nu, c in lr_coeffs(pa, pb, rows)}


def _dominant_weights(rows, shift):
    """Every weakly decreasing weight with entries in shift - 2..shift + 2."""
    return [w for w in product(range(shift + 2, shift - 3, -1), repeat=rows)
            if all(x >= y for x, y in zip(w, w[1:]))]


@pytest.mark.parametrize("rows", [1, 2, 3, 4])
def test_det_power_factor_is_a_shift(rows):
    shifts = (-5, 0, 7)
    for c in shifts:
        det = (c,) * rows
        for s in shifts:
            for w in _dominant_weights(rows, s):
                assert bwb._lr_restricted(det, w, rows) == \
                    _lr_shifted(det, w, rows), (det, w)
                assert bwb._lr_restricted(w, det, rows) == \
                    _lr_shifted(w, det, rows), (w, det)
            other = (s,) * rows
            assert bwb._lr_restricted(det, other, rows) == \
                _lr_shifted(det, other, rows) == {(c + s,) * rows: 1}


# --- descriptor grammar -------------------------------------------------

def test_parse_basic_descriptors():
    assert parse_bundle("O", 2, 4) == O(2, 4)
    assert parse_bundle("U*", 2, 4) == schur_u_dual((1,), 2, 4)
    assert parse_bundle("Q*", 2, 4) == schur_q_dual((1,), 2, 4)
    assert parse_bundle("S^3 U*", 2, 4) == schur_u_dual((3,), 2, 4)
    assert parse_bundle("S^(2,1) U*", 2, 4) == \
        schur_u_dual((2, 1), 2, 4)
    assert parse_bundle("S^(1,1) Q*", 2, 4) == \
        schur_q_dual((1, 1), 2, 4)


def test_parse_twist_suffix():
    assert parse_bundle("O(2)", 2, 4) == O(2, 4).twist(2)
    assert parse_bundle("U*(-1)", 2, 4) == \
        schur_u_dual((1,), 2, 4).twist(-1)
    assert parse_bundle("S^2 U*(1)", 2, 4) == \
        schur_u_dual((2,), 2, 4).twist(1)


def test_parse_skips_any_whitespace():
    assert parse_bundle("\tU*\n(1) ", 2, 4) == parse_bundle("U*(1)", 2, 4)
    assert parse_bundle("U* * Q*", 2, 4) == \
        parse_bundle("U*", 2, 4).tensor(parse_bundle("Q*", 2, 4))


def test_parse_tensor():
    U = parse_bundle("U*", 2, 4)
    assert parse_bundle("U* * U*", 2, 4) == U.tensor(U)
    assert parse_bundle("S^2 U* * Q*(1)", 2, 5) == \
        parse_bundle("S^2 U*", 2, 5).tensor(parse_bundle("Q*(1)", 2, 5))


def test_parse_errors_carry_positions():
    with pytest.raises(ValueError, match="position 0"):
        parse_bundle("X", 2, 4)
    with pytest.raises(ValueError, match="expected an integer"):
        parse_bundle("S^", 2, 4)
    with pytest.raises(ValueError, match="unexpected end of input"):
        parse_bundle("S^2", 2, 4)
    with pytest.raises(ValueError, match="trailing"):
        parse_bundle("U* U*", 2, 4)
    with pytest.raises(ValueError, match="expected an integer"):
        parse_bundle("O()", 2, 4)
    with pytest.raises(ValueError, match="more than 2 entries"):
        parse_bundle("S^(2,1,1) U*", 2, 4)
    with pytest.raises(ValueError, match="expected U\\* or Q\\*"):
        parse_bundle("S^2 O", 2, 4)
    # integers are ASCII digits: int() would read "\u0662" as 2
    with pytest.raises(ValueError, match="position 2: unexpected"):
        parse_bundle("S^\u0662 U*", 2, 4)
    with pytest.raises(ValueError, match="position 3: unexpected"):
        parse_bundle("U*(\u0661)", 2, 4)


@pytest.mark.parametrize("text,n,message", [
    ("S^(1 2) U*", 4, "position 5: expected ')', got '2'"),
    ("O(1 2)", 4, "position 4: expected ')', got '2'"),
    ("S^(1,1,1) Q*", 4, "position 0: Q* weight has more than 2 entries"),
    ("S^(1,1) Q*", 3, "position 0: Q* weight has more than 1 entries"),
    ("(O)", 4, "position 0: unexpected '('"),
    ("* O", 4, "position 0: unexpected '*'"),
    ("1", 4, "position 0: unexpected '1'"),
    ("O *", 4, "position 3: unexpected end of input"),
    (" x", 4, "position 1: unexpected 'x'"),
    ("S^- U*", 4, "position 2: unexpected '-'"),
    ("  ", 4, "position 2: unexpected end of input"),
    # integers are ASCII digits, and the tokenizer already refuses others
    ("S^\u0662 U*", 4, "position 2: unexpected '\u0662'"),
    ("O(\u0662)", 4, "position 2: unexpected '\u0662'"),
    # past CPython's limit on the digits of an int read from a string
    pytest.param("O(" + "9" * 5000 + ")", 4,
                 "position 2: integer has too many digits", id="long-twist"),
    pytest.param("S^(1," + "9" * 5000 + ") U*", 4,
                 "position 5: integer has too many digits", id="long-exponent"),
])
def test_parse_error_messages_are_pinned(text, n, message):
    with pytest.raises(ValueError) as err:
        parse_bundle(text, 2, n)
    assert str(err.value) == "parse error at " + message


@pytest.mark.parametrize("text,k,n", [
    ("S^1 Q*", 2, 2), ("", 0, 3), ("O", 3, 3), ("U* * X", 4, 3),
    ("S^(1,2) U*", -1, 4), ("O(1", 2, 1),
])
def test_parse_checks_the_ambient_before_the_text(text, k, n):
    with pytest.raises(ValueError) as err:
        parse_bundle(text, k, n)
    assert str(err.value) == "need 0 < k < n"


@pytest.mark.parametrize("text,message", [
    ("S^(1,2) U*()", "U* weight must be weakly decreasing"),
    ("S^(1,2) U*(1", "U* weight must be weakly decreasing"),
    ("S^(0,1) Q*(", "Q* weight must be weakly decreasing"),
    ("S^(0,1) Q*(1,2)", "Q* weight must be weakly decreasing"),
])
def test_schur_weight_is_checked_before_the_twist(text, message):
    with pytest.raises(ValueError) as err:
        parse_bundle(text, 2, 4)
    assert str(err.value) == message


def test_parse_bounds_the_weight_spread():
    # spreads add over the factors of a tensor product; twists shift every
    # entry alike and are not bounded
    assert parse_bundle("S^256 U*", 2, 4) == schur_u_dual((256,), 2, 4)
    assert parse_bundle("S^(9,9) U*(-10) * S^(200,-40) U*", 2, 4).terms == {
        (199, -41, 0, 0): 1}
    assert parse_bundle("S^(10,4) U*(1000000000000)", 2, 4).terms == {
        (10**12 + 10, 10**12 + 4, 0, 0): 1}
    for text in ("S^257 U*", "U* * S^256 U*", "S^(300,0) Q*",
                 "S^200 U* * S^(57,0) Q*", "S^(0,-257) U*"):
        with pytest.raises(ValueError, match="weight spread"):
            parse_bundle(text, 2, 4)


def test_parse_returns_a_fresh_object_each_call():
    # the memo holds immutable terms; each call builds its own BundleExpr
    E = parse_bundle("S^(2,1) U* * Q*(3)", 2, 5)
    F = parse_bundle("S^(2,1) U* * Q*(3)", 2, 5)
    assert E == F and E is not F and E.terms is not F.terms
    want = dict(E.terms)
    E.terms.clear()
    E.terms[(9, 9, 0, 0, 0)] = 1
    E.k = 1
    assert parse_bundle("S^(2,1) U* * Q*(3)", 2, 5).terms == want


@pytest.mark.parametrize("text,message", [
    ("U* U*", "parse error at position 3: trailing 'U*'"),
    ("S^(1,2) U*", "U* weight must be weakly decreasing"),
    ("S^257 U*", "descriptor 'S^257 U*' has weight spread 257, more than 256"),
])
def test_parse_refusal_repeats_on_the_next_call(text, message):
    # a refusal is never cached: each call raises it anew
    for _ in range(2):
        with pytest.raises(ValueError) as err:
            parse_bundle(text, 2, 4)
        assert str(err.value) == message


NON_INT_ENTRY_POINTS = {
    "parse_bundle": lambda k, n: parse_bundle("O", k, n),
    "BundleExpr": lambda k, n: BundleExpr(k, n, {}),
    "structure_sheaf": BundleExpr.structure_sheaf,
    "bott": lambda k, n: bott((0, 0, 0), k, n),
}


@pytest.mark.parametrize("entry", sorted(NON_INT_ENTRY_POINTS))
@pytest.mark.parametrize("where", ["k", "n"])
@pytest.mark.parametrize("bad", [1.0, True, "2"], ids=["float", "bool", "str"])
def test_non_int_ambient_is_refused(entry, where, bad):
    # 1.0 and True hash and compare like 1, so the parse memo would hand
    # back the G(1,3) terms; refuse them before it is asked, whether or
    # not the text is cached
    k, n = (bad, 3) if where == "k" else (1, bad)
    bwb._parsed.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError, match="^k and n must be ints"):
            NON_INT_ENTRY_POINTS[entry](k, n)
        parse_bundle("O", 1, 3)


@given(st.sampled_from([(1, 3), (2, 4), (2, 5), (3, 6)]), st.data())
def test_hom_is_the_tensor_of_the_dual(kn, data):
    # hom_bundle feeds the dual weights straight into the tensor step
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    H = hom_bundle(E, F)
    assert H.terms == dual(E).tensor(F).terms
    assert list(H.terms) == sorted(H.terms)


def _two_pass_tensor(k, n, left, right):
    """The tensor step as a list of every product, then one canonical
    pass over it."""
    out = []
    for a, ca in left:
        for b, cb in right:
            us = bwb._lr_restricted(a[:k], b[:k], k)
            qs = bwb._lr_restricted(a[k:], b[k:], n - k)
            out += [(u + q, ca * cb * cu * cq)
                    for u, cu in us.items() for q, cq in qs.items()]
    return object.__new__(BundleExpr)._canonical(k, n, out)


ORDER_AMBIENTS = [(1, 3), (2, 4), (2, 5), (3, 6), (2, 8)]


@given(st.sampled_from(ORDER_AMBIENTS), st.data())
def test_one_pass_tensor_matches_the_two_pass_reference(kn, data):
    # the dual weights Hom feeds in need not end in 0, so both kinds of
    # left factor are compared, terms and their order alike
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    for left in (E.terms.items(),
                 [(bwb._dual_weight(w, k), m) for w, m in E.terms.items()]):
        got = bwb._tensor(k, n, left, F.terms.items())
        want = _two_pass_tensor(k, n, left, F.terms.items())
        assert list(got.terms.items()) == list(want.terms.items())


def _summed_bott(H, t=0):
    """The cohomology of H(t), summing the public bott over H's terms in
    their order."""
    k, n = H.k, H.n
    table = {}
    for w, mult in H.terms.items():
        for deg, d in bott(tuple(x + t for x in w[:k]) + w[k:], k, n).items():
            table[deg] = table.get(deg, 0) + mult * d
    return table


@given(st.sampled_from(ORDER_AMBIENTS), st.data())
def test_tables_match_the_public_bott_in_order(kn, data):
    # the Bott memo returns what bott does, and the tables fill in the
    # order of Hom's terms: check --bwb prints them with %r
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    H = hom_bundle(E, F)
    want = list(_summed_bott(H).items())
    table = ext_table(E, F)
    assert list(table.items()) == want
    # a caller that changes a table changes no later one
    table[0] = -1
    table[k * (n - k) + 1] = 1
    assert list(ext_table(E, F).items()) == want
    if k == 2 and n % 2 == 0:
        ambient = ext_hyperplane(E, F)["ambient"]
        want_twisted = list(_summed_bott(H, -1).items())
        assert list(ambient["hom"].items()) == want
        assert list(ambient["hom_twisted"].items()) == want_twisted
        ambient["hom"][0] = -1
        ambient["hom_twisted"].clear()
        ambient = ext_hyperplane(E, F)["ambient"]
        assert list(ambient["hom"].items()) == want
        assert list(ambient["hom_twisted"].items()) == want_twisted


def test_parse_case_sensitive():
    with pytest.raises(ValueError):
        parse_bundle("o", 2, 4)
    with pytest.raises(ValueError):
        parse_bundle("u*", 2, 4)


# A seeded sweep of random descriptors, valid and malformed, on six
# ambients.  Each descriptor gives its error type and message, or the rank
# of the bundle and its Ext from O.  None of that depends on how a
# BundleExpr stores its terms, so the digest holds across that format.
SWEEP_AMBIENTS = ((1, 3), (2, 4), (2, 5), (3, 6), (2, 10), (3, 7))
SWEEP_NOISE = "OUQS^*(),-0123456789 \tx ٢"
SWEEP_SHA256 = "36b611681df30898a6bfa631b3acd4433f842debe146df02e68009e6a6a31e85"


def _sweep_factor(rng, k, n):
    atom = rng.choice(("O", "U*", "Q*", "S^ U*", "S^ Q*"))
    if atom.startswith("S^"):
        # up to one entry more than the block holds, not always sorted,
        # now and then past the spread bound
        rank = k if atom.endswith("U*") else n - k
        exps = [rng.randint(-2, 3) for _ in range(rng.randint(1, rank + 1))]
        if rng.random() < 0.7:
            exps.sort(reverse=True)
        if rng.random() < 0.02:
            exps[0] = 300
        body = (str(exps[0]) if len(exps) == 1 and rng.random() < 0.5
                else "(%s)" % ",".join(map(str, exps)))
        atom = "S^" + body + atom[2:]
    if rng.random() < 0.4:
        atom += "(%d)" % rng.choice((rng.randint(-3, 3), 10 ** 12))
    return atom


def _sweep_descriptor(rng, k, n):
    text = " * ".join(_sweep_factor(rng, k, n)
                      for _ in range(rng.choice((1, 1, 1, 2, 2, 3))))
    if rng.random() < 0.25:
        # insert a character, delete one, or replace one
        i = rng.randrange(len(text) + 1)
        text = (text[:i] + rng.choice(SWEEP_NOISE) * rng.randint(0, 1)
                + text[i + rng.randint(0, 1):])
    return text


def test_descriptor_sweep_is_pinned():
    rng = random.Random("bwb-sweep")
    records = []
    for i in range(10000):
        k, n = SWEEP_AMBIENTS[i % len(SWEEP_AMBIENTS)]
        text = _sweep_descriptor(rng, k, n)
        try:
            E = parse_bundle(text, k, n)
            records.append((rank(E), ext_table(O(k, n), E)))
        except (TypeError, ValueError) as err:
            records.append((type(err).__name__, str(err)))
    assert sum(type(r[0]) is int for r in records) > 5000
    assert hashlib.sha256(repr(records).encode()).hexdigest() == SWEEP_SHA256


def test_internal_operations_do_not_recheck_weights(monkeypatch):
    # weights are checked where they enter; twist, tensor and Hom build
    # their results from weights that already passed
    E = parse_bundle("S^(2,1) U* * Q*(1)", 2, 5)
    F = parse_bundle("U*(-2) * S^2 Q*", 2, 5)
    calls = []

    def counted(w, k, n):
        calls.append(tuple(w))
        return check(w, k, n)

    check = bwb._check_weight
    monkeypatch.setattr(bwb, "_check_weight", counted)
    E.twist(3)
    E.tensor(F)
    hom_bundle(E, F)
    ext_table(E, F)
    assert calls == []
    schur_u_dual((1,), 2, 5)
    assert calls == [(1, 0, 0, 0, 0)]
    # a parse checks the weight each Schur power spells out, once, and
    # builds O, U* and Q* from weights that are valid as written
    calls.clear()
    parse_bundle("O(1) * S^(2,1) U*(-1) * U* * Q*(2) * S^2 Q* * O", 2, 5)
    assert calls == [(2, 1, 0, 0, 0), (0, 0, 2, 0, 0)]


# --- hom bundles --------------------------------------------------------

def test_hom_into_hyperplane_bundle():
    H = hom_bundle(O(2, 4), parse_bundle("O(1)", 2, 4))
    assert H.terms == {(1, 1, 0, 0): 1}


def test_endomorphisms_of_standard_dual():
    U = parse_bundle("U*", 2, 4)
    H = hom_bundle(U, U)
    assert H.terms == {(0, 0, 0, 0): 1, (1, -1, 0, 0): 1}


def test_hom_from_symmetric_square():
    H = hom_bundle(parse_bundle("S^2 U*", 2, 4), parse_bundle("U*", 2, 4))
    assert H.terms == {(0, -1, 0, 0): 1, (1, -2, 0, 0): 1}


def _char2(lam):
    # character of the GL(2) representation S^lam on diag(x, y), as a
    # Laurent polynomial {(a, b): coeff}
    a, b = lam
    return {(a - i, b + i): 1 for i in range(a - b + 1)}


def _char2_mul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (d, e), f in q.items():
            key = (a + d, b + e)
            out[key] = out.get(key, 0) + c * f
    return out


def test_hom_decomposition_against_character_oracle():
    # the U*-factor of hom(S^2 U*, U*) must reproduce the product of the
    # GL(2) characters of S^(0,-2) and S^(1,0)
    H = hom_bundle(parse_bundle("S^2 U*", 2, 4), parse_bundle("U*", 2, 4))
    total = {}
    for w, mult in H.terms.items():
        assert w[2:] == (0, 0)
        for key, c in _char2(w[:2]).items():
            total[key] = total.get(key, 0) + mult * c
    assert total == _char2_mul(_char2((0, -2)), _char2((1, 0)))


@given(st.data())
def test_endomorphisms_contain_trivial_once(data):
    k, n = data.draw(st.sampled_from([(2, 4), (2, 5), (3, 6)]))
    w = _small_chunk(data, k) + _small_chunk(data, n - k)
    E = BundleExpr(k, n, {w: 1})
    H = hom_bundle(E, E)
    assert H.terms[(0,) * n] == 1


# --- Ext tables ---------------------------------------------------------

def test_structure_sheaf_exceptional():
    for k, n in [(1, 3), (2, 4), (2, 5), (3, 6)]:
        assert ext_table(O(k, n), O(k, n)) == {0: 1}


def test_standard_dual_exceptional():
    U = parse_bundle("U*", 2, 4)
    assert ext_table(U, U) == {0: 1}


def test_backward_maps_vanish():
    assert ext_table(parse_bundle("O(1)", 2, 4),
                     parse_bundle("U*", 2, 4)) == {}


@pytest.mark.parametrize("t", [1, 5, 10**12])
def test_twist_cost_independent_of_twist(t):
    # sections of O(t) on the Pluecker quadric G(2,4); a huge t must not
    # reach the Littlewood-Richardson expansion as a huge partition
    want = (t + 1) * (t + 2) ** 2 * (t + 3) // 12
    assert ext_table(O(2, 4), O(2, 4).twist(t)) == {0: want}


@given(st.sampled_from([(2, 4), (2, 5)]), st.data())
def test_serre_duality(kn, data):
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    top = k * (n - k)
    lhs = ext_table(E, F)
    rhs = ext_table(F, E.twist(-n))
    assert lhs == {top - i: d for i, d in rhs.items()}


@given(st.sampled_from([(2, 4), (2, 5)]), st.data())
def test_euler_characteristic_additive(kn, data):
    k, n = kn
    E = _small_expr(data, k, n)
    E2 = _small_expr(data, k, n)
    F = _small_expr(data, k, n)

    def chi(table):
        return sum(d if i % 2 == 0 else -d for i, d in table.items())

    total = BundleExpr(k, n, dict(Counter(E.terms) + Counter(E2.terms)))
    assert chi(ext_table(total, F)) \
        == chi(ext_table(E, F)) + chi(ext_table(E2, F))


# --- collection checks --------------------------------------------------

@pytest.mark.parametrize("n", range(1, 7))
def test_beilinson_collections_pass(n):
    v = check_collection(builtin_collection("beilinson", n))
    assert v.ok and not v.failures


def test_g24_collections_pass():
    for name in ("kapranov_g24", "minimal_g24"):
        v = check_collection(builtin_collection(name))
        assert v.ok, v.failures


def test_check_collection_reports_each_object():
    v = check_collection(builtin_collection("minimal_g24"))
    assert v.objects == ["O", "U*", "O (1)", "U* (1)", "O (2)", "O (3)"]


def test_repeated_object_fails_semiorthogonality():
    c = LefschetzCollection("G(2,4)", ("O", "O"), (2,), fano_index=4)
    v = check_collection(c)
    assert not v.ok
    assert any(f["kind"] == "semiorthogonal" and f["table"] == {0: 1}
               for f in v.failures)


def test_decomposable_object_fails_exceptionality():
    c = LefschetzCollection("G(2,4)", ("U* * U*",), (1,), fano_index=4)
    v = check_collection(c)
    assert any(f["kind"] == "exceptional" for f in v.failures)


def test_grassmannian_verdict_is_pinned():
    # the records, their list order and their key order are the output
    # format of check --bwb and of CollectionVerdict.to_dict
    c = LefschetzCollection("G(2,4)", ("O", "U* * U*", "O"), (3, 1),
                            fano_index=4)
    d = check_collection(c).to_dict()
    assert d == {
        "variety": "G(2,4)",
        "objects": ["O", "U* * U*", "O", "O (1)"],
        "failures": [
            {"kind": "exceptional", "object": "U* * U*", "table": {0: 2}},
            {"kind": "semiorthogonal", "source": "O", "target": "O",
             "table": {0: 1}},
            {"kind": "semiorthogonal", "source": "O", "target": "U* * U*",
             "table": {0: 16}},
            {"kind": "semiorthogonal", "source": "O (1)",
             "target": "U* * U*", "table": {0: 1}},
        ],
        "inconclusive": [],
        "ok": False,
    }
    assert [list(f) for f in d["failures"]] == [
        ["kind", "object", "table"]] + [
        ["kind", "source", "target", "table"]] * 3


def _reference_verdict(c):
    """The collection as a flat list of objects: each parsed and twisted
    on its own, and every ordered pair decided by its own Ext."""
    found = parse_variety(c.variety)
    objects = twisted_objects(c)
    labels = ["%s (%d)" % (d, t) if t else d for d, t in objects]
    exprs = [parse_bundle(d, found.k, found.n).twist(t) for d, t in objects]
    failures, inconclusive = [], []
    pairs = [(a, a) for a in range(len(exprs))]
    pairs += [(b, a) for b in range(len(exprs)) for a in range(b)]
    for b, a in pairs:
        if found.backend == "grassmannian":
            table, ambient = ext_table(exprs[b], exprs[a]), None
        else:
            r = ext_hyperplane(exprs[b], exprs[a])
            table, ambient = r["table"], r["ambient"]
        record = ({"kind": "exceptional", "object": labels[a]} if a == b
                  else {"kind": "semiorthogonal", "source": labels[b],
                        "target": labels[a]})
        if table is None:
            inconclusive.append(dict(record, ambient=ambient))
        elif table != ({0: 1} if a == b else {}):
            failures.append(dict(record, table=table))
    return {"variety": c.variety, "objects": labels, "failures": failures,
            "inconclusive": inconclusive,
            "ok": not failures and not inconclusive}


def _check_any(c):
    if collection_backend(c.variety) == "grassmannian":
        return check_collection(c)
    return check_collection_hyperplane(c)


@pytest.mark.parametrize("c", [
    builtin_collection("beilinson", 3), builtin_collection("kapranov_g24"),
    builtin_collection("minimal_g24"), builtin_collection("kuznetsov_ig2", 3),
    builtin_collection("kuznetsov_ig2", 5),
    LefschetzCollection("P2", ["O", "O"], (2, 2, 2), 3),
    LefschetzCollection("IG(2,6)", ["O", "O(1)"], (2, 2, 2, 2, 2), 5),
    LefschetzCollection("IG(2,4)", ["S^2 U*", "S^3 U*"], (2, 2), 3),
], ids=["beilinson-3", "kapranov_g24", "minimal_g24", "kuznetsov_ig2-3",
        "kuznetsov_ig2-5", "repeated-entry", "failing", "inconclusive"])
def test_check_matches_the_flat_pair_loop(c):
    # deciding (E(s), F(t)) as Ext(E, F(t - s)) once per question gives
    # the same records, in the same order, as deciding every pair
    d = _check_any(c).to_dict()
    ref = _reference_verdict(c)
    assert d == ref
    assert repr(d) == repr(ref)


def test_block_with_overlapping_degrees_leaves_pairs_undecided():
    v = check_collection_hyperplane(
        LefschetzCollection("IG(2,4)", ["S^2 U*", "S^3 U*"], (2, 2), 3))
    assert (len(v.inconclusive), len(v.failures)) == (8, 2)


@pytest.mark.parametrize("c,parses,exts", [
    (builtin_collection("kuznetsov_ig2", 5), 5, 190),
    (builtin_collection("kuznetsov_ig2", 3), 3, 33),
    (builtin_collection("beilinson", 3), 1, 4),
    (builtin_collection("kapranov_g24"), 3, 15),
    (builtin_collection("minimal_g24"), 2, 11),
], ids=["kuznetsov_ig2-5", "kuznetsov_ig2-3", "beilinson-3", "kapranov_g24",
        "minimal_g24"])
def test_check_parses_each_entry_and_decides_each_question_once(
        monkeypatch, c, parses, exts):
    calls = []

    def counting(name):
        fn = getattr(bwb, name)

        def counted(*args):
            calls.append(name)
            return fn(*args)
        return counted

    for name in ("parse_bundle", "ext_table", "ext_hyperplane"):
        monkeypatch.setattr(bwb, name, counting(name))
    _check_any(c)
    assert calls.count("parse_bundle") == parses
    assert calls.count("ext_table") + calls.count("ext_hyperplane") == exts


@pytest.mark.parametrize("variety,backend", [
    ("P1", "grassmannian"), ("P10", "grassmannian"),
    ("G(2,4)", "grassmannian"), ("G(3,7)", "grassmannian"),
    ("IG(2,4)", "hyperplane"), ("IG(2,10)", "hyperplane"),
    ("IG(2,5)", None), ("IG(2,2)", None), ("IG(3,6)", None),
    ("A3", None), ("P", None), ("G(2,4) ", None),
    ("P\u0663", None), ("G(\u0662,\u0664)", None)])
def test_collection_backend(variety, backend):
    assert collection_backend(variety) == backend


@pytest.mark.parametrize("vid", list(REGISTRY))
def test_collection_backend_matches_the_registry(vid):
    assert collection_backend(vid) == REGISTRY[vid].backend


def test_object_count_is_checked_before_the_objects_are_built(monkeypatch):
    def refuse(c):
        raise AssertionError("the objects were built")
    monkeypatch.setattr(bwb, "twisted_objects", refuse)
    c = LefschetzCollection("P10", ["O"] * 200, [200] * 11, 11)
    with pytest.raises(ValueError,
                       match="collection has 2200 objects, more than 128"):
        check_collection(c)


@pytest.mark.parametrize("check, c, message", [
    (check_collection, LefschetzCollection("P2", ("O",), (1, 1), 10**12),
     "variety 3, collection 1000000000000"),
    (check_collection, LefschetzCollection("G(2,5)", ("O",), (1,), 4),
     "variety 5, collection 4"),
    (check_collection_hyperplane,
     LefschetzCollection("IG(2,8)", ("O",), (1,), 10**12),
     "variety 7, collection 1000000000000"),
    (check_collection_hyperplane,
     LefschetzCollection("IG(2,8)", ("O",), (1,), 8),
     "variety 7, collection 8"),
])
def test_fano_index_mismatch_is_refused_before_the_support_is_read(
        check, c, message):
    # padding the support to 10**12 entries would run out of memory
    start = time.perf_counter()
    with pytest.raises(ValueError, match="^Fano index mismatch: " + message):
        check(c)
    assert time.perf_counter() - start < 0.5


def test_unsupported_variety():
    c = builtin_collection("kuznetsov_ig2", 3)
    with pytest.raises(ValueError, match="no cohomology backend"):
        check_collection(c)


# --- hyperplane restriction ---------------------------------------------

def test_restricted_structure_sheaf():
    r = ext_hyperplane(O(2, 6), O(2, 6))
    assert r["verdict"] == "dims"
    assert r["table"] == {0: 1}
    assert r["ambient"]["hom_twisted"] == {}


def test_restricted_backward_map_vanishes():
    r = ext_hyperplane(parse_bundle("U*", 2, 6), O(2, 6))
    assert r["verdict"] == "vanishes"
    assert r["table"] == {}


def test_inconclusive_pair_is_reported():
    # both ambient tables live in degree 4, so the connecting map decides
    E = parse_bundle("O(2)", 2, 4)
    F = parse_bundle("O(-2)", 2, 4)
    r = ext_hyperplane(E, F)
    assert r["verdict"] == "inconclusive"
    assert r["table"] is None
    assert r["overlap_degrees"] == [4]
    assert r["ambient"] == {"hom": {4: 1}, "hom_twisted": {4: 6}}


def test_hyperplane_needs_even_ambient():
    with pytest.raises(ValueError, match="ambient G\\(2,2n\\)"):
        ext_hyperplane(O(2, 5), O(2, 5))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_isotropic_collections_conclusive_and_pass(n):
    v = check_collection_hyperplane(builtin_collection("kuznetsov_ig2", n))
    assert v.ok
    assert not v.inconclusive


def test_hyperplane_verdict_is_pinned():
    # the records, their list order and their key order are the output
    # format of check --bwb and of CollectionVerdict.to_dict
    c = LefschetzCollection("IG(2,4)", ("O(2)", "O(-2)", "O(2)"), (3,),
                            fano_index=3)
    d = check_collection_hyperplane(c).to_dict()
    assert d == {
        "variety": "IG(2,4)",
        "objects": ["O(2)", "O(-2)", "O(2)"],
        "failures": [
            {"kind": "semiorthogonal", "source": "O(2)", "target": "O(2)",
             "table": {0: 1}},
        ],
        "inconclusive": [
            {"kind": "semiorthogonal", "source": "O(-2)", "target": "O(2)",
             "ambient": {"hom": {0: 105}, "hom_twisted": {0: 50}}},
            {"kind": "semiorthogonal", "source": "O(2)", "target": "O(-2)",
             "ambient": {"hom": {4: 1}, "hom_twisted": {4: 6}}},
        ],
        "ok": False,
    }
    assert list(d["failures"][0]) == ["kind", "source", "target", "table"]
    assert [list(f) for f in d["inconclusive"]] == [
        ["kind", "source", "target", "ambient"]] * 2


@given(st.sampled_from([(2, 4), (2, 6)]), st.data())
def test_hyperplane_ambient_tables_match_two_ext_tables(kn, data):
    # ext_hyperplane twists one hom decomposition instead of decomposing
    # Hom(E, F(-1)) again
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    assert ext_hyperplane(E, F)["ambient"] == {
        "hom": ext_table(E, F), "hom_twisted": ext_table(E, F.twist(-1))}


def test_hyperplane_shift_on_the_quadric_threefold():
    # IG(2,4) is the quadric threefold, with canonical bundle O(-3); the
    # twisted ambient table moves down one degree into the restricted one
    r = ext_hyperplane(O(2, 4), parse_bundle("O(-3)", 2, 4))
    assert r["table"] == {3: 1}
    r = ext_hyperplane(parse_bundle("U*", 2, 4),
                       parse_bundle("U* * Q*", 2, 4).twist(1))
    assert r["ambient"] == {"hom": {0: 4}, "hom_twisted": {1: 4}}
    assert r["table"] == {0: 8}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hyperplane_serre_duality(n):
    # Ext^i(E, F) = Ext^(dim - i)(F, E(-m)) on IG(2,2n), of dimension
    # 4n - 5 and Fano index m = 2n - 1, over the decided pairs whose
    # twisted ambient table is nonempty on one side
    dim, m = 4 * n - 5, 2 * n - 1
    base = [parse_bundle(d, 2, 2 * n)
            for d in ("O", "U*", "S^2 U*", "Q*", "U* * Q*")]
    checked = 0
    for E in base:
        for F in (G.twist(t) for G in base for t in range(-n, n + 1)):
            lhs = ext_hyperplane(E, F)
            rhs = ext_hyperplane(F, E.twist(-m))
            if lhs["table"] is None or rhs["table"] is None or not (
                    lhs["ambient"]["hom_twisted"]
                    or rhs["ambient"]["hom_twisted"]):
                continue
            assert lhs["table"] == {dim - i: d
                                    for i, d in rhs["table"].items()}
            checked += 1
    assert checked > 0


def test_hyperplane_backend_rejects_plain_grassmannian():
    c = builtin_collection("minimal_g24")
    with pytest.raises(ValueError, match="no hyperplane-section backend"):
        check_collection_hyperplane(c)


def test_verdict_serialization():
    v = check_collection(builtin_collection("beilinson", 2))
    d = v.to_dict()
    assert d["ok"] is True
    assert d["variety"] == "P2"
    assert d["objects"] == ["O", "O (1)", "O (2)"]
    assert isinstance(v, CollectionVerdict)
