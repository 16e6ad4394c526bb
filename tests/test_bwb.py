from math import comb

import pytest
from hypothesis import given, strategies as st

from qspectra.bwb import (BundleExpr, CollectionVerdict, bott,
                          check_collection, check_collection_hyperplane,
                          collection_backend, ext_hyperplane, ext_table,
                          euler_char, hom_bundle, parse_bundle, weyl_dim)
from qspectra.lefschetz import LefschetzCollection, builtin_collection
from qspectra.schur import Partition


def O(k, n):
    return BundleExpr.structure_sheaf(k, n)


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


# --- BundleExpr algebra -------------------------------------------------

def test_twist_is_normalized_into_lambda():
    E = O(2, 4).twist(3)
    assert E.terms == {((3, 3), (0, 0)): 1}
    assert parse_bundle("O(3)", 2, 4) == E


def test_mu_canonicalized_to_end_in_zero():
    E = BundleExpr(2, 5, {((0, 0), (2, 1, 1)): 1})
    assert E.terms == {((-1, -1), (1, 0, 0)): 1}


def test_det_q_dual_is_anti_hyperplane():
    # on G(2,3) the quotient has rank 1 and Q* = O(-1)
    E = BundleExpr.schur_q_dual((1,), 2, 3)
    assert E == O(2, 3).twist(-1)


def test_dual_is_an_involution():
    E = parse_bundle("S^(2,1) U* * Q*", 2, 5)
    assert E.dual().dual() == E


def test_dual_reverses_and_negates():
    E = BundleExpr.schur_u_dual((2, 1), 2, 4)
    assert E.dual().terms == {((-1, -2), (0, 0)): 1}


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
        BundleExpr(2, 4, {((0, 0), (0, 0)): -1})


def test_rank_of_tautological_pieces():
    assert parse_bundle("U*", 2, 5).rank == 2
    assert parse_bundle("Q*", 2, 5).rank == 3
    assert parse_bundle("S^2 U*", 2, 5).rank == 3
    assert parse_bundle("U* * Q*", 2, 5).rank == 6


def _small_chunk(data, size):
    xs = data.draw(st.tuples(*[st.integers(-2, 2)] * size))
    return tuple(sorted(xs, reverse=True))


def _small_expr(data, k, n):
    terms = {}
    for _ in range(data.draw(st.integers(1, 2))):
        key = (_small_chunk(data, k), _small_chunk(data, n - k))
        terms[key] = terms.get(key, 0) + data.draw(st.integers(1, 2))
    return BundleExpr(k, n, terms)


@given(st.sampled_from([(2, 4), (2, 5)]), st.data())
def test_rank_multiplicative_under_tensor(kn, data):
    # exercises the shift trick and the row cutoff in one go
    k, n = kn
    E = _small_expr(data, k, n)
    F = _small_expr(data, k, n)
    assert E.tensor(F).rank == E.rank * F.rank


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


# --- descriptor grammar -------------------------------------------------

def test_parse_basic_descriptors():
    assert parse_bundle("O", 2, 4) == O(2, 4)
    assert parse_bundle("U*", 2, 4) == BundleExpr.schur_u_dual((1,), 2, 4)
    assert parse_bundle("Q*", 2, 4) == BundleExpr.schur_q_dual((1,), 2, 4)
    assert parse_bundle("S^3 U*", 2, 4) == BundleExpr.schur_u_dual((3,), 2, 4)
    assert parse_bundle("S^(2,1) U*", 2, 4) == \
        BundleExpr.schur_u_dual((2, 1), 2, 4)
    assert parse_bundle("S^(1,1) Q*", 2, 4) == \
        BundleExpr.schur_q_dual((1, 1), 2, 4)


def test_parse_twist_suffix():
    assert parse_bundle("O(2)", 2, 4) == O(2, 4).twist(2)
    assert parse_bundle("U*(-1)", 2, 4) == \
        BundleExpr.schur_u_dual((1,), 2, 4).twist(-1)
    assert parse_bundle("S^2 U*(1)", 2, 4) == \
        BundleExpr.schur_u_dual((2,), 2, 4).twist(1)


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


def test_parse_bounds_the_weight_spread():
    # spreads add over the factors of a tensor product; twists shift every
    # entry alike and are not bounded
    assert parse_bundle("S^256 U*", 2, 4) == BundleExpr.schur_u_dual((256,), 2, 4)
    assert parse_bundle("S^(9,9) U*(-10) * S^(200,-40) U*", 2, 4).terms == {
        ((199, -41), (0, 0)): 1}
    assert parse_bundle("S^(10,4) U*(1000000000000)", 2, 4).terms == {
        ((10**12 + 10, 10**12 + 4), (0, 0)): 1}
    for text in ("S^257 U*", "U* * S^256 U*", "S^(300,0) Q*",
                 "S^200 U* * S^(57,0) Q*", "S^(0,-257) U*"):
        with pytest.raises(ValueError, match="weight spread"):
            parse_bundle(text, 2, 4)


def test_parse_case_sensitive():
    with pytest.raises(ValueError):
        parse_bundle("o", 2, 4)
    with pytest.raises(ValueError):
        parse_bundle("u*", 2, 4)


# --- hom bundles --------------------------------------------------------

def test_hom_into_hyperplane_bundle():
    H = hom_bundle(O(2, 4), parse_bundle("O(1)", 2, 4))
    assert H.terms == {((1, 1), (0, 0)): 1}


def test_endomorphisms_of_standard_dual():
    U = parse_bundle("U*", 2, 4)
    H = hom_bundle(U, U)
    assert H.terms == {((0, 0), (0, 0)): 1, ((1, -1), (0, 0)): 1}


def test_hom_from_symmetric_square():
    H = hom_bundle(parse_bundle("S^2 U*", 2, 4), parse_bundle("U*", 2, 4))
    assert H.terms == {((0, -1), (0, 0)): 1, ((1, -2), (0, 0)): 1}


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
    for (lam, mu), mult in H.terms.items():
        assert mu == (0, 0)
        for key, c in _char2(lam).items():
            total[key] = total.get(key, 0) + mult * c
    assert total == _char2_mul(_char2((0, -2)), _char2((1, 0)))


@given(st.data())
def test_endomorphisms_contain_trivial_once(data):
    k, n = data.draw(st.sampled_from([(2, 4), (2, 5), (3, 6)]))
    lam = _small_chunk(data, k)
    mu = _small_chunk(data, n - k)
    E = BundleExpr(k, n, {(lam, mu): 1})
    H = hom_bundle(E, E)
    zero = ((0,) * k, (0,) * (n - k))
    assert H.terms[zero] == 1


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
    chi = euler_char(ext_table(E + E2, F))
    assert chi == euler_char(ext_table(E, F)) + euler_char(ext_table(E2, F))


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


@pytest.mark.parametrize("variety,backend", [
    ("P1", "grassmannian"), ("P10", "grassmannian"),
    ("G(2,4)", "grassmannian"), ("G(3,7)", "grassmannian"),
    ("IG(2,4)", "hyperplane"), ("IG(2,10)", "hyperplane"),
    ("IG(2,5)", None), ("IG(2,2)", None), ("IG(3,6)", None),
    ("A3", None), ("P", None), ("G(2,4) ", None)])
def test_collection_backend(variety, backend):
    assert collection_backend(variety) == backend


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
