import json

import pytest
from hypothesis import given, strategies as st

from qspectra.algebra import qh_ig2, qh_projective
from qspectra.lefschetz import (LefschetzCollection, builtin_collection,
                                collection_from_json, collection_to_json,
                                conjecture_numerology, lengths,
                                load_collection,
                                twisted_objects)
from qspectra.schur import qh_grassmannian
from qspectra.spectrum import quantum_spectrum_report


@pytest.fixture(scope="module")
def report_p3():
    return quantum_spectrum_report(qh_projective(3))


@pytest.fixture(scope="module")
def report_g24():
    return quantum_spectrum_report(qh_grassmannian(2, 4))


@pytest.fixture(scope="module")
def report_ig6():
    return quantum_spectrum_report(qh_ig2(3))


def test_support_zero_padded_to_fano_index():
    c = LefschetzCollection("X", ("O",), (1, 1), fano_index=4)
    assert c.support == (1, 1, 0, 0)


def test_support_read_padded_after_its_given_entries():
    c = LefschetzCollection("X", ("O", "U*"), [2, 2, 1], fano_index=4)
    assert c.support == (2, 2, 1, 0)


def test_support_must_be_non_increasing():
    with pytest.raises(ValueError, match="not non-increasing"):
        LefschetzCollection("X", ("O", "U*"), (1, 2), fano_index=3)


def test_support_must_be_nonnegative():
    with pytest.raises(ValueError, match="negative"):
        LefschetzCollection("X", ("O",), (1, -1), fano_index=3)


def test_support_longer_than_index_rejected():
    with pytest.raises(ValueError, match="longer than the Fano index"):
        LefschetzCollection("X", ("O",), (1, 1, 1), fano_index=2)


def test_support_must_fit_starting_block():
    with pytest.raises(ValueError, match="exceeds the starting block"):
        LefschetzCollection("X", ("O",), (2, 1), fano_index=3)


def test_fano_index_positive():
    with pytest.raises(ValueError, match="positive"):
        LefschetzCollection("X", ("O",), (), fano_index=0)


@pytest.mark.parametrize("bad", [3.0, "3", True])
def test_fano_index_must_be_an_int(bad):
    with pytest.raises(TypeError, match="fano_index must be an int, got"):
        LefschetzCollection("X", ("O",), (1,), fano_index=bad)


@pytest.mark.parametrize("bad", [1.5, True, "1"])
def test_support_entries_are_not_coerced(bad):
    with pytest.raises(TypeError, match="support entries must be ints"):
        LefschetzCollection("X", ("O",), (1, bad), fano_index=3)


def test_starting_block_and_variety_are_not_coerced():
    with pytest.raises(TypeError, match="starting block entries must be "
                       "strings"):
        LefschetzCollection("X", ("O", 7), (2,), fano_index=3)
    with pytest.raises(TypeError, match="variety must be a string"):
        LefschetzCollection(4, ("O",), (1,), fano_index=3)


def test_twisted_objects_block_order():
    c = builtin_collection("minimal_g24")
    objs = twisted_objects(c)
    assert objs == [("O", 0), ("U*", 0), ("O", 1), ("U*", 1),
                    ("O", 2), ("O", 3)]


def test_twisted_objects_kapranov():
    c = builtin_collection("kapranov_g24")
    objs = twisted_objects(c)
    assert len(objs) == 6
    assert objs[0] == ("O", 0)
    assert objs[-1] == ("O", 2)
    # block widths follow the support partition
    widths = {}
    for _, t in objs:
        widths[t] = widths.get(t, 0) + 1
    assert widths == {0: 3, 1: 2, 2: 1}


def test_lengths_rectangular_collection():
    c = builtin_collection("beilinson", 4)
    assert lengths(c) == {"total": 5, "rectangular": 5,
                          "residual_expected": 0}


def test_lengths_minimal_g24():
    c = builtin_collection("minimal_g24")
    assert lengths(c) == {"total": 6, "rectangular": 4,
                          "residual_expected": 2}


def test_lengths_kapranov_has_no_rectangular_part():
    # support ends in 0, so the rectangular part is empty
    c = builtin_collection("kapranov_g24")
    assert lengths(c) == {"total": 6, "rectangular": 0,
                          "residual_expected": 6}


def test_lengths_kuznetsov_ig2():
    c = builtin_collection("kuznetsov_ig2", 3)
    assert c.support == (3, 3, 2, 2, 2)
    assert lengths(c) == {"total": 12, "rectangular": 10,
                          "residual_expected": 2}


@given(st.integers(1, 8), st.data())
def test_lengths_consistent_with_object_list(m, data):
    widths = data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=m))
    sigma = tuple(sorted(widths, reverse=True))
    block = tuple("E%d" % i for i in range(max(sigma)))
    c = LefschetzCollection("X", block, sigma, fano_index=m)
    sizes = lengths(c)
    assert sizes["total"] == len(twisted_objects(c))
    assert sizes["total"] == sizes["rectangular"] + sizes["residual_expected"]
    assert sizes["rectangular"] == m * min(c.support)
    assert sizes["residual_expected"] >= 0


def test_builtin_beilinson_shape():
    c = builtin_collection("beilinson", 2)
    assert c.variety == "P2"
    assert c.starting_block == ("O",)
    assert c.support == (1, 1, 1)
    assert c.asserted_full


def test_builtin_kuznetsov_block_descriptors():
    c = builtin_collection("kuznetsov_ig2", 4)
    assert c.starting_block == ("O", "U*", "S^2 U*", "S^3 U*")
    assert c.fano_index == 7
    assert sum(c.support) == 24


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown collection"):
        builtin_collection("tilting_bundle")


def test_builtin_parameter_required():
    with pytest.raises(ValueError, match="requires n"):
        builtin_collection("beilinson")
    with pytest.raises(ValueError, match="requires n"):
        builtin_collection("kuznetsov_ig2", 1)


def test_numerology_projective_space(report_p3):
    v = conjecture_numerology(report_p3, builtin_collection("beilinson", 3))
    assert v.ok
    assert v.total_length == 4
    assert v.rect_length == 4
    assert v.residual_expected == 0
    assert report_p3.orbit_count_by_length == 1
    # zero fiber is empty, hence trivially reduced: the point-count
    # comparison is present and reads 0 vs 0
    assert v.checks["residual_vs_zero_points"]["ok"]


def test_numerology_minimal_g24(report_g24):
    v = conjecture_numerology(report_g24, builtin_collection("minimal_g24"))
    assert v.ok
    assert v.residual_expected == 2
    assert report_g24.orbit_count_by_length == 1
    assert set(v.checks) == {"total_vs_dim", "smallest_block_vs_orbits",
                             "residual_vs_zero_fiber",
                             "residual_vs_zero_points"}


def test_numerology_kapranov_wrong_shape(report_g24):
    # full, so the length check passes, but the shape has no rectangular
    # part and the residual comparison fails
    v = conjecture_numerology(report_g24, builtin_collection("kapranov_g24"))
    assert not v.ok
    assert v.checks["total_vs_dim"]["ok"]
    assert not v.checks["smallest_block_vs_orbits"]["ok"]
    assert not v.checks["residual_vs_zero_fiber"]["ok"]


def test_numerology_ig6(report_ig6):
    v = conjecture_numerology(report_ig6,
                              builtin_collection("kuznetsov_ig2", 3))
    assert v.ok
    assert report_ig6.orbit_count_by_length == 2
    # fat zero fiber: the per-point comparison is not applicable
    assert "residual_vs_zero_points" not in v.checks


def test_numerology_index_mismatch(report_ig6):
    with pytest.raises(ValueError, match="Fano index mismatch"):
        conjecture_numerology(report_ig6, builtin_collection("minimal_g24"))


def test_numerology_unasserted_collection(report_g24):
    c = LefschetzCollection("G(2,4)", ("O", "U*"), (2, 2, 1, 1),
                            fano_index=4)
    v = conjecture_numerology(report_g24, c)
    assert v.ok
    assert "no fullness asserted" in v.checks["total_vs_dim"]["explanation"]


def test_collection_json_roundtrip(collection_file):
    c = builtin_collection("kuznetsov_ig2", 3)
    path = collection_file(c, "c.json")
    back = load_collection(path)
    assert back.variety == c.variety
    assert back.starting_block == c.starting_block
    assert back.support == c.support
    assert back.fano_index == c.fano_index
    # fullness is not part of the file format
    assert not back.asserted_full


def test_reading_costs_the_same_whatever_the_fano_index(tmp_path):
    # the support is stored as given: padding it to 10**12 entries would
    # not fit in memory
    obj = {"variety": "P2", "fano_index": 10**12, "starting_block": ["O"],
           "support": [1, 1]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(obj))
    for c in (collection_from_json(obj), load_collection(path)):
        assert c.fano_index == 10**12
        assert c.starting_block == ("O",)


def test_collection_json_missing_keys():
    with pytest.raises(ValueError, match="missing keys: support"):
        collection_from_json({"variety": "X", "fano_index": 2,
                              "starting_block": ["O"]})


@pytest.mark.parametrize("key,value", [
    ("variety", 7), ("fano_index", "4"), ("fano_index", True),
    ("support", None), ("support", "1111"), ("support", [1, 1.0]),
    ("starting_block", None), ("starting_block", [1, None])])
def test_collection_json_rejects_wrong_types(key, value):
    obj = collection_to_json(builtin_collection("minimal_g24"))
    obj[key] = value
    with pytest.raises(ValueError, match=key):
        collection_from_json(obj)


def test_collection_json_not_object():
    with pytest.raises(ValueError, match="JSON object"):
        collection_from_json(["O"])


def test_collection_json_shape_preserved():
    c = builtin_collection("kapranov_g24")
    obj = collection_to_json(c)
    assert obj["support"] == [3, 2, 1, 0]
    assert obj["starting_block"] == ["O", "U*", "S^2 U*"]
