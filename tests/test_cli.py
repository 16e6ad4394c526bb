import json
import time

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from qspectra import cli
from qspectra.algebra import algebra_from_json, algebra_to_json
from qspectra.cli import REGISTRY, RunReport, VarietyDescriptor, main
from qspectra.lefschetz import builtin_collection, save_collection


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- report -------------------------------------------------------------

def test_report_projective_space(capsys):
    code, out, err = run(capsys, "report", "P3")
    assert code == 0
    assert "# quantum spectrum: P3" in out
    assert "| algebra dimension | 4 |" in out
    assert "| orbits by length (k) | 1 |" in out
    assert "| zero fiber: length | 0 |" in out
    assert "computed in" in err


def test_report_isotropic_six(capsys):
    code, out, _ = run(capsys, "report", "IG(2,6)")
    assert code == 0
    assert "| orbits by length (k) | 2 |" in out
    assert "| zero fiber: length | 2 |" in out
    assert "| zero fiber: single point | yes |" in out
    assert "| zero fiber: Hilbert function | (1, 1) |" in out
    assert "| zero fiber: socle dimension | 1 |" in out


def test_report_g24(capsys):
    code, out, _ = run(capsys, "report", "G(2,4)")
    assert code == 0
    assert "| invertible fiber: reduced points | 4 |" in out
    assert "| zero fiber: points | 2 |" in out
    assert "| zero fiber: single point | no |" in out


def test_report_jacobi_target(capsys):
    code, out, _ = run(capsys, "report", "A3")
    assert code == 0
    assert "| algebra dimension | 3 |" in out
    assert "| invertible fiber: length | 0 |" in out
    assert "| zero fiber: Hilbert function | (1, 1, 1) |" in out


def test_report_unknown_id(capsys):
    code, _, err = run(capsys, "report", "X17")
    assert code == 1
    assert "unknown variety id" in err
    assert "G(3,6)" in err and "E8" in err


def test_report_json_deterministic(capsys, tmp_path):
    target = tmp_path / "out.json"
    assert main(["report", "G(2,5)", "--json", str(target)]) == 0
    first = target.read_bytes()
    assert main(["report", "G(2,5)", "--json", str(target)]) == 0
    assert target.read_bytes() == first
    capsys.readouterr()
    doc = json.loads(first)
    assert doc["meta"]["tool"] == "qspectra"
    assert doc["spectrum"]["name"] == "G(2,5)"
    assert doc["spectrum"]["dim_zero_part"] == 0
    assert "time" not in first.decode().lower()


def test_report_stdout_deterministic(capsys):
    _, out1, _ = run(capsys, "report", "P5")
    _, out2, _ = run(capsys, "report", "P5")
    assert out1 == out2


def test_internal_violation_maps_to_exit_two(capsys, monkeypatch):
    def broken():
        raise AssertionError("boom")
    monkeypatch.setitem(REGISTRY, "BAD",
                        VarietyDescriptor("BAD", broken))
    code, _, err = run(capsys, "report", "BAD")
    assert code == 2
    assert "internal invariant violation: boom" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


# --- check --------------------------------------------------------------

@pytest.fixture()
def minimal_file(tmp_path):
    path = tmp_path / "minimal.json"
    save_collection(builtin_collection("minimal_g24"), path)
    return str(path)


def test_check_minimal_with_bwb(capsys, minimal_file):
    code, out, _ = run(capsys, "check", minimal_file, "--bwb")
    assert code == 0
    assert "[ok] total_vs_dim" in out
    assert "[ok] residual_vs_zero_fiber" in out
    assert "grassmannian backend" in out
    assert "all pairs pass" in out


def test_check_kapranov_shape_reported_not_failed(capsys, tmp_path):
    path = tmp_path / "kapranov.json"
    save_collection(builtin_collection("kapranov_g24"), path)
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "rectangular 0, residual 6" in out
    assert "[differs] residual_vs_zero_fiber" in out


def test_check_isotropic_with_bwb(capsys, tmp_path):
    path = tmp_path / "kuz.json"
    save_collection(builtin_collection("kuznetsov_ig2", 3), path)
    code, out, _ = run(capsys, "check", str(path), "--bwb")
    assert code == 0
    assert "hyperplane backend" in out
    assert "all pairs pass" in out


def test_check_increasing_support_rejected(capsys, tmp_path):
    path = tmp_path / "bad_sigma.json"
    path.write_text(json.dumps({
        "variety": "G(2,4)", "fano_index": 4,
        "starting_block": ["O", "U*"], "support": [1, 2]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "support partition not non-increasing" in err


def test_check_unknown_variety(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({
        "variety": "Y", "fano_index": 2,
        "starting_block": ["O"], "support": [1, 1]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "unknown variety" in err


@pytest.mark.parametrize("variety, message", [
    ("Y", "unknown variety"), ("P2", "Fano index mismatch")])
def test_check_rejects_before_padding_to_fano_index(capsys, tmp_path,
                                                    variety, message):
    # the support is padded to the file's Fano index only after the
    # variety and that index are checked against the registry
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "variety": variety, "fano_index": 10**12,
        "starting_block": ["O"], "support": [1, 1]}))
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert message in err


def test_check_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "check", str(tmp_path / "absent.json"))
    assert code == 1
    assert "cannot read collection" in err


def test_check_bwb_without_backend_warns(capsys, tmp_path):
    path = tmp_path / "a3.json"
    path.write_text(json.dumps({
        "variety": "A3", "fano_index": 1,
        "starting_block": ["O"], "support": [1]}))
    code, out, err = run(capsys, "check", str(path), "--bwb")
    assert code == 0
    assert "no cohomology backend" in err
    assert "numerology vs spectrum of A3" in out


def test_check_bwb_failure_gates_exit(capsys, tmp_path):
    path = tmp_path / "repeat.json"
    path.write_text(json.dumps({
        "variety": "G(2,4)", "fano_index": 4,
        "starting_block": ["O", "O"], "support": [2]}))
    code, out, _ = run(capsys, "check", str(path), "--bwb")
    assert code == 1
    assert "[fail]" in out


def test_check_bwb_rejects_a_wide_schur_power_at_once(capsys, tmp_path):
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({
        "variety": "G(2,4)", "fano_index": 4,
        "starting_block": ["O", "S^100000 U*"], "support": [2, 2]}))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "weight spread 100000" in err


_DESCRIPTOR = st.one_of(
    st.builds("{}({})".format, st.sampled_from(["O", "U*", "S^(2,1) Q*"]),
              st.integers(-10**12, 10**12)),
    st.sampled_from(["O", "U*", "Q*", "S^2 U*", "U* * Q*"]),
    st.text(alphabet="OUQS^*(),- 0123456789", max_size=12), st.integers())
_JUNK = (st.none() | st.booleans() | st.floats(allow_nan=False)
         | st.text(max_size=4))
_COLLECTION = st.fixed_dictionaries({
    "variety": st.sampled_from(["P2", "G(2,4)", "IG(2,4)", "A2", "Y"])
    | st.integers() | _JUNK,
    "fano_index": st.integers(-1, 6) | st.just("4") | _JUNK,
    "starting_block": st.lists(_DESCRIPTOR, max_size=3) | _JUNK,
    "support": st.lists(st.integers(-1, 3), max_size=5)
    | st.lists(_JUNK, min_size=1, max_size=3) | _JUNK,
})


@given(doc=_COLLECTION, wrap=st.sampled_from(["object", "list", "truncated"]),
       drop=st.sampled_from([None, "variety", "fano_index", "support",
                             "starting_block"]))
@example(doc={"variety": "IG(2,4)", "fano_index": 3, "support": [1, 1, 1],
              "starting_block": ["O(99999999999)"]}, wrap="object", drop=None)
@settings(suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
def test_check_exit_contract_on_generated_files(tmp_path, doc, wrap, drop):
    doc.pop(drop, None)
    text = json.dumps([doc] if wrap == "list" else doc)
    path = tmp_path / "generated.json"
    path.write_text(text[:-1] if wrap == "truncated" else text)
    assert main(["check", str(path), "--bwb"]) in (0, 1)


def test_unexpected_exception_maps_to_exit_two(capsys, monkeypatch):
    def broken():
        raise KeyError("boom")
    monkeypatch.setitem(REGISTRY, "BAD", VarietyDescriptor("BAD", broken))
    code, _, err = run(capsys, "report", "BAD")
    assert code == 2
    assert err.strip() == "internal error: KeyError: 'boom'"


# --- selftest -----------------------------------------------------------

def test_selftest_filter_runs_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "exactlin")
    assert code == 0
    assert "[pass] exactlin: Cayley-Hamilton" in out
    assert "selftest: 1 passed, 0 failed" in out


def test_selftest_runs_every_row(capsys):
    # the whole cross-validation suite, including the bwb rows that run
    # Kuznetsov's IG(2,6) collection through the hyperplane checker
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: 10 passed, 0 failed" in out


def test_selftest_unknown_filter(capsys):
    code, _, err = run(capsys, "selftest", "--filter", "nosuchmodule")
    assert code == 1
    assert "no selftest entries match" in err


def test_selftest_catches_perturbed_data(capsys, monkeypatch):
    # perturb one structure constant of IG(2,4) in memory; every algebra
    # check that touches the ring must surface the damage
    good = cli.qh_ig2

    def perturbed(n):
        if n != 2:
            return good(n)
        obj = algebra_to_json(good(2))
        assert obj["triples"][1][:3] == [0, 1, 1]
        obj["triples"][1][3] += 1
        return algebra_from_json(obj, check=False)

    monkeypatch.setattr(cli, "qh_ig2", perturbed)
    code, out, _ = run(capsys, "selftest", "--filter", "algebra")
    assert code == 2
    assert "[fail] algebra: every registry provider validates" in out


def test_run_report_wrapper_shape():
    run_report = RunReport()
    assert run_report.to_dict() == {
        "meta": {"tool": "qspectra", "version": cli.__version__}}
