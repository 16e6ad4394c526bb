import ast
import collections
import importlib
import json
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import qspectra
from qspectra import cli, varieties
from qspectra.algebra import (FiniteCommAlgebra, qh_projective,
                              validate_algebra)
from qspectra.cli import REGISTRY, main
from qspectra.varieties import Variety
from qspectra.lefschetz import builtin_collection
from qspectra.schur import MAX_LR_STEPS
from qspectra.spectrum import quantum_spectrum_report


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
    # G(3,7) and IG(2,12) parse, but only catalogue ids are accepted
    for vid in ("X17", "G(3,7)", "IG(2,12)"):
        code, _, err = run(capsys, "report", vid)
        assert code == 1, vid
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
                        Variety("BAD", broken, None, None, None))
    code, _, err = run(capsys, "report", "BAD")
    assert code == 2
    assert "internal invariant violation: boom" in err


def _p2_with_kappa_plus_one():
    # P2 with kappa + 1 as its anticanonical vector, so kappa * b_0 has a
    # component in degree 0 beside its degree-1 part
    A = qh_projective(2)
    kappa = list(A.anticanonical)
    kappa[0] += 1
    return FiniteCommAlgebra(
        name="P2", basis_labels=A.basis_labels,
        cells=[[dict(cell) for cell in row[i:]]
               for i, row in enumerate(A.rows)],
        den=A.den, unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=kappa, dim_X=A.dim_X)


def test_report_refuses_kappa_outside_degree_one():
    B = _p2_with_kappa_plus_one()
    assert validate_algebra(B)
    with pytest.raises(AssertionError, match="kappa \\* b0 has a component "
                       "in degree 0, not 1"):
        quantum_spectrum_report(B)


def test_report_exits_two_on_kappa_outside_degree_one(capsys, monkeypatch):
    monkeypatch.setitem(REGISTRY, "P2", Variety(
        "P2", _p2_with_kappa_plus_one, "grassmannian", 1, 3))
    code, out, err = run(capsys, "report", "P2")
    assert code == 2
    assert out == ""
    assert err.strip() == ("internal invariant violation: kappa * b0 has a "
                           "component in degree 0, not 1")


def test_report_exits_two_on_a_radical_that_is_not_nilpotent(
        capsys, monkeypatch, stalled_radical_ring):
    monkeypatch.setitem(REGISTRY, "P1", Variety(
        "P1", lambda: stalled_radical_ring, None, None, None))
    code, out, err = run(capsys, "report", "P1")
    assert code == 2
    assert out == ""
    assert err.strip() == ("internal invariant violation: the radical "
                           "filtration stalls at dimension 1: N is not "
                           "nilpotent")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # one process builds the parser and its three subcommand parsers once,
    # and the shared parser still reports a usage error as before
    cli._build_parser.cache_clear()
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert run(capsys, "report", "P1")[0] == 0
    assert run(capsys, "report", "P2")[0] == 0
    assert built == ["qspectra", "qspectra report", "qspectra check",
                     "qspectra selftest"]
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: qspectra ")
    assert len(built) == 4


# --- check --------------------------------------------------------------

@pytest.fixture()
def minimal_file(collection_file):
    return str(collection_file(builtin_collection("minimal_g24"),
                               "minimal.json"))


def test_check_minimal_with_bwb(capsys, minimal_file):
    code, out, _ = run(capsys, "check", minimal_file, "--bwb")
    assert code == 0
    assert "[ok] total_vs_dim" in out
    assert "[ok] residual_vs_zero_fiber" in out
    assert "grassmannian backend" in out
    assert "all pairs pass" in out


def test_check_kapranov_shape_reported_not_failed(capsys, collection_file):
    path = collection_file(builtin_collection("kapranov_g24"), "kapranov.json")
    code, out, _ = run(capsys, "check", str(path))
    assert code == 0
    assert "rectangular 0, residual 6" in out
    assert "[differs] residual_vs_zero_fiber" in out


def test_check_bwb_refuses_an_over_long_integer(capsys, tmp_path):
    # longer than CPython's limit on reading an int from a string
    path = tmp_path / "long_twist.json"
    path.write_text(json.dumps({
        "variety": "G(2,4)", "fano_index": 4,
        "starting_block": ["O(" + "9" * 5000 + ")"], "support": [1]}))
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert code == 1
    assert "parse error at position 2: integer has too many digits" in err


def test_check_bwb_reads_ascii_digits_only(capsys, tmp_path):
    path = tmp_path / "kapranov.json"
    path.write_text(json.dumps({
        "variety": "G(2,4)", "fano_index": 4,
        "starting_block": ["O", "U*", "S^\u0662 U*"],
        "support": [3, 2, 1]}))
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert code == 1
    assert "parse error at position 2" in err


def test_check_isotropic_with_bwb(capsys, collection_file):
    path = collection_file(builtin_collection("kuznetsov_ig2", 3), "kuz.json")
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
    for variety in ("Y", "G(3,7)", "IG(2,12)"):
        path.write_text(json.dumps({
            "variety": variety, "fano_index": 2,
            "starting_block": ["O"], "support": [1, 1]}))
        code, _, err = run(capsys, "check", str(path))
        assert code == 1, variety
        assert "unknown variety" in err


@pytest.mark.parametrize("variety, message", [
    ("Y", "unknown variety"), ("P2", "Fano index mismatch")])
def test_check_rejects_before_padding_to_fano_index(capsys, tmp_path,
                                                    variety, message):
    # the collection stores its support as given and pads it only when
    # read, so a huge Fano index costs nothing before the variety and
    # that index are checked against the registry
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


def test_check_deeply_nested_file_is_unreadable(capsys, tmp_path):
    # the JSON decoder gives up on this depth with RecursionError: a bad
    # file, exit 1, not an internal error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "check", str(path))
    assert code == 1
    assert "cannot read collection %s" % path in err
    assert "internal error" not in err


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


def test_check_bwb_rejects_a_long_tensor_power_at_once(capsys, tmp_path):
    # spread 40 passes MAX_SPREAD, but the summands of Q*^m on P10 grow
    # like the partitions of m
    path = tmp_path / "long.json"
    path.write_text(json.dumps({
        "variety": "P10", "fano_index": 11,
        "starting_block": [" * ".join(["Q*"] * 40)], "support": [1]}))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "more than 64 summands" in err


def test_check_bwb_rejects_a_costly_pair_at_once(capsys, tmp_path):
    # Q*^11 on P10 has 55 summands, under MAX_TERMS, but its Ext with
    # itself would decompose 55 x 55 summand pairs
    path = tmp_path / "costly.json"
    path.write_text(json.dumps({
        "variety": "P10", "fano_index": 11,
        "starting_block": [" * ".join(["Q*"] * 11)], "support": [1]}))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "has 55 summands" in err
    assert "3025 summand pairs, more than 64" in err


@pytest.mark.parametrize("descriptor", [
    "S^(6,5,4,3,2,1,0) Q*", "S^(9,8,7,6,5,4,3,2,1,0) Q*",
    "S^(6,5,4,3,2,1,0) Q* * S^(6,5,4,3,2,1,0) Q*"],
    ids=["staircase-6", "staircase-9", "staircase-product"])
def test_check_bwb_rejects_costly_lr_work_at_once(capsys, tmp_path,
                                                  descriptor):
    # each passes the spread and summand bounds, but one Littlewood-
    # Richardson expansion, of the object's Hom with itself or of the
    # product, would take millions of steps
    path = tmp_path / "staircase.json"
    path.write_text(json.dumps({
        "variety": "P10", "fano_index": 11,
        "starting_block": [descriptor], "support": [1]}))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert "more than %d steps" % MAX_LR_STEPS in err


def test_check_bwb_rejects_too_much_pair_work(capsys, tmp_path):
    # 128 objects pass the object bound, but each has 2 summands, so the
    # pair loop would need (256^2 + 128 * 4) / 2 summand pairs
    path = tmp_path / "work.json"
    path.write_text(json.dumps({
        "variety": "P10", "fano_index": 11,
        "starting_block": ["Q* * Q*"] * 128, "support": [128]}))
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert code == 1
    assert "collection needs 33024 summand pairs, more than 8256" in err


def test_check_bwb_rejects_too_many_objects(capsys, tmp_path):
    path = tmp_path / "many.json"
    path.write_text(json.dumps({
        "variety": "P10", "fano_index": 11,
        "starting_block": ["O"] * 12, "support": [12] * 11}))
    code, _, err = run(capsys, "check", str(path), "--bwb")
    assert code == 1
    assert "collection has 132 objects, more than 128" in err


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
    monkeypatch.setitem(REGISTRY, "BAD",
                        Variety("BAD", broken, None, None, None))
    code, _, err = run(capsys, "report", "BAD")
    assert code == 2
    assert err.strip() == "internal error: KeyError: 'boom'"


# --- selftest -----------------------------------------------------------

def test_selftest_filter_runs_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--filter", "exactlin")
    assert code == 0
    assert "[pass] exactlin: Cayley-Hamilton" in out
    assert "selftest: 1 passed, 0 failed" in out


# the operator methods that the dead-name tests, which skip names with a
# leading underscore, cannot see
OPERATORS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
             "__call__")


def _public_classes():
    """The public classes that the qspectra modules define."""
    for path in sorted(pathlib.Path(qspectra.__file__).parent.glob("*.py")):
        if path.stem.startswith("_"):
            continue
        module = importlib.import_module("qspectra." + path.stem)
        yield from (obj for name, obj in sorted(vars(module).items())
                    if isinstance(obj, type) and not name.startswith("_")
                    and obj.__module__ == module.__name__)


def _counting(calls, key, method):
    def counted(*args, **kwargs):
        calls[key] += 1
        return method(*args, **kwargs)
    return counted


def test_selftest_runs_every_row(capsys, monkeypatch):
    # the whole cross-validation suite, including the bwb rows that run
    # Kuznetsov's IG(2,6) collection through the hyperplane checker.  It
    # runs every operator method of a public class, unless the benchmark
    # names that method, as the dead-name tests below allow
    calls = collections.Counter()
    defined = []
    for cls in _public_classes():
        for op in OPERATORS:
            if op in vars(cls):
                key = "%s.%s" % (cls.__name__, op)
                defined.append((key, op))
                monkeypatch.setattr(cls, op,
                                    _counting(calls, key, vars(cls)[op]))
    assert defined
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest: 12 passed, 0 failed" in out
    bench = _benchmark_names()
    assert [key for key, op in defined
            if not calls[key] and op not in bench] == []


def test_selftest_unknown_filter(capsys):
    code, _, err = run(capsys, "selftest", "--filter", "nosuchmodule")
    assert code == 1
    assert "no selftest entries match" in err


def test_selftest_compares_the_report_with_the_full_split(capsys,
                                                         monkeypatch):
    # a report whose invertible fiber has one point too many on IG(2,6)
    # keeps its dimensions additive, and fails against kappa_split
    good = cli.quantum_spectrum_report

    def perturbed(A):
        r = good(A)
        if A.name == "IG(2,6)":
            r.nonzero_point_count += 1
        return r

    monkeypatch.setattr(cli, "quantum_spectrum_report", perturbed)
    code, out, _ = run(capsys, "selftest", "--filter", "spectrum")
    assert code == 2
    assert "[fail] spectrum: every registry charpoly is rotation-invariant " \
        "and the report's fibers match the full split  " \
        "(AssertionError: IG(2,6))" in out
    assert "selftest: 1 passed, 1 failed" in out


# the unit b_0 times b_1 gains a second b_1: the seed's first violation
_PERTURBED_DETAIL = "(AssertionError: IG(2,4): unit fails on basis element 1"


def test_selftest_catches_perturbed_data(capsys, monkeypatch):
    # perturb one structure constant of IG(2,4) in memory; every algebra
    # check that touches the ring must surface the damage
    good = varieties.qh_ig2

    def perturbed(n):
        A = good(n)
        if n != 2:
            return A
        cells = [[dict(c) for c in row[i:]] for i, row in enumerate(A.rows)]
        assert cells[0][1] == {1: A.den}
        cells[0][1][1] += A.den
        return FiniteCommAlgebra(A.name, A.basis_labels, cells, A.den, A.unit,
                                 A.degrees, A.fano_index, A.anticanonical,
                                 A.dim_X)

    monkeypatch.setattr(varieties, "qh_ig2", perturbed)
    code, out, _ = run(capsys, "selftest", "--filter", "algebra")
    assert code == 2
    assert "[fail] algebra: every registry provider validates" in out
    assert _PERTURBED_DETAIL in out


# the same perturbation in a fresh interpreter, for runs under python -O
_PERTURBED_SELFTEST = """
import sys
from qspectra import cli, varieties
from qspectra.algebra import FiniteCommAlgebra

good = varieties.qh_ig2


def perturbed(n):
    A = good(n)
    if n != 2:
        return A
    cells = [[dict(c) for c in row[i:]] for i, row in enumerate(A.rows)]
    if cells[0][1] != {1: A.den}:
        sys.exit(3)
    cells[0][1][1] += A.den
    return FiniteCommAlgebra(A.name, A.basis_labels, cells, A.den, A.unit,
                             A.degrees, A.fano_index, A.anticanonical,
                             A.dim_X)


varieties.qh_ig2 = perturbed
sys.exit(cli.main(["selftest", "--filter", "algebra"]))
"""


def test_selftest_catches_perturbed_data_under_optimize():
    # python -O strips assert statements; the selftest checks must not be
    # among them
    src = str(pathlib.Path(qspectra.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-O", "-c", _PERTURBED_SELFTEST],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "[fail] algebra: every registry provider validates" in proc.stdout
    assert _PERTURBED_DETAIL in proc.stdout


def test_package_has_no_assert_statements():
    # invariant checks raise AssertionError explicitly so that python -O
    # keeps them; the tests may assert freely
    found = []
    for path in sorted(pathlib.Path(qspectra.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _defined(node):
    """The names a top-level statement of a module defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, ast.Assign):
        return {t.id for t in node.targets if isinstance(t, ast.Name)}
    return set()


def _mentioned(tree, strings=False):
    """Every name the tree reads, imports or (with strings) gives as a
    string, whatever module it comes from."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
    return out


def _benchmark_names():
    """Every name the benchmark's scripts read, import or give as a string
    (the tracer names some functions and methods by string)."""
    repo = pathlib.Path(__file__).resolve().parent.parent
    names = set()
    for path in (repo / "perfbench").glob("*.py"):
        names |= _mentioned(ast.parse(path.read_text(encoding="utf-8")),
                            strings=True)
    return names


def _taken_from(tree, module):
    """Names the tree imports from the sibling module, or reads as
    module.<name>."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute) \
                and isinstance(node.value, ast.Name) \
                and node.value.id == module:
            out.add(node.attr)
    return out


def test_every_public_name_has_a_program_caller():
    # a public name that only tests reach is dead weight in the program;
    # it must be used elsewhere in the package, looked up by the benchmark
    # (the tracer names some functions by string) or documented in README
    repo = pathlib.Path(__file__).resolve().parent.parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(qspectra.__file__).parent.glob("*.py")}
    bench = _benchmark_names()
    readme = (repo / "README.md").read_text(encoding="utf-8")
    unused = []
    for module, tree in sorted(trees.items()):
        used = set(bench)
        for other, t in trees.items():
            if other != module:
                used |= _taken_from(t, module)
        mentions = [_mentioned(node) for node in tree.body]
        for i, node in enumerate(tree.body):
            here = set().union(*mentions[:i], *mentions[i + 1:])
            unused += ["%s.%s" % (module, name)
                       for name in sorted(_defined(node))
                       if not name.startswith("_")
                       and name not in used and name not in here
                       and not re.search(r"`(?:[\w.]*\.)?%s\b"
                                         % re.escape(name), readme)]
    assert unused == []


def test_every_public_method_has_a_program_caller():
    # the same rule one level down: a public method or property of a public
    # class counts as used when the package reads it as an attribute
    # outside its own body, the benchmark names it, or README documents it
    repo = pathlib.Path(__file__).resolve().parent.parent
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in pathlib.Path(qspectra.__file__).parent.glob("*.py")]
    bench = _benchmark_names()
    readme = (repo / "README.md").read_text(encoding="utf-8")

    def reads(tree):
        return collections.Counter(node.attr for node in ast.walk(tree)
                                   if isinstance(node, ast.Attribute))

    everywhere = sum(map(reads, trees), collections.Counter())
    unused = []
    for tree in trees:
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if not isinstance(node, ast.FunctionDef) \
                        or node.name.startswith("_"):
                    continue
                name = node.name
                if everywhere[name] == reads(node)[name] \
                        and name not in bench \
                        and not re.search(r"`(?:[\w.]*\.)?%s\b"
                                          % re.escape(name), readme):
                    unused.append("%s.%s" % (cls.name, name))
    assert unused == []


def test_only_algebra_names_the_stored_form_helpers():
    # the stored row format (sorted nonzero cells in lowest terms, mirrored
    # into the square) is made in one place: every other module hands
    # FiniteCommAlgebra._store plain cells
    named = {path.stem: sorted(_mentioned(ast.parse(
                 path.read_text(encoding="utf-8")))
                 & {"_lowest_terms", "_square"})
             for path in pathlib.Path(qspectra.__file__).parent.glob("*.py")}
    assert {m: names for m, names in named.items() if names} \
        == {"algebra": ["_lowest_terms", "_square"]}


def test_non_integral_orbit_counts_serialize_as_pairs():
    report = quantum_spectrum_report(REGISTRY["P2"].provider())
    report.orbit_count_by_length = Fraction(3, 2)
    report.orbit_count_by_points = Fraction(3, 2)
    d = report.to_dict()
    assert d["orbit_count_by_length"] == [3, 2]
    assert d["orbit_count_by_points"] == [3, 2]
    table = cli._report_markdown(report)
    assert "| orbits by length (k) | 3/2 |" in table
    assert "| orbits by points | 3/2 |" in table
