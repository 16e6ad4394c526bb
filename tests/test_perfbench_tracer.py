"""The traced benchmark run patches qspectra names from outside the
program (perfbench/tracer.py).  This test installs that tracer on a small
run, so a refactor that drops or reshapes a name it looks up fails here
rather than only in the traced benchmark."""

import importlib.util
from pathlib import Path

# cli imports every module the tracer patches
from qspectra import algebra, bwb, cli, spectrum, varieties
from qspectra.bwb import check_collection_hyperplane
from qspectra.lefschetz import builtin_collection
from qspectra.schur import _qh_grassmannian_pairwise
from qspectra.varieties import REGISTRY

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_providers_and_split():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        REGISTRY["IG(2,4)"].provider()
        ring = REGISTRY["IG(2,6)"].provider()
        parts = spectrum.kappa_split(ring)
    finally:
        tracer.uninstall()
    assert varieties.qh_ig2 is algebra.qh_ig2
    calls, _incl, _self = tracer.per_name()["algebra.provider.qh_ig2"]
    assert calls == 2
    assert tracer.outermost_time(tracing.PROVIDERS) > 0
    assert tracer.split_parts == [parts]
    assert tracing.max_bits(tracer) > 0
    for X in (ring, *parts):
        assert tracing.structure_nnz(X) == sum(
            len(cell) for row in X.rows for cell in row)


def test_tracer_sees_the_tableau_route_through_lr_coeffs():
    # the program builds G(k,n) by the Pieri walk, which expands no pairs;
    # the tableau oracle still goes through the traced name
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        A = _qh_grassmannian_pairwise(2, 4)
    finally:
        tracer.uninstall()
    # one product, hence one LR expansion, per pair of the 6 basis classes
    calls, _incl, _self = tracer.per_name()["schur.lr_coeffs"]
    assert calls == A.dim * (A.dim + 1) // 2 == 21


def test_tracer_sees_the_collection_check_through_bwb_names():
    # the Bott memo outlives a call, so an earlier test may have filled
    # it; cleared, every weight this check reads reaches the public bott
    bwb._bott_table.cache_clear()
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        check_collection_hyperplane(builtin_collection("kuznetsov_ig2", 3))
    finally:
        tracer.uninstall()
    # three block entries parsed once each, and one ext_hyperplane per
    # (entry, entry, twist difference) the check asks about
    per_name = tracer.per_name()
    assert per_name["bwb.parse"][0] == 3
    assert per_name["bwb.ext_hyperplane"][0] == 33
    # the traced bott sees each memo miss, and nothing else
    assert per_name["bwb.bott"][0] >= 1
    assert per_name["bwb.bott"][0] == bwb._bott_table.cache_info().misses
    assert tracer.undecided == 0


def test_tracer_counts_every_parse_call():
    # the parse memo is private: bwb.parse_s still counts each public call
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        for _ in range(3):
            bwb.parse_bundle("S^(2,1) U* * Q*(1)", 2, 5)
    finally:
        tracer.uninstall()
    assert tracer.per_name()["bwb.parse"][0] == 3


def test_tracer_sees_the_report_through_exactlin_names():
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    ring = REGISTRY["IG(2,6)"].provider()
    assert tracer.install() > 0
    try:
        spectrum.quantum_spectrum_report(ring)
    finally:
        tracer.uninstall()
    # the layer metrics exactlin.*_s read these spans: a report that went
    # round the public names would leave them at 0 without failing
    per_name = tracer.per_name()
    for name in ("exactlin.kernel_basis", "exactlin.span_basis",
                 "exactlin.charpoly"):
        assert per_name.get(name, (0,))[0] > 0, name


def test_tracer_sees_cayley_hamilton_through_exactlin_names():
    # the exactlin selftest row evaluates a charpoly at its operator; the
    # layer metrics exactlin.poly_at_matrix_s and charpoly_s read these
    rows = [fn for module, _d, fn in cli._selftest_checks()
            if module == "exactlin"]
    assert rows
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        for fn in rows:
            fn()
    finally:
        tracer.uninstall()
    per_name = tracer.per_name()
    for name in ("exactlin.poly_at_matrix", "exactlin.charpoly"):
        assert per_name.get(name, (0,))[0] > 0, name


def test_tracer_sees_the_divisor_rows_through_chevalley_names():
    # the crosscheck benchmark runs the schur and algebra selftest rows;
    # the layer metrics chevalley.divisor_matrix_s and
    # chevalley.grassmannian_algebra_s read these spans, so a row that went
    # round the public names would leave them at 0 without failing
    rows = [fn for module, _d, fn in cli._selftest_checks()
            if module in ("schur", "algebra")]
    assert rows
    tracing = _load_tracer()
    tracer = tracing.Tracer()
    assert tracer.install() > 0
    try:
        for fn in rows:
            fn()
    finally:
        tracer.uninstall()
    per_name = tracer.per_name()
    for name in ("chevalley.divisor_matrix",
                 "chevalley.grassmannian_algebra"):
        calls, incl, _self = per_name.get(name, (0, 0.0, 0.0))
        assert calls > 0 and incl > 0, name
