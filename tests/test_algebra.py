import hashlib
import itertools
import math
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings

from qspectra import algebra
from qspectra.algebra import (
    FiniteCommAlgebra,
    PolyPresentation,
    algebra_from_json,
    algebra_to_json,
    from_presentation,
    jacobi_ring,
    load_algebra,
    mult_matrix,
    qh_ig2,
    qh_projective,
    save_algebra,
    validate_algebra,
)
from qspectra.exactlin import (Matrix, charpoly, clear_denominators,
                               integer_echelon)
from qspectra.schur import qh_grassmannian
from qspectra.spectrum import kappa_split
from qspectra.varieties import REGISTRY, parse_variety

from conftest import _seeded, identity

F = Fraction


def _basis_vector(A, i):
    """The coordinates of b_i in A's basis."""
    return tuple(int(j == i) for j in range(A.dim))


# ---------------------------------------------------------------- projective

def test_projective_line():
    A = qh_projective(1)
    assert A.dim == 2
    assert A.product(_basis_vector(A, 1), _basis_vector(A, 1)) == A.unit
    assert A.anticanonical == (F(0), F(2))


def test_projective_plane_wraps():
    A = qh_projective(2)
    h, h2 = _basis_vector(A, 1), _basis_vector(A, 2)
    assert A.product(h, h2) == A.unit


def test_projective_sizes():
    A = qh_projective(4)
    assert (A.dim, A.fano_index, A.dim_X) == (5, 5, 4)
    assert qh_projective(1) is qh_projective(1)
    with pytest.raises(ValueError):
        qh_projective(0)


def test_projective_validates():
    assert not validate_algebra(qh_projective(2))


# ---------------------------------------------------------------- validation

def _cells(A):
    """A's upper triangle as fresh {k: int} cells over A.den, one object
    per (i, j) with j >= i."""
    return [[dict(cell) for cell in row[i:]] for i, row in enumerate(A.rows)]


def _with_cells(A, cells, den):
    return FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, cells=cells, den=den,
        unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=A.anticanonical, dim_X=A.dim_X)


def _perturbed(A, i, j, k, delta):
    """A with the structure constant of b_k in b_i*b_j (and so b_j*b_i),
    i <= j, shifted by delta, worked in ints over a common denominator."""
    delta = F(delta)
    den = math.lcm(A.den, delta.denominator)
    cells = [[{l: c * (den // A.den) for l, c in cell.items()} for cell in row]
             for row in _cells(A)]
    cell = cells[i][j - i]
    cell[k] = cell.get(k, 0) + delta.numerator * (den // delta.denominator)
    return _with_cells(A, cells, den)


def test_validation_catches_perturbation():
    report = validate_algebra(_perturbed(qh_projective(2), 1, 1, 0, 1))
    assert report
    assert any("associativity" in v for v in report)
    assert any("grading" in v for v in report)


# sha256 of repr() of the list of violation tuples, one per perturbation
# (i <= j, then k, ascending), as the Fraction sweep gave them
D5_SWEEP_SHA256 = \
    "7c61ec024eed2827e3eb20b2dd9370f60ba2b9e944967a8785eb012d8da04f20"


def test_validation_of_perturbed_d5_is_pinned():
    # D5 has a constant -1/4, and +1/3 makes denominators 12
    A = jacobi_ring("D5")
    found = [validate_algebra(_perturbed(A, i, j, k, F(1, 3)))
             for i in range(A.dim) for j in range(i, A.dim)
             for k in range(A.dim)]
    assert (len(found), sum(1 for v in found if v)) == (75, 69)
    assert hashlib.sha256(repr(found).encode()).hexdigest() == D5_SWEEP_SHA256
    assert validate_algebra(_perturbed(A, 0, 3, 2, F(1, 3))) == (
        "unit fails on basis element 3",
        "associativity fails at (0, 0, 3)",
        "associativity fails at (0, 1, 1)",
        "associativity fails at (0, 2, 3)",
        "associativity fails at (0, 2, 4)",
        "associativity fails at (0, 3, 4)",
    )


def test_validation_catches_integral_associativity_failure():
    # c2 * c2 in IG(2,8) picks up one more c2^2; the grading still holds
    A = _perturbed(qh_ig2(4), 2, 2, 6, 1)
    assert A.basis_labels[2] == "c2" and A.basis_labels[6] == "c2^2"
    assert validate_algebra(A) == (
        ("associativity fails at (1, 2, 2)",)
        + tuple("associativity fails at (2, 2, %d)" % l for l in range(3, 24)))


def _light_passes(A):
    return algebra._associates_with(A, algebra._generators(A))


def test_generator_check_agrees_with_the_full_sweep():
    # every perturbation that keeps the unit: b_0 is the unit of these
    # rings, so exactly the perturbations of b_i*b_j with i >= 1 keep it
    counts = []
    for A in (jacobi_ring("D5"), qh_projective(3), qh_ig2(3)):
        assert A.unit == _basis_vector(A, 0)
        verdicts = []
        for i in range(1, A.dim):
            for j in range(i, A.dim):
                for k in range(A.dim):
                    B = _perturbed(A, i, j, k, F(1, 3))
                    light = _light_passes(B)
                    assert light == (not algebra._associativity_sweep(B)), \
                        (A.name, i, j, k)
                    verdicts.append(light)
        counts.append((A.name, len(verdicts), sum(verdicts)))
    assert counts == [("D5", 50, 6), ("P3", 24, 0), ("IG(2,6)", 792, 0)]


def test_valid_rings_never_reach_the_full_sweep(monkeypatch):
    def refuse(A):
        raise AssertionError("full sweep on %s" % A.name)
    monkeypatch.setattr(algebra, "_associativity_sweep", refuse)
    for desc in REGISTRY.values():
        A = desc.provider()
        assert not validate_algebra(A), desc.id
        assert len(algebra._generators(A)) <= 3, desc.id


def _closed_span(A, G):
    """Integer echelon rows of the span of the unit closed under
    multiplication by every b_g, g in G, grown until the rank settles."""
    rows, _ = integer_echelon([clear_denominators(A.unit)[0]])
    while True:
        grown, _ = integer_echelon(
            [A.sparse_product([(i, x) for i, x in enumerate(r) if x],
                              ((g, 1),)) for r in rows for g in G], rows)
        if len(grown) == len(rows):
            return rows
        rows = grown


@pytest.mark.parametrize("vid", [*REGISTRY, "G(4,8)", "IG(2,12)"])
def test_each_generator_lies_outside_the_span_before_it(vid):
    A = parse_variety(vid).provider()
    G = algebra._generators(A)
    for i, g in enumerate(G):
        _, raised = integer_echelon([_basis_vector(A, g)],
                                    _closed_span(A, G[:i]))
        assert raised == [0], (A.name, G, g)
    assert len(_closed_span(A, G)) == A.dim


def test_a_nonassociative_table_with_a_unit_falls_back_to_the_sweep():
    # 1, x, y with x*x = y, x*y = 0 and y*y = x: the unit holds, the table
    # is commutative, and (x*x)*y = x differs from x*(x*y) = 0
    A = FiniteCommAlgebra(
        name="T", basis_labels=("1", "x", "y"),
        cells=[[{0: 1}, {1: 1}, {2: 1}], [{2: 1}, {}], [{1: 1}]], den=1,
        unit=(1, 0, 0), degrees=(0, 0, 0), fano_index=1,
        anticanonical=(0, 0, 0), dim_X=0)
    assert not _light_passes(A)

    def b(i):
        return _basis_vector(A, i)
    want = tuple(
        "associativity fails at (%d, %d, %d)" % (i, j, l)
        for i in range(3) for j in range(i, 3) for l in range(j, 3)
        if not (A.product(A.product(b(i), b(j)), b(l))
                == A.product(A.product(b(i), b(l)), b(j))
                == A.product(A.product(b(j), b(l)), b(i))))
    assert want == ("associativity fails at (1, 1, 2)",
                    "associativity fails at (1, 2, 2)")
    assert validate_algebra(A) == want


# ---------------------------------------------------------------- mult_matrix

def test_mult_by_unit_is_identity():
    A = qh_projective(3)
    assert mult_matrix(A, A.unit) == identity(4)


def test_mult_matrix_projective_line_swap():
    A = qh_projective(1)
    assert mult_matrix(A, _basis_vector(A, 1)) == Matrix([[0, 1], [1, 0]])


def test_mult_matrix_is_linear_and_commuting():
    A = qh_projective(3)
    u = (F(1), F(2), F(0), F(-1))
    w = (F(0), F(1, 3), F(5), F(2))
    Mu, Mw = mult_matrix(A, u), mult_matrix(A, w)
    s = tuple(a + b for a, b in zip(u, w))
    assert mult_matrix(A, s) == Matrix([[a + b for a, b in zip(r, q)]
                                       for r, q in zip(Mu.data, Mw.data)])
    assert Mu * Mw == Mw * Mu


def test_mult_matrix_rejects_bad_length():
    with pytest.raises(ValueError):
        mult_matrix(qh_projective(1), (F(1),))


def test_product_rejects_floats_and_wrong_lengths():
    A = qh_projective(2)
    with pytest.raises(TypeError):
        A.product((0.5, 0, 0), (0, 1, 0))
    with pytest.raises(TypeError):
        A.product((0, 1, 0), (0, 0.5, 0))
    with pytest.raises(ValueError):
        A.product((0, 1), (0, 1, 0))
    with pytest.raises(ValueError):
        A.product((0, 1, 0), (0, 1, 0, 0))
    assert A.product((F(1, 2), 0, 0), (0, 1, 0)) == (0, F(1, 2), 0)


def test_constructor_rejects_inexact_constants():
    A = qh_projective(1)
    cells = _cells(A)
    cells[1][0][0] = 0.0
    with pytest.raises(TypeError, match="expected an int cell value, got"):
        _with_cells(A, cells, A.den)


@pytest.mark.parametrize("value", [F(0), F(1, 2), F(2), 1.0, False, True])
def test_constructor_refuses_a_cell_value_that_is_not_an_int(value):
    A = qh_projective(2)
    cells = _cells(A)
    cells[1][0][0] = value
    with pytest.raises(TypeError, match="expected an int cell value, got"):
        _with_cells(A, cells, A.den)


@pytest.mark.parametrize("den", [0, -1, F(1), 1.0, True])
def test_constructor_refuses_a_denominator_that_is_not_a_positive_int(den):
    A = qh_projective(2)
    with pytest.raises(ValueError, match="den must be a positive int, got"):
        _with_cells(A, _cells(A), den)


@pytest.mark.parametrize("bad", [1.5, 3.0, F(3), "3", True])
def test_constructor_refuses_a_fano_index_that_is_not_an_int(bad):
    A = qh_projective(2)
    with pytest.raises(TypeError, match="fano_index must be an int, got"):
        FiniteCommAlgebra(
            name=A.name, basis_labels=A.basis_labels, cells=_cells(A),
            den=A.den, unit=A.unit, degrees=A.degrees, fano_index=bad,
            anticanonical=A.anticanonical, dim_X=A.dim_X)


@pytest.mark.parametrize("field", ["unit", "anticanonical"])
def test_constructor_refuses_a_bool_vector_entry(field):
    A = qh_projective(1)
    vectors = {"unit": A.unit, "anticanonical": A.anticanonical}
    vectors[field] = (True, 0)
    with pytest.raises(TypeError, match="expected int or Fraction, got True"):
        FiniteCommAlgebra(
            name=A.name, basis_labels=A.basis_labels, cells=_cells(A),
            den=A.den, degrees=A.degrees, fano_index=A.fano_index,
            dim_X=A.dim_X, **vectors)


def test_constructor_refuses_a_row_of_the_wrong_length():
    A = qh_projective(2)
    for i, grow in itertools.product(range(A.dim), (False, True)):
        cells = _cells(A)
        cells[i] = cells[i] + [{}] if grow else cells[i][:-1]
        with pytest.raises(ValueError, match="cells shape mismatch"):
            _with_cells(A, cells, A.den)
    # the full square is not an upper triangle
    with pytest.raises(ValueError, match="cells shape mismatch"):
        _with_cells(A, [list(map(dict, row)) for row in A.rows], A.den)


def test_constructor_rejects_an_index_outside_the_basis():
    A = qh_projective(2)
    for k in (3, -1):
        cells = _cells(A)
        cells[1][1][k] = 1
        with pytest.raises(ValueError, match="out of range"):
            _with_cells(A, cells, A.den)


def test_constructor_reads_a_lower_cell_that_is_not_its_mirror():
    # the lower cell (1, 0) is read from its mirror (0, 1): changing the
    # mirror changes both, and a square whose lower cell differs from its
    # mirror is refused rather than half read
    A = qh_projective(2)
    cells = _cells(A)
    cells[0][1] = {2: 5}
    B = _with_cells(A, cells, A.den)
    assert B.rows[1][0] == B.rows[0][1] == ((2, 5),)
    assert B.structure[1][0] == B.structure[0][1] == (0, 0, 5)
    square = [list(map(dict, row)) for row in A.rows]
    square[1][0] = {2: 5}
    with pytest.raises(ValueError, match="cells shape mismatch"):
        _with_cells(A, square, A.den)


def test_shared_and_equal_mirror_cells_give_the_same_rows():
    # one cell object shared by every equal cell gives the rows that
    # distinct equal objects give, and the shared object is left as it was
    A = jacobi_ring("D5")
    distinct = _cells(A)
    pool = {}
    shared = [[pool.setdefault(tuple(sorted(cell.items())), cell)
               for cell in row] for row in _cells(A)]
    assert len(pool) < sum(map(len, shared))
    before = {key: dict(cell) for key, cell in pool.items()}
    B, C = _with_cells(A, distinct, A.den), _with_cells(A, shared, A.den)
    assert (B.rows, B.den) == (C.rows, C.den) == (A.rows, A.den)
    assert B.den > 1
    assert {key: dict(cell) for key, cell in pool.items()} == before


def test_constructor_drops_explicit_zeros():
    # the cells also list their keys in reverse, so the rows are sorted
    # by k whatever order a cell comes in
    A = jacobi_ring("D5")
    cells = _cells(A)
    for row in cells:
        for cell in row:
            cell.update({k: 0 for k in range(A.dim) if k not in cell})
            items = list(cell.items())
            cell.clear()
            cell.update(reversed(items))
    B = _with_cells(A, cells, A.den)
    assert (B.rows, B.den) == (A.rows, A.den)
    assert B.den > 1


def test_rows_and_denominator_stay_canonical(monkeypatch):
    # the invertible fiber of IG(2,2n) arrives over A.den * L = n with
    # every cell divisible by n, and comes out over 1; D5 given with six
    # times every cell over six times its den comes out as D5
    arrived = []
    lowest = algebra._lowest_terms

    def recorded(upper, den):
        arrived.append(den)
        return lowest(upper, den)

    monkeypatch.setattr(algebra, "_lowest_terms", recorded)
    for n in range(2, 6):
        zero, nonzero = kappa_split(qh_ig2(n))
        # the zero fiber's quotient comes first, the invertible fiber's last
        assert arrived[-1] == n
        assert (zero.den, nonzero.den) == (1, 1)
    A = jacobi_ring("D5")
    zero, _nonzero = kappa_split(A)
    assert zero.den == A.den == 4
    B = _with_cells(A, [[{k: 6 * c for k, c in cell.items()} for cell in row]
                        for row in _cells(A)], 6 * A.den)
    assert (B.rows, B.den) == (A.rows, A.den)


# the public constructor against its private step

def _stored(A):
    return (A.name, A.basis_labels, A.dim, A.rows, A.den, A.unit, A.degrees,
            A.fano_index, A.anticanonical, A.dim_X)


def _fields(A):
    """The public constructor's arguments for A's own table."""
    return {"name": A.name, "basis_labels": A.basis_labels,
            "cells": _cells(A), "den": A.den, "unit": A.unit,
            "degrees": A.degrees, "fano_index": A.fano_index,
            "anticanonical": A.anticanonical, "dim_X": A.dim_X}


def _private_route(fields):
    """The table of fields through the private step alone, brought into
    its contract here: degrees reduced, unit and kappa as Fractions; the
    cells and den go as they are."""
    m = fields["fano_index"]
    return object.__new__(FiniteCommAlgebra)._store(
        name=fields["name"], basis_labels=fields["basis_labels"],
        cells=fields["cells"], den=fields["den"],
        unit=tuple(map(Fraction, fields["unit"])),
        degrees=tuple(d % m for d in fields["degrees"]),
        fano_index=m,
        anticanonical=tuple(map(Fraction, fields["anticanonical"])),
        dim_X=fields["dim_X"])


def _canonical(fields):
    """The rows and den that the stored form of fields must be, worked
    out here: each cell's nonzero (k, int) pairs sorted by k, divided with
    den by their gcd, and mirrored into the square."""
    upper = [[tuple(sorted((k, c) for k, c in cell.items() if c))
              for cell in row] for row in fields["cells"]]
    g = math.gcd(fields["den"], *(c for row in upper for cell in row
                                  for _k, c in cell))
    upper = [[tuple((k, c // g) for k, c in cell) for cell in row]
             for row in upper]
    rows = tuple(tuple([upper[j][i - j] for j in range(i)] + upper[i])
                 for i in range(len(upper)))
    return rows, fields["den"] // g


def _valid_tables(rnd):
    # any int cells over any positive den are a valid table for the
    # constructor, which checks types and shapes, not ring axioms; a common
    # factor t gives its gcd step something to divide
    dim = rnd.randint(0, 4)
    t = rnd.randint(1, 4)

    def entry():
        if rnd.random() < 0.5:
            return rnd.randint(-3, 3)
        d = rnd.randint(1, 4)
        return F(rnd.randint(-3 * d, 3 * d), d)

    def cell():
        return {rnd.randrange(dim): t * rnd.randint(-6, 6)
                for _ in range(rnd.randint(0, dim))}
    cells = [[cell() for _j in range(i, dim)] for i in range(dim)]
    return {"name": "T", "basis_labels": ["b%d" % i for i in range(dim)],
            "cells": cells, "den": t * rnd.randint(1, 12),
            "unit": [entry() for _ in range(dim)],
            "degrees": [rnd.randint(-5, 9) for _ in range(dim)],
            "fano_index": rnd.randint(1, 4),
            "anticanonical": [entry() for _ in range(dim)],
            "dim_X": dim}


# more draws than the suite's profile: the contract is checked only
# against the form worked out in _canonical
@settings(max_examples=200)
@given(_seeded(_valid_tables))
def test_public_and_private_routes_store_the_same_table(fields):
    A = FiniteCommAlgebra(**fields)
    assert _stored(A) == _stored(_private_route(fields))
    assert (A.rows, A.den) == _canonical(fields)
    assert all(type(c) is int for row in A.rows for cell in row
               for _k, c in cell)
    assert all(type(x) is Fraction for x in A.unit + A.anticanonical)


@pytest.mark.parametrize("make", [
    lambda: qh_projective(1),
    lambda: jacobi_ring("E8"),
    lambda: _with_cells(qh_projective(3),
                        [[{k: 6 * c for k, c in cell.items()} for cell in row]
                         for row in _cells(qh_projective(3))], 6),
    lambda: FiniteCommAlgebra(
        name="T", basis_labels=("1", "x"),
        cells=[[{1: 0, 0: 4}, {1: 4, 0: 0}], [{0: -2, 1: 6}]], den=8,
        unit=(1, 0), degrees=(0, -1), fano_index=2,
        anticanonical=(0, F(1, 2)), dim_X=1),
])
def test_public_and_private_routes_store_explicit_tables_alike(make):
    A = make()
    fields = _fields(A)
    assert _stored(A) == _stored(_private_route(fields)) \
        == _stored(FiniteCommAlgebra(**fields))
    assert (A.rows, A.den) == _canonical(fields)


def test_the_builders_store_what_the_public_route_would():
    # every table the package builds through the private step (the
    # presentations, the Pieri walk and both kappa fibers) is what the
    # public constructor makes of its own cells
    rings = [d.provider() for d in REGISTRY.values()]
    rings += [qh_ig2(6), qh_grassmannian(3, 7)]
    for A in list(rings):
        rings.extend(kappa_split(A))
    for A in rings:
        assert _stored(A) == _stored(_with_cells(A, _cells(A), A.den)), A.name


def _bad(field, value):
    def make():
        fields = _fields(qh_projective(2))
        if field == "cell":
            fields["cells"][1][0].update(value)
        else:
            fields[field] = value(fields[field]) if callable(value) \
                else value
        return fields
    return make


@pytest.mark.parametrize("make, error, message", [
    (_bad("cells", lambda c: c[:-1]), ValueError, "cells shape mismatch"),
    (_bad("cells", lambda c: [row + [{}] for row in c]), ValueError,
     "cells shape mismatch"),
    (_bad("unit", lambda v: v[:-1]), ValueError, "vector length mismatch"),
    (_bad("anticanonical", lambda v: v + (0,)), ValueError,
     "vector length mismatch"),
    (_bad("degrees", lambda v: v[:-1]), ValueError,
     "vector length mismatch"),
    (_bad("den", 0), ValueError, "den must be a positive int, got 0"),
    (_bad("den", 1.0), ValueError, "den must be a positive int, got 1.0"),
    (_bad("den", True), ValueError, "den must be a positive int, got True"),
    (_bad("fano_index", 3.0), TypeError,
     "fano_index must be an int, got 3.0"),
    (_bad("fano_index", 0), ValueError, "fano_index must be positive"),
    (_bad("cell", {1: 1.5}), TypeError, "expected an int cell value, got 1.5"),
    (_bad("cell", {1: F(1)}), TypeError,
     "expected an int cell value, got Fraction(1, 1)"),
    (_bad("cell", {1: True}), TypeError,
     "expected an int cell value, got True"),
    (_bad("cell", {3: 1}), ValueError, "basis index out of range in table"),
    (_bad("cell", {-1: 1}), ValueError, "basis index out of range in table"),
    (_bad("unit", (True, 0, 0)), TypeError,
     "expected int or Fraction, got True"),
    (_bad("anticanonical", (0, 0.5, 0)), TypeError,
     "expected int or Fraction, got 0.5"),
    (_bad("degrees", (0, True, 2)), TypeError,
     "degrees must be ints, got True"),
    (_bad("degrees", (0, 1.0, 2)), TypeError, "degrees must be ints, got 1.0"),
    (_bad("name", ["x"]), TypeError, "name must be a str, got ['x']"),
    (_bad("dim_X", "two"), TypeError, "dim_X must be an int, got 'two'"),
    (_bad("dim_X", True), TypeError, "dim_X must be an int, got True"),
], ids=["short-triangle", "long-rows", "short-unit", "long-kappa",
        "short-degrees", "den-0", "den-float", "den-bool", "m-float", "m-0",
        "cell-float", "cell-fraction", "cell-bool", "index-high",
        "index-negative", "unit-bool", "kappa-float", "degree-bool",
        "degree-float", "name-list", "dim_X-str", "dim_X-bool"])
def test_public_route_refuses_each_bad_table_as_before(make, error, message):
    with pytest.raises(error) as caught:
        FiniteCommAlgebra(**make())
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_lower_cells_are_their_mirrors():
    for variety in REGISTRY.values():
        A = variety.provider()
        for X in (A, *kappa_split(A)):
            assert all(X.rows[j][i] is X.rows[i][j]
                       for i in range(X.dim) for j in range(i)), X.name


def test_rows_hold_the_table_over_one_denominator():
    A = jacobi_ring("D5")
    assert A.den > 1
    for i in range(A.dim):
        for j in range(A.dim):
            assert A.rows[i][j] == tuple(
                (k, c * A.den) for k, c in enumerate(A.structure[i][j]) if c)


# ---------------------------------------------------------------- presentations

def projective_presentation(n):
    return PolyPresentation(
        name="P%d" % n,
        variables=(("h", 1),),
        relations=({(n + 1,): 1, (0,): -1},),
        fano_index=n + 1,
        anticanonical={(1,): n + 1},
        dim_X=n,
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_presentation_recovers_projective_space(n):
    A = from_presentation(projective_presentation(n))
    B = qh_projective(n)
    assert A.structure == B.structure
    assert A.degrees == B.degrees
    assert A.unit == B.unit
    assert A.anticanonical == B.anticanonical


def test_presentation_truncated_line():
    A = from_presentation(PolyPresentation(
        name="local", variables=(("x", 1),), relations=({(4,): 1},),
        fano_index=1))
    assert A.dim == 4
    assert A.basis_labels == ("1", "x", "x^2", "x^3")
    x = _basis_vector(A, 1)
    x3 = A.product(x, A.product(x, x))
    assert A.product(x, x3) == (F(0),) * 4


def g24_presentation():
    # generators: the two special classes, degrees 1 and 2; relations kill
    # the degree-3 and (quantum-corrected) degree-4 complete classes
    return PolyPresentation(
        name="G(2,4)",
        variables=(("c1", 1), ("c2", 2)),
        relations=(
            {(3, 0): 1, (1, 1): -2},
            {(4, 0): 1, (2, 1): -3, (0, 2): 1, (0, 0): 1},
        ),
        fano_index=4,
        anticanonical={(1, 0): 4},
        dim_X=4,
    )


def test_presentation_g24_cross_check():
    A = from_presentation(g24_presentation())
    assert A.dim == 6
    assert not validate_algebra(A)
    B = qh_grassmannian(2, 4)
    pa = charpoly(mult_matrix(A, _basis_vector(A, 1)))
    pb = charpoly(mult_matrix(B, _basis_vector(B, 1)))
    assert pa == pb
    assert charpoly(mult_matrix(A, A.anticanonical)) \
        == charpoly(mult_matrix(B, B.anticanonical))


def test_presentation_rejects_positive_dimension():
    with pytest.raises(ValueError, match="zero-dimensional"):
        from_presentation(PolyPresentation(
            name="curve", variables=(("x", 1), ("y", 1)),
            relations=({(1, 1): 1},), fano_index=1))


def test_presentation_names_the_size_bound():
    # x^10001 = 0 is zero-dimensional, only too large to build
    with pytest.raises(ValueError,
                       match="10001 candidate monomials, more than 10000"):
        from_presentation(PolyPresentation(
            name="long", variables=(("x", 1),), relations=({(10001,): 1},),
            fano_index=1))


@pytest.mark.parametrize("kappa", [{(1,): 3}, {(1, 0, 0): 3}, {(1, -1): 3}])
def test_presentation_checks_the_anticanonical_class(kappa):
    with pytest.raises(ValueError, match="bad exponent tuple"):
        PolyPresentation(
            name="plane", variables=(("x", 1), ("y", 1)),
            relations=({(2, 0): 1}, {(0, 2): 1}), fano_index=1,
            anticanonical=kappa)


@pytest.mark.parametrize("bad", [1.5, "2", True])
def test_presentation_refuses_non_int_degrees(bad):
    with pytest.raises(TypeError, match="variable degrees must be ints"):
        PolyPresentation(
            name="line", variables=(("x", bad),), relations=({(2,): 1},),
            fano_index=1)


@pytest.mark.parametrize("bad", [2.7, "2", True])
@pytest.mark.parametrize("where", ["relation", "anticanonical"])
def test_presentation_refuses_non_int_exponents(bad, where):
    poly = {(bad,): 1}
    with pytest.raises(TypeError, match="exponents must be ints"):
        PolyPresentation(
            name="line", variables=(("x", 1),),
            relations=(poly if where == "relation" else {(2,): 1},),
            fano_index=1,
            anticanonical=poly if where == "anticanonical" else None)


@pytest.mark.parametrize("where", ["relation", "anticanonical"])
def test_presentation_refuses_a_bool_coefficient(where):
    poly = {(2,): True, (0,): -1}
    with pytest.raises(TypeError, match="expected int or Fraction, got True"):
        PolyPresentation(
            name="P1", variables=(("x", 1),),
            relations=(poly if where == "relation" else {(2,): 1},),
            fano_index=2,
            anticanonical=poly if where == "anticanonical" else {(1,): 2})


@pytest.mark.parametrize("bad", [1.5, 2.0, F(2), "2", True])
def test_presentation_refuses_a_fano_index_that_is_not_an_int(bad):
    with pytest.raises(TypeError, match="fano_index must be an int, got"):
        PolyPresentation(
            name="line", variables=(("x", 1),), relations=({(2,): 1},),
            fano_index=bad)


@pytest.mark.parametrize("field,bad,message", [
    ("name", ["x"], "name must be a str, got ['x']"),
    ("name", None, "name must be a str, got None"),
    ("dim_X", "two", "dim_X must be an int, got 'two'"),
    ("dim_X", True, "dim_X must be an int, got True"),
    ("dim_X", 1.0, "dim_X must be an int, got 1.0"),
])
def test_presentation_refuses_what_the_constructor_refuses(field, bad,
                                                           message):
    # from_presentation stores name and dim_X unchecked, so the
    # presentation must refuse what FiniteCommAlgebra refuses
    fields = dict(name="x", variables=(("x", 1),), relations=({(2,): 1},),
                  fano_index=1, dim_X=0)
    fields[field] = bad
    with pytest.raises(TypeError, match="^%s$" % re.escape(message)):
        PolyPresentation(**fields)


def test_presentation_rejects_unit_ideal():
    with pytest.raises(ValueError, match="zero ring"):
        from_presentation(PolyPresentation(
            name="empty", variables=(("x", 1),),
            relations=({(1,): 1, (0,): 1}, {(0,): 1, (1,): -1}),
            fano_index=1))


def test_presentation_with_a_non_minimal_basis():
    # x^2 enters the basis after x^2*y^2, which it divides; the ring is
    # still Q[x, y]/(x^2, y^3 + 2y^2)
    def presentation(relations):
        return PolyPresentation(
            name="local", variables=(("x", 1), ("y", 1)),
            relations=relations, fano_index=1)

    P = presentation(({(0, 3): 1, (0, 2): 2}, {(2, 2): -1},
                      {(2, 0): 2, (2, 2): -1}))
    G = algebra._groebner(P.relations, algebra._order_key((1, 1)))
    lead = [lm for _, lm, _ in G]
    assert lead == [(0, 3), (2, 2), (2, 0)]
    assert any(algebra._divides(a, b)
               for a, b in itertools.permutations(lead, 2))
    A = from_presentation(P)
    B = from_presentation(presentation(({(2, 0): 1},
                                        {(0, 3): 1, (0, 2): 2})))
    assert B.basis_labels == ("1", "y", "x", "y^2", "x*y", "x*y^2")
    assert (A.rows, A.den, A.basis_labels, A.unit, A.degrees) \
        == (B.rows, B.den, B.basis_labels, B.unit, B.degrees)


def _pairwise_normal_forms(P):
    """Structure tensor, unit and anticanonical vector with one normal form
    per basis pair: the former route of from_presentation, kept here as
    the reference for the operator walk."""
    key = algebra._order_key(tuple(d for _, d in P.variables))
    G = algebra._groebner(P.relations, key)
    lead = [lm for _, lm, _ in G]
    bounds = [min(lm[i] for lm in lead
                  if all(e == 0 for t, e in enumerate(lm) if t != i))
              for i in range(len(P.variables))]
    basis = sorted((e for e in itertools.product(*map(range, bounds))
                    if not any(algebra._divides(lm, e) for lm in lead)),
                   key=key)
    index = {e: i for i, e in enumerate(basis)}

    def to_vector(poly):
        v = [F(0)] * len(basis)
        for e, c in algebra._nf(poly, G, key).items():
            v[index[e]] += c
        return tuple(v)

    structure = [[None] * len(basis) for _ in basis]
    for i, ei in enumerate(basis):
        for j in range(i, len(basis)):
            prod = {tuple(a + b for a, b in zip(ei, basis[j])): F(1)}
            structure[i][j] = structure[j][i] = to_vector(prod)
    return (structure, to_vector({(0,) * len(P.variables): F(1)}),
            to_vector(P.anticanonical))


ADE_LABELS = (["A%d" % r for r in range(1, 9)] + ["D4", "D5", "D6", "D7"]
              + ["E6", "E7", "E8"])


@pytest.mark.parametrize("P", (
    [algebra._jacobi_presentation(label) for label in ADE_LABELS]
    + [algebra._ig2_presentation(n) for n in range(2, 7)]
    + [projective_presentation(n) for n in range(1, 11)]),
    ids=lambda P: P.name)
def test_operator_walk_matches_pairwise_normal_forms(P):
    A = from_presentation(P)
    structure, unit, anticanonical = _pairwise_normal_forms(P)
    assert [list(row) for row in A.structure] == structure
    assert A.unit == unit
    assert A.anticanonical == anticanonical


class _CountingOp:
    """op[m] = ((m, 1),), counting the reads: from b_0 = 1 every cell the
    walk fills with it holds one entry, so each cell is one read."""

    def __init__(self):
        self.reads = 0

    def __getitem__(self, m):
        self.reads += 1
        return ((m, 1),)


@pytest.mark.parametrize("P", (
    [algebra._jacobi_presentation("E8"), projective_presentation(6)]
    + [algebra._ig2_presentation(n) for n in (3, 5, 8)]),
    ids=lambda P: P.name)
def test_presentation_walk_fills_only_the_upper_triangle(monkeypatch, P):
    # each step reads a row of lower weight, so the walk fills exactly
    # the dim * (dim + 1) / 2 cells the table stores
    seen = []
    walk = algebra._operator_walk

    def captured(weights, steps):
        seen.append((weights, steps))
        return walk(weights, steps)

    monkeypatch.setattr(algebra, "_operator_walk", captured)
    dim = from_presentation(P).dim
    (weights, steps), = seen
    op = _CountingOp()
    walk(weights, [None] + [(i0, op, terms) for i0, _, terms in steps[1:]])
    assert dim + op.reads == dim * (dim + 1) // 2


# ---------------------------------------------------------------- Jacobi rings

def test_jacobi_a2():
    A = jacobi_ring("A2")
    assert A.dim == 2
    assert A.basis_labels == ("1", "x")
    assert A.fano_index == 1


@pytest.mark.parametrize("label,dim", [
    ("A1", 1), ("A4", 4), ("A7", 7),
    ("D4", 4), ("D5", 5), ("D6", 6),
    ("E6", 6), ("E7", 7), ("E8", 8),
])
def test_jacobi_dimensions(label, dim):
    A = jacobi_ring(label)
    assert A.dim == dim
    assert not validate_algebra(A)


def test_jacobi_top_powers_vanish():
    A = jacobi_ring("D4")
    x = _basis_vector(A, A.basis_labels.index("x"))
    acc = x
    for _ in range(A.dim):
        acc = A.product(acc, x)
    assert acc == (F(0),) * A.dim


def test_jacobi_rejects_unknown():
    # the rank is ASCII digits: int() would read "\u0663" as 3
    for bad in ["B2", "D3", "E9", "A0", "F4", "", "A\u0663", "A\u00b2"]:
        with pytest.raises(ValueError, match="unsupported singularity type"):
            jacobi_ring(bad)


# ---------------------------------------------------------------- JSON files

def test_json_round_trip():
    for A in [qh_projective(3), jacobi_ring("D4"), qh_grassmannian(2, 4)]:
        B = algebra_from_json(algebra_to_json(A))
        assert B.structure == A.structure
        assert B.unit == A.unit
        assert B.degrees == A.degrees
        assert B.anticanonical == A.anticanonical
        assert B.basis_labels == tuple("b%d" % i for i in range(A.dim))


def test_save_and_load(tmp_path):
    path = tmp_path / "p2.json"
    save_algebra(qh_projective(2), str(path))
    A = load_algebra(str(path))
    assert A.structure == qh_projective(2).structure


def test_load_rejects_corrupted_data():
    obj = algebra_to_json(qh_projective(2))
    obj["triples"][0][3] += 1
    with pytest.raises(ValueError, match="invalid algebra data"):
        algebra_from_json(obj)


@pytest.mark.parametrize("where", ["unit", "middle", "last"])
def test_json_refuses_a_spoiled_table_without_the_sweep(where):
    # one structure constant of IG(2,16) (dim 112) raised by 1: the unit
    # check or a generator equation decides it, and the O(dim^3) sweep
    # that would list every failing triple (seconds here) never runs
    obj = algebra_to_json(qh_ig2(8))
    triples = obj["triples"]
    triples[{"unit": 0, "middle": len(triples) // 2, "last": -1}[where]][3] \
        += 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match="invalid algebra data 'IG.2,16.'"):
        algebra_from_json(obj)
    assert time.perf_counter() - start < 0.5


def _json_p2():
    return algebra_to_json(qh_projective(2))


@pytest.mark.parametrize("spoil", [
    lambda obj: obj.update(dim=2.0),
    lambda obj: obj.update(dim=-1),
    lambda obj: obj.update(dim=4),
    lambda obj: obj["degrees"].pop(),
    lambda obj: obj["triples"][0].__setitem__(4, 0),
    lambda obj: obj["triples"][0].__setitem__(4, 2.0),
    lambda obj: obj["triples"][0].__setitem__(3, 1.5),
    lambda obj: obj["triples"][0].__setitem__(0, "0"),
    lambda obj: obj["triples"].append(list(obj["triples"][0])),
    lambda obj: obj["unit"][0].__setitem__(1, 0),
    lambda obj: obj["anticanonical"][1].__setitem__(0, 3.0),
    lambda obj: obj.update(degrees=[0, True, 2]),
    lambda obj: obj.update(dim_X="two"),
    lambda obj: obj.update(dim_X=None),
    lambda obj: obj.update(dim_X=True),
    lambda obj: obj.update(name=["x"]),
    lambda obj: obj.update(fano_index=True),
    lambda obj: obj.pop("dim_X"),
    lambda obj: obj.pop("triples"),
])
def test_json_rejects_malformed_entries(spoil):
    obj = _json_p2()
    spoil(obj)
    with pytest.raises(ValueError):
        algebra_from_json(obj)


@pytest.mark.parametrize("key,value", [
    ("degrees", [0, True, 2]), ("dim_X", "two"), ("dim_X", None),
    ("dim_X", True), ("name", ["x"]), ("fano_index", True), ("unit", None),
])
def test_json_refusal_names_the_field(key, value):
    # None stands for a missing field
    obj = _json_p2()
    if value is None:
        del obj[key]
    else:
        obj[key] = value
    with pytest.raises(ValueError, match=key):
        algebra_from_json(obj)


def test_json_checks_lengths_before_allocating():
    obj = _json_p2()
    obj["dim"] = 10 ** 6
    start = time.perf_counter()
    with pytest.raises(ValueError, match="vector length mismatch"):
        algebra_from_json(obj)
    assert time.perf_counter() - start < 1.0


def test_json_refuses_a_dimension_above_the_limit():
    # a few KB that would describe a 2000 x 2000 table: the unit b_0, a
    # zero kappa and 2000 triples b_0 * b_i = b_i
    dim = 2000
    zero = [[0, 1]] * dim
    obj = {"name": "big", "dim": dim, "fano_index": 1, "dim_X": 0,
           "degrees": [0] * dim, "unit": [[1, 1]] + zero[1:],
           "anticanonical": zero,
           "triples": [[0, i, i, 1, 1] for i in range(dim)]}
    # G(5,10), the largest ring the package builds, still fits
    assert dim > algebra.JSON_MAX_DIM >= math.comb(10, 5)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the limit"):
        algebra_from_json(obj)
    assert time.perf_counter() - start < 0.1
