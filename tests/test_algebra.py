import hashlib
import itertools
import math
import time
from fractions import Fraction

import pytest

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
from qspectra.exactlin import Matrix, charpoly
from qspectra.schur import qh_grassmannian

F = Fraction


# ---------------------------------------------------------------- projective

def test_projective_line():
    A = qh_projective(1)
    assert A.dim == 2
    assert A.product(A.basis_vector(1), A.basis_vector(1)) == A.unit
    assert A.anticanonical == (F(0), F(2))


def test_projective_plane_wraps():
    A = qh_projective(2)
    h, h2 = A.basis_vector(1), A.basis_vector(2)
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

def _table(structure):
    """The constructor's {k: c} cells for a dense table."""
    return [[dict(enumerate(cell)) for cell in row] for row in structure]


def _perturbed(A, i, j, k, delta):
    """A with the structure constant of b_k in b_i*b_j (and b_j*b_i)
    shifted by delta."""
    structure = [[list(cell) for cell in row] for row in A.structure]
    structure[i][j][k] += delta
    if i != j:
        structure[j][i][k] += delta
    return FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, table=_table(structure),
        unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=A.anticanonical, dim_X=A.dim_X)


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


def test_validation_catches_asymmetry():
    A = qh_projective(1)
    structure = [[list(cell) for cell in row] for row in A.structure]
    structure[0][1][1] += 1
    report = validate_algebra(FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, table=_table(structure),
        unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=A.anticanonical, dim_X=A.dim_X))
    assert any("commutativity" in v for v in report)


# ---------------------------------------------------------------- mult_matrix

def test_mult_by_unit_is_identity():
    A = qh_projective(3)
    assert mult_matrix(A, A.unit) == Matrix.identity(4)


def test_mult_matrix_projective_line_swap():
    A = qh_projective(1)
    assert mult_matrix(A, A.basis_vector(1)) == Matrix([[0, 1], [1, 0]])


def test_mult_matrix_is_linear_and_commuting():
    A = qh_projective(3)
    u = (F(1), F(2), F(0), F(-1))
    w = (F(0), F(1, 3), F(5), F(2))
    Mu, Mw = mult_matrix(A, u), mult_matrix(A, w)
    s = tuple(a + b for a, b in zip(u, w))
    assert mult_matrix(A, s) == Mu + Mw
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
    structure = [[list(cell) for cell in row] for row in A.structure]
    structure[1][1][0] = 0.0
    with pytest.raises(TypeError):
        FiniteCommAlgebra(
            name=A.name, basis_labels=A.basis_labels, table=_table(structure),
            unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
            anticanonical=A.anticanonical, dim_X=A.dim_X)


def _with_table(A, table):
    return FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, table=table, unit=A.unit,
        degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=A.anticanonical, dim_X=A.dim_X)


def _cells(A):
    """A's table as fresh {k: Fraction} cells, one object per (i, j)."""
    return [[{k: F(c, A.den) for k, c in cell} for cell in row]
            for row in A.rows]


def test_constructor_rejects_an_index_outside_the_basis():
    A = qh_projective(2)
    for k in (3, -1):
        table = _cells(A)
        table[1][2][k] = F(1)
        with pytest.raises(ValueError, match="out of range"):
            _with_table(A, table)


def test_constructor_reads_a_lower_cell_that_is_not_its_mirror():
    # the mirror (0, 1) is exact; the lower cell is a distinct object
    A = qh_projective(2)
    table = _cells(A)
    table[1][0] = dict(table[0][1])
    table[1][0][2] = 0.0
    with pytest.raises(TypeError):
        _with_table(A, table)


def test_shared_and_equal_mirror_cells_give_the_same_rows():
    # the distinct mirrors list their keys in reverse, so the rows are
    # sorted by k whatever order a cell comes in
    A = jacobi_ring("D5")
    distinct = _cells(A)
    shared = _cells(A)
    for i in range(A.dim):
        for j in range(i):
            distinct[i][j] = dict(reversed(distinct[j][i].items()))
            shared[i][j] = shared[j][i]
    B, C = _with_table(A, distinct), _with_table(A, shared)
    assert (B.rows, B.den) == (C.rows, C.den) == (A.rows, A.den)
    assert B.den > 1


def test_constructor_drops_explicit_zeros():
    A = jacobi_ring("D5")
    table = _cells(A)
    for row in table:
        for cell in row:
            cell.update({k: F(0) if k % 2 else 0
                         for k in range(A.dim) if k not in cell})
    B = _with_table(A, table)
    assert (B.rows, B.den) == (A.rows, A.den)


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
    x = A.basis_vector(1)
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
    pa = charpoly(mult_matrix(A, A.basis_vector(1)))
    pb = charpoly(mult_matrix(B, B.basis_vector(1)))
    assert pa == pb
    assert charpoly(mult_matrix(A, A.anticanonical)) \
        == charpoly(mult_matrix(B, B.anticanonical))


def test_presentation_rejects_positive_dimension():
    with pytest.raises(ValueError, match="zero-dimensional"):
        from_presentation(PolyPresentation(
            name="curve", variables=(("x", 1), ("y", 1)),
            relations=({(1, 1): 1},), fano_index=1))


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


ADE_LABELS = (["A%d" % r for r in range(1, 9)] + ["D4", "D5", "D6"]
              + ["E6", "E7", "E8"])


@pytest.mark.parametrize("P", (
    [algebra._jacobi_presentation(label) for label in ADE_LABELS]
    + [algebra._ig2_presentation(n) for n in range(2, 7)]),
    ids=lambda P: P.name)
def test_operator_walk_matches_pairwise_normal_forms(P):
    A = from_presentation(P)
    structure, unit, anticanonical = _pairwise_normal_forms(P)
    assert [list(row) for row in A.structure] == structure
    assert A.unit == unit
    assert A.anticanonical == anticanonical


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
    x = A.basis_vector(A.basis_labels.index("x"))
    acc = x
    for _ in range(A.dim):
        acc = A.product(acc, x)
    assert acc == (F(0),) * A.dim


def test_jacobi_rejects_unknown():
    for bad in ["B2", "D3", "E9", "A0", "F4", ""]:
        with pytest.raises(ValueError):
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
])
def test_json_rejects_malformed_entries(spoil):
    obj = _json_p2()
    spoil(obj)
    with pytest.raises(ValueError):
        algebra_from_json(obj, check=False)


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
        algebra_from_json(obj, check=False)
    assert time.perf_counter() - start < 0.1
