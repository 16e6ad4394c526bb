import hashlib
import itertools
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
    assert validate_algebra(qh_projective(2)).ok


# ---------------------------------------------------------------- validation

def _perturbed(A, i, j, k, delta):
    """A with the structure constant of b_k in b_i*b_j (and b_j*b_i)
    shifted by delta."""
    structure = [[list(cell) for cell in row] for row in A.structure]
    structure[i][j][k] += delta
    if i != j:
        structure[j][i][k] += delta
    return FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, structure=structure,
        unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=A.anticanonical, dim_X=A.dim_X)


def test_validation_catches_perturbation():
    report = validate_algebra(_perturbed(qh_projective(2), 1, 1, 0, 1))
    assert not report.ok
    assert any("associativity" in v for v in report.violations)
    assert any("grading" in v for v in report.violations)


# sha256 of repr() of the list of violation tuples, one per perturbation
# (i <= j, then k, ascending), as the Fraction sweep gave them
D5_SWEEP_SHA256 = \
    "7c61ec024eed2827e3eb20b2dd9370f60ba2b9e944967a8785eb012d8da04f20"


def test_validation_of_perturbed_d5_is_pinned():
    # D5 has a constant -1/4, and +1/3 makes denominators 12
    A = jacobi_ring("D5")
    found = [validate_algebra(_perturbed(A, i, j, k, F(1, 3))).violations
             for i in range(A.dim) for j in range(i, A.dim)
             for k in range(A.dim)]
    assert (len(found), sum(1 for v in found if v)) == (75, 69)
    assert hashlib.sha256(repr(found).encode()).hexdigest() == D5_SWEEP_SHA256
    assert validate_algebra(_perturbed(A, 0, 3, 2, F(1, 3))).violations == (
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
    assert validate_algebra(A).violations == (
        ("associativity fails at (1, 2, 2)",)
        + tuple("associativity fails at (2, 2, %d)" % l for l in range(3, 24)))


def test_validation_catches_asymmetry():
    A = qh_projective(1)
    structure = [[list(cell) for cell in row] for row in A.structure]
    structure[0][1][1] += 1
    report = validate_algebra(FiniteCommAlgebra(
        name=A.name, basis_labels=A.basis_labels, structure=structure,
        unit=A.unit, degrees=A.degrees, fano_index=A.fano_index,
        anticanonical=A.anticanonical, dim_X=A.dim_X))
    assert any("commutativity" in v for v in report.violations)


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
    assert validate_algebra(A).ok
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
    assert validate_algebra(A).ok


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
