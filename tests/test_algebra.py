import json
from fractions import Fraction

import pytest

from bnc_engine.algebra import (
    FaceAssignment,
    MismatchedAlgebra,
    algebra_diagonal,
    algebra_dual_numbers,
    algebra_from_matrix_units,
    algebra_scalars,
    check_bb_axioms,
    expectation_apply,
    space_from_json_str,
    space_to_json_str,
)
from bnc_engine.errors import InputError
from bnc_engine.fixtures import (
    space_diag2,
    space_diag2_bad_expectation,
    space_dual,
    space_m2_scalar,
    space_scalar,
)


def test_unit_is_identity_on_basis():
    for alg in (algebra_from_matrix_units(2), algebra_diagonal(3), algebra_dual_numbers()):
        assert alg.unit_defect() is None
        for i in range(alg.dim):
            e = alg.basis_element(i)
            assert (alg.one() * e).coeffs == e.coeffs
            assert (e * alg.one()).coeffs == e.coeffs


def test_orthogonal_idempotents_in_diagonal_algebra():
    d = algebra_diagonal(2)
    d1, d2 = d.basis_element(0), d.basis_element(1)
    assert (d1 * d2).is_zero()
    assert (d1 * d1).coeffs == d1.coeffs


def test_matrix_unit_multiplication():
    m2 = algebra_from_matrix_units(2)
    e12, e21, e11 = m2.basis_element(1), m2.basis_element(2), m2.basis_element(0)
    assert (e12 * e21).coeffs == e11.coeffs
    assert (e12 * e12).is_zero()


def test_associativity_on_all_fixtures():
    for alg in (algebra_from_matrix_units(2), algebra_from_matrix_units(3),
                algebra_diagonal(2), algebra_dual_numbers(), algebra_scalars()):
        assert alg.associativity_defect() is None


def test_mismatched_algebra_raises():
    a = algebra_scalars()
    b = algebra_diagonal(2)
    with pytest.raises(MismatchedAlgebra):
        a.one() * b.one()


def test_axioms_pass_on_fixtures():
    for sp in (space_scalar(), space_m2_scalar(), space_diag2(), space_dual()):
        assert check_bb_axioms(sp).ok


def test_axioms_flag_bad_expectation_with_witness():
    rep = check_bb_axioms(space_diag2_bad_expectation())
    failed = {c["id"]: c for c in rep.claims if c["status"] == "fail"}
    assert "expectation-bimodular" in failed
    assert failed["expectation-bimodular"]["witness"] is not None


def test_expectation_examples():
    sp = space_m2_scalar()
    assert sp.expect(sp.A.one()).coeffs == sp.B.unit
    e22 = sp.A.basis_element(3)
    assert expectation_apply(sp, e22).is_zero()
    spd = space_diag2()
    e12 = spd.A.basis_element(1)
    assert spd.expect(e12).is_zero()


def test_expectation_bimodularity_spanning():
    sp = space_diag2()
    B, A = sp.B, sp.A
    for i in range(B.dim):
        for j in range(B.dim):
            for t in range(A.dim):
                b1, b2 = B.basis_element(i), B.basis_element(j)
                T = A.basis_element(t)
                lhs = sp.expect(sp.embed_left(b1) * sp.embed_right(b2) * T)
                assert (lhs - b1 * sp.expect(T) * b2).is_zero()


def test_left_right_balance():
    sp = space_diag2()
    for t in range(sp.A.dim):
        T = sp.A.basis_element(t)
        for i in range(sp.B.dim):
            b = sp.B.basis_element(i)
            lhs = sp.expect(T * sp.embed_left(b))
            rhs = sp.expect(T * sp.embed_right(b))
            assert (lhs - rhs).is_zero()


def test_space_json_roundtrip():
    sp = space_diag2()
    text = space_to_json_str(sp)
    back = space_from_json_str(text)
    assert back.A.mult == sp.A.mult
    assert back.expectation == sp.expectation
    assert space_to_json_str(back) == text


@pytest.mark.parametrize("value, shown", [(0.1, "0.1"), (True, "true")])
def test_space_json_refuses_inexact_coefficients(value, shown):
    """A JSON float would load at its binary value and true as 1; both
    are refused with the field named.  Integers and "p/q" strings load."""
    data = json.loads(space_to_json_str(space_scalar()))
    data["expectation"][0][0] = value
    with pytest.raises(InputError, match=rf"^expectation: coefficient {shown} "):
        space_from_json_str(json.dumps(data))
    data["expectation"][0][0] = "3/4"
    data["A"]["unit"][0] = 1
    back = space_from_json_str(json.dumps(data))
    assert back.expectation == ((Fraction(3, 4),),) and back.A.unit == (1,)
    data["A"]["unit"][0] = value
    with pytest.raises(InputError, match=r"^A\.unit: "):
        space_from_json_str(json.dumps(data))


def test_face_assignment_checks():
    sp = space_m2_scalar()
    e12, e21 = sp.A.basis_element(1), sp.A.basis_element(2)
    fa = FaceAssignment(sp, {1: {"l": [e12], "r": [e21], "b": [e12 + e21]}})
    assert fa.check().ok
    # diag2: off-diagonal elements do not commute with the embeddings
    spd = space_diag2()
    off = spd.A.basis_element(1)
    fa_bad = FaceAssignment(spd, {1: {"l": [off]}})
    assert not fa_bad.check().ok
