import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnc_engine.algebra import (
    BBProbSpace,
    MismatchedAlgebra,
    StructuredAlgebra,
    algebra_diagonal,
    algebra_dual_numbers,
    algebra_from_matrix_units,
    algebra_scalars,
    check_bb_axioms,
    product,
)
from bnc_engine.bimult import APPEND_LEFT, PREPEND_LEFT, PREPEND_RIGHT
from bnc_engine.cumulants import AlgebraMomentContext
from bnc_engine.linalg import frac, unit_vec
from bnc_engine.fixtures import (
    space_diag2,
    space_diag2_bad_expectation,
    space_dual,
    space_m2_scalar,
    space_scalar,
)


def unit_defect(alg: StructuredAlgebra):
    """First basis index i where 1·e_i or e_i·1 is not e_i, or None."""
    for i in range(alg.dim):
        e = unit_vec(alg.dim, i)
        if alg.mul_coeffs(list(alg.unit), e) != e:
            return i
        if alg.mul_coeffs(e, list(alg.unit)) != e:
            return i
    return None


def test_unit_is_identity_on_basis():
    for alg in (algebra_from_matrix_units(2), algebra_diagonal(3), algebra_dual_numbers()):
        assert unit_defect(alg) is None
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
    # the first failing (i, j, t) in loop order
    assert failed["expectation-bimodular"]["witness"] == (0, 0, 1)


def _failed(space) -> dict:
    rep = check_bb_axioms(space)
    return {c["id"]: c.get("witness") for c in rep.claims if c["status"] == "fail"}


# diag2's embeddings with d2's column sent to 0: rank 1 against dim B = 2
DIAG2_D2_LOST = ((1, 0), (0, 0), (0, 0), (0, 0))


def test_left_embed_injective_names_the_rank():
    failed = _failed(replace(space_diag2(), left_embed=DIAG2_D2_LOST))
    assert failed["left-embed-injective"] == {"rank": 1, "dim B": 2}
    assert "right-embed-injective" not in failed


def test_right_embed_injective_names_the_rank():
    failed = _failed(replace(space_diag2(), right_embed=DIAG2_D2_LOST))
    assert failed["right-embed-injective"] == {"rank": 1, "dim B": 2}
    assert "left-embed-injective" not in failed


def test_embeds_unital_names_the_embedded_units():
    # m2 over the scalars with L_1 = e11: the left embedded unit misses e22
    space = space_m2_scalar()
    failed = _failed(replace(space, left_embed=((1,), (0,), (0,), (0,))))
    unit = str(space.A.one())
    assert failed["embeds-unital"] == {
        "left": str(space.A.basis_element(0)),
        "right": unit,
        "unit": unit,
    }


def test_expectation_unital_names_e_of_one():
    # diag2-bad reads the strictly upper corner, so E(1) = 0
    failed = _failed(space_diag2_bad_expectation())
    assert failed["expectation-unital"] == {"E(1)": "0", "unit": "1*d1 + 1*d2"}


def test_expectation_examples():
    sp = space_m2_scalar()
    assert sp.expect(sp.A.one()).coeffs == sp.B.unit
    e22 = sp.A.basis_element(3)
    assert sp.expect(e22).is_zero()
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


SPACES = (space_scalar, space_m2_scalar, space_diag2, space_diag2_bad_expectation, space_dual)
# every fixture's basis products are single basis elements; the dual
# numbers on the basis 1, w = 1 + x have w * w = 2w - 1, two terms
DUAL_W = StructuredAlgebra(
    2, ("1", "w"), (((1, 0), (0, 1)), ((0, 1), (-1, 2))), (1, 0)
)
ALGEBRAS = [alg for make in SPACES for alg in (make().A, make().B)] + [DUAL_W]


def dense_mul(alg, x, y):
    """x * y by the triple loop over every structure constant."""
    out = [0] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                out[k] += x[i] * y[j] * alg.mult[i][j][k]
    return out


def test_sparse_product_matches_dense_on_basis_pairs():
    for alg in ALGEBRAS:
        for i in range(alg.dim):
            for j in range(alg.dim):
                x, y = unit_vec(alg.dim, i), unit_vec(alg.dim, j)
                assert alg.mul_coeffs(x, y) == dense_mul(alg, x, y), (alg.labels, i, j)


ENTRY = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(frac),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_sparse_product_matches_dense_on_random_elements(data):
    alg = data.draw(st.sampled_from(ALGEBRAS))
    coeffs = st.lists(ENTRY, min_size=alg.dim, max_size=alg.dim)
    x, y = data.draw(coeffs), data.draw(coeffs)
    assert alg.mul_coeffs(x, y) == dense_mul(alg, x, y)


def test_structure_defects_match_dense_search():
    """associativity_defect and unit_defect name the first defect a dense
    search finds, on the fixtures (none) and on broken tables."""

    def first_defects(alg):
        e = [unit_vec(alg.dim, i) for i in range(alg.dim)]
        assoc = next(
            (
                (i, j, k)
                for i in range(alg.dim)
                for j in range(alg.dim)
                for k in range(alg.dim)
                if dense_mul(alg, list(alg.mult[i][j]), e[k])
                != dense_mul(alg, e[i], list(alg.mult[j][k]))
            ),
            None,
        )
        unit = next(
            (
                i
                for i in range(alg.dim)
                if dense_mul(alg, list(alg.unit), e[i]) != e[i]
                or dense_mul(alg, e[i], list(alg.unit)) != e[i]
            ),
            None,
        )
        return assoc, unit

    m2 = space_m2_scalar().A
    mult = [list(mi) for mi in m2.mult]
    mult[1][2] = (0, 0, 0, 1)  # E12 E21 = E22 instead of E11
    broken = StructuredAlgebra(m2.dim, m2.labels, tuple(map(tuple, mult)), m2.unit)
    shifted = StructuredAlgebra(m2.dim, m2.labels, m2.mult, (1, 0, 0, 0))
    for alg in ALGEBRAS + [broken, shifted]:
        got = (alg.associativity_defect(), unit_defect(alg))
        assert got == first_defects(alg), alg.labels
    assert broken.associativity_defect() == (0, 1, 2)
    assert unit_defect(shifted) == 1


def test_space_refuses_misshapen_maps():
    sp = space_diag2()
    with pytest.raises(MismatchedAlgebra, match="^expectation must be 2 x 4$"):
        BBProbSpace(sp.A, sp.B, sp.expectation[:1], sp.left_embed, sp.right_embed)
    with pytest.raises(MismatchedAlgebra, match="^right_embed must be 4 x 2$"):
        BBProbSpace(
            sp.A, sp.B, sp.expectation, sp.left_embed, tuple(r[:1] for r in sp.right_embed)
        )


def space_diag2_swapped_right() -> BBProbSpace:
    """Test-only: M2 over D2 with R_b the diagonal of b with its entries
    swapped, so L_b and R_b differ.  Its expectation is not bimodular for
    this pair; it serves only to tell the two insertion kernels apart."""
    sp = space_diag2()
    swapped = ((0, 1), (0, 0), (0, 0), (1, 0))
    return BBProbSpace(sp.A, sp.B, sp.expectation, sp.left_embed, swapped)


KERNEL_SPACES = SPACES + (space_diag2_swapped_right,)


def _dense(alg, rng):
    """An element with every coefficient nonzero, some of them Fractions,
    so outside the one-sided commutants wherever those are proper."""
    entries = [-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-2, 3)]
    return alg.element([rng.choice(entries) for _ in range(alg.dim)])


@pytest.mark.parametrize("make", KERNEL_SPACES)
def test_moment_kernels_match_their_definitions(make):
    """AlgebraMomentContext reads the space's kernels; each must equal the
    product it replaces, on dense elements and every B basis element."""
    sp = make()
    mf = AlgebraMomentContext(sp)
    rng = random.Random(3)
    for _ in range(20):
        x = _dense(sp.A, rng)
        bs = [_dense(sp.B, rng)] + [sp.B.basis_element(i) for i in range(sp.B.dim)]
        for b in bs:
            for kind, want in (
                (PREPEND_LEFT, sp.embed_left(b) * x),
                (PREPEND_RIGHT, sp.embed_right(b) * x),
                (APPEND_LEFT, x * sp.embed_left(b)),
            ):
                assert mf.insert(kind, b, x).coeffs == want.coeffs
        for length in (1, 2, 3, 4):
            word = [x] + [_dense(sp.A, rng) for _ in range(length - 1)]
            got, want = mf.expect(word), sp.expect(product(word))
            assert (got.parent, got.coeffs) == (want.parent, want.coeffs)
    assert sp.expect_word([]).coeffs == sp.B.unit


def test_swapped_right_space_separates_the_insertions():
    """On the test-only space the three insertions give three different
    elements, so the kernel test above tells every pair of them apart."""
    sp = space_diag2_swapped_right()
    rng = random.Random(4)
    x, b = _dense(sp.A, rng), _dense(sp.B, rng)
    got = {
        (sp.embed_left(b) * x).coeffs,
        (sp.embed_right(b) * x).coeffs,
        (x * sp.embed_left(b)).coeffs,
    }
    assert len(got) == 3


def test_kernels_refuse_elements_of_the_wrong_algebra():
    sp = space_diag2()
    x, b = sp.A.one(), sp.B.one()
    with pytest.raises(MismatchedAlgebra):
        sp.insert(PREPEND_LEFT, x, x)
    with pytest.raises(MismatchedAlgebra):
        sp.insert(APPEND_LEFT, b, b)
    with pytest.raises(MismatchedAlgebra):
        sp.expect_word([x, b])
