"""Sparse row reduction against a dense Gauss-Jordan reference, and the
sparse kernels against dense matrices.

RowSpace keeps its rows in reduced echelon form, which is unique for a
span; the free-product word spaces rely on that when they seed each
space from its prefix.  So the rows must not depend on the order the
vectors came in, and must equal the textbook elimination.  combine, the
one application of a linear or bilinear map held as Kernels, must equal
the dense sum of matrices applied to the vector.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bnc_engine.linalg import (
    Quotient,
    RowSpace,
    combine,
    frac,
    kernel,
    mat_combination,
    mat_vec,
    sparse,
)


def gauss_jordan(rows, width):
    """Reduced echelon form of dense rows, as {pivot: {column: value}}."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(width):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        m[rank], m[hit] = m[hit], m[rank]
        m[rank] = [x / m[rank][col] for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                c = m[i][col]
                m[i] = [a - c * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return {min(sparse(row)): sparse(row) for row in m[:rank]}


# scalars of the engine's model: ints, and Fractions only when not integral
ENTRY = st.one_of(
    st.integers(-3, 3),
    st.fractions(min_value=-2, max_value=2, max_denominator=3).map(frac),
)


@st.composite
def rows_and_order(draw):
    width = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(ENTRY, min_size=width, max_size=width), max_size=8))
    order = draw(st.permutations(range(len(rows))))
    return width, rows, order


@settings(max_examples=100, deadline=None)
@given(rows_and_order())
def test_rowspace_rows_are_the_unique_reduced_echelon_form(case):
    width, rows, order = case
    expected = gauss_jordan(rows, width)
    for perm in (range(len(rows)), order):
        rs = RowSpace(width)
        for i in perm:
            rs.add(sparse(rows[i]))
        assert rs.rows == expected
        for row in rs.rows.values():
            assert all(type(c) is int or c.denominator != 1 for c in row.values())
        # every input row lies in the span; quotient coordinates are the non-pivots
        assert not any(rs.reduce(sparse(row)) for row in rows)
        q = Quotient(rs)
        assert q.coords == [j for j in range(width) if j not in expected]


@settings(max_examples=100, deadline=None)
@given(rows_and_order(), st.integers(1, 3), st.data())
def test_lifted_rows_stay_reduced_as_rows_are_added(case, d, data):
    """lifted(d) is the span of row ⊗ e_c in reduced echelon form, with a
    column index that further additions eliminate through."""
    width, rows, _ = case
    rs = RowSpace(width)
    for row in rows:
        rs.add(sparse(row))
    lifted = rs.lifted(d)
    # row r ⊗ e_c: entry r[i] at column i·d + c
    tensor = [
        [r[j // d] if j % d == c else 0 for j in range(width * d)]
        for r in rows
        for c in range(d)
    ]
    assert lifted.rows == gauss_jordan(tensor, width * d)
    extra = data.draw(
        st.lists(st.lists(ENTRY, min_size=width * d, max_size=width * d), max_size=4)
    )
    for row in extra:
        lifted.add(sparse(row))
    assert lifted.rows == gauss_jordan(tensor + extra, width * d)


@st.composite
def kernel_case(draw):
    """Square matrices with some all-zero columns, coefficients (zeros
    among them), and a vector that may stop short of the column count,
    as a vector of B coefficients does on a module."""
    dim = draw(st.integers(1, 5))
    count = draw(st.integers(1, 4))
    row = st.lists(ENTRY, min_size=dim, max_size=dim)
    square = st.lists(row, min_size=dim, max_size=dim)
    mats = draw(st.lists(square, min_size=count, max_size=count))
    for c in draw(st.sets(st.integers(0, dim - 1))):
        for m in mats:
            for row in m:
                row[c] = 0
    coeffs = draw(st.lists(ENTRY, min_size=count, max_size=count))
    v = draw(st.lists(ENTRY, max_size=dim))
    return dim, mats, coeffs, v


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_combine_matches_the_dense_combination(case):
    dim, mats, coeffs, v = case
    kernels = [kernel(zip(*m)) for m in mats]
    for ker, m in zip(kernels, mats):
        assert len(ker) == dim
        for j, col in enumerate(ker):
            assert col == tuple((r, m[r][j]) for r in range(dim) if m[r][j])
    padded = v + [0] * (dim - len(v))
    expected = mat_vec(mat_combination(coeffs, mats), padded)
    assert combine(coeffs, kernels, v, dim) == expected
    assert combine(coeffs, kernels, padded, dim) == expected
