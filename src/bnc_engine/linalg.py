"""Exact rational linear algebra.

Small and dependency-free: vectors are lists of scalars, matrices are
lists of rows.  Row reduction is sparse: RowSpace and Quotient take and
return {index: scalar} dicts of the nonzero entries, and sparse() turns
a dense vector into one.  Everything returns fresh values; nothing is
mutated in place unless the name says so.

Kernels.  Every linear map the engine applies on a hot path is a Kernel:
a matrix as per-column tuples of its nonzero (row, entry) pairs, built
once from dense columns by kernel().  combine(u, kernels, v, dim) is the
one application, the sum of u_i·K_i·v over the nonzero u_i.  A bilinear
map is a kernel per first basis element (an algebra's products, a form,
the B insertions) and a linear map is one kernel with u = (1,).

Scalar model: a scalar is an int when it is integral and a
fractions.Fraction when it is not; never a float or a bool.  Ints are
exact and skip Fraction's gcd and allocation.  frac() brings outside
values in, and div() is the one true division, because int / int is a
float.  Both return an int for an integral value, and row reduction
keeps its rows that way.  Ring operations on ints give ints, so a
Fraction arises only from non-integral data or an inexact quotient.  A
product of such Fractions may be an integral Fraction; it compares and
hashes equal to the int.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction
Vec = list[Scalar]
Mat = list[list[Scalar]]
# a matrix as sparse columns: per column, its nonzero (row, entry) pairs
Kernel = tuple[tuple[tuple[int, Scalar], ...], ...]

ZERO = 0
ONE = 1


def frac(x) -> Scalar:
    """x as an exact scalar: an int when integral, else a Fraction."""
    if type(x) is int:
        return x
    q = Fraction(x)
    return q.numerator if q.denominator == 1 else q


def div(a: Scalar, b: Scalar) -> Scalar:
    """a / b exactly, as an int when the quotient is integral."""
    q = Fraction(a) / b
    return q.numerator if q.denominator == 1 else q


def zeros(n: int) -> Vec:
    return [ZERO] * n


def unit_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return v


def mat_zero(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [unit_vec(n, i) for i in range(n)]


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Vec:
    nonzero = [(j, x) for j, x in enumerate(v) if x]
    return [sum((row[j] * x for j, x in nonzero), ZERO) for row in m]


def mat_combination(coeffs: Sequence[Scalar], mats: Sequence[Mat]) -> Mat:
    """The sum of coeffs[i] * mats[i], for square matrices of one size."""
    dim = len(mats[0])
    out = mat_zero(dim, dim)
    for c, m in zip(coeffs, mats, strict=True):
        if not c:
            continue
        for orow, row in zip(out, m):
            for s, x in enumerate(row):
                if x:
                    orow[s] += c * x
    return out


def kernel(cols: Iterable[Sequence[Scalar]]) -> Kernel:
    """Dense columns as a Kernel."""
    return tuple(tuple((r, x) for r, x in enumerate(col) if x) for col in cols)


def combine(u: Sequence[Scalar], kernels, v: Sequence[Scalar], dim: int) -> Vec:
    """The sum of u_i·K_i·v over the nonzero u_i, each K_i a Kernel with
    dim rows; v may stop short of the column count, its missing entries
    zero."""
    out = [ZERO] * dim
    for ui, ker in zip(u, kernels):
        if not ui:
            continue
        for j, x in enumerate(v):
            if x:
                c = ui * x
                for r, s in ker[j]:
                    out[r] += c * s
    return out


def block_matrix(dim: int, blocks: dict[tuple[int, int], Mat]) -> Mat:
    """Two-by-two block matrix with dim x dim blocks keyed by (block row,
    block column); absent blocks are zero."""
    out = mat_zero(2 * dim, 2 * dim)
    for (bi, bj), m in blocks.items():
        for r in range(dim):
            for c in range(dim):
                if m[r][c]:
                    out[bi * dim + r][bj * dim + c] = m[r][c]
    return out


class RowSpace:
    """Row-reduced span of a set of sparse vectors, built incrementally.

    Each row is a {column: scalar} dict with only its nonzero entries,
    kept in reduced echelon form: rows[p] is the row whose leading entry
    is a 1 at column p, and every other row is 0 there.  A column index
    maps each non-pivot column to the pivots of the rows that use it, so
    a new pivot is eliminated from those rows alone, and a vector is
    reduced in one pass over its entries at pivot columns.  The reduced
    echelon form of a span is unique, so the rows do not depend on the
    order the vectors came in.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: dict[int, dict[int, Scalar]] = {}  # pivot -> row
        self._uses: dict[int, set[int]] = {}  # non-pivot column -> pivots

    def reduce(self, v: dict[int, Scalar]) -> dict[int, Scalar]:
        """v minus its projection onto the span: the residual, 0 at every
        pivot column.  Rows are 0 at each other's pivots, so v's own entry
        at a pivot is the multiple of that row to take away."""
        rows = self.rows
        out = {j: c for j, c in v.items() if c}
        for p in [p for p in out if p in rows]:
            _axpy(out, -out[p], rows[p])
        return out

    def add(self, v: dict[int, Scalar]) -> bool:
        """Add v to the span; True if it increased the rank."""
        r = self.reduce(v)
        if not r:
            return False
        p = min(r)
        if r[p] != 1:
            inv = div(1, r[p])
            r = {j: _n(c * inv) for j, c in r.items()}
        uses = self._uses
        for q in uses.pop(p, ()):
            row = self.rows[q]
            _axpy(row, -row[p], r)
            for j in r:
                if j in row:
                    uses.setdefault(j, set()).add(q)
                elif j != p:
                    uses[j].discard(q)
        for j in r:
            if j != p:
                uses.setdefault(j, set()).add(p)
        self.rows[p] = r
        return True

    def lifted(self, d: int) -> "RowSpace":
        """The span of row ⊗ e_c over width·d, for every row and every c <
        d: row r with pivot p becomes r ⊗ e_c with pivot p·d + c.  These
        rows are already in reduced echelon form."""
        out = RowSpace(self.width * d)
        for p, r in self.rows.items():
            for c in range(d):
                out.rows[p * d + c] = {j * d + c: x for j, x in r.items()}
        for j, ps in self._uses.items():
            for c in range(d):
                out._uses[j * d + c] = {p * d + c for p in ps}
        return out

    @property
    def rank(self) -> int:
        return len(self.rows)

    def complement_indices(self) -> list[int]:
        """Coordinate indices forming a basis of a complement of the span."""
        return [j for j in range(self.width) if j not in self.rows]


def _n(x: Scalar) -> Scalar:
    """x with an integral Fraction as an int."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _axpy(v: dict[int, Scalar], c: Scalar, row: dict[int, Scalar]):
    """v += c·row in place, dropping the entries that cancel."""
    for j, x in row.items():
        y = v.get(j, ZERO) + c * x
        if y:
            v[j] = y if type(y) is int else _n(y)
        else:
            del v[j]


def sparse(v: Sequence[Scalar]) -> dict[int, Scalar]:
    """The nonzero entries of a dense vector, by index."""
    return {j: c for j, c in enumerate(v) if c}


def nullspace(m: Mat, cols: int) -> tuple[Mat, list[int]]:
    """Basis of the right nullspace of m (rows may be empty), and its free
    indices.  Basis vector j is 1 at free[j] and 0 at every other free
    index, so a nullspace element's coordinates are its entries there."""
    rs = RowSpace(cols)
    for row in m:
        rs.add(sparse(row))
    free = rs.complement_indices()
    basis = []
    for f in free:
        v = zeros(cols)
        v[f] = ONE
        # back-substitute pivot coordinates
        for p, row in rs.rows.items():
            if f in row:
                v[p] = -row[f]
        basis.append(v)
    return basis, free


class Quotient:
    """Quotient of coordinate space ℚ^width by a spanned subspace.

    Quotient coordinate q is the q-th non-pivot column of the subspace.
    project() maps a sparse ambient vector to its quotient coordinates,
    by reducing it against the rows; section() lifts quotient
    coordinates back to the canonical representative, 0 at every pivot.
    """

    def __init__(self, subspace: RowSpace):
        self.sub = subspace
        self.width = subspace.width
        self.coords = subspace.complement_indices()
        self.dim = len(self.coords)
        self._coord_of = {j: q for q, j in enumerate(self.coords)}

    def project(self, v: dict[int, Scalar]) -> dict[int, Scalar]:
        at = self._coord_of
        return {at[j]: c for j, c in self.sub.reduce(v).items()}

    def section(self, q: dict[int, Scalar]) -> dict[int, Scalar]:
        pos = self.coords
        return {pos[i]: c for i, c in q.items() if c}
