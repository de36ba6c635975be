"""Exact rational linear algebra.

Small and dependency-free: vectors are lists of scalars, matrices are
lists of rows.  Everything returns fresh lists; nothing is mutated in
place unless the name says so.

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
from typing import Sequence

Scalar = int | Fraction
Vec = list[Scalar]
Mat = list[list[Scalar]]

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


def _normal(v: Vec) -> Vec:
    """v with integral Fractions as ints (an int is its own numerator)."""
    return [c.numerator if c.denominator == 1 else c for c in v]


def zeros(n: int) -> Vec:
    return [ZERO] * n


def unit_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return v


def vec_add(u: Sequence[Scalar], v: Sequence[Scalar]) -> Vec:
    return [a + b for a, b in zip(u, v, strict=True)]


def vec_scale(c: Scalar, v: Sequence[Scalar]) -> Vec:
    return [c * a for a in v]


def is_zero_vec(v: Sequence[Scalar]) -> bool:
    return all(a == 0 for a in v)


def mat_zero(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [unit_vec(n, i) for i in range(n)]


def mat_vec(m: Sequence[Sequence[Scalar]], v: Sequence[Scalar]) -> Vec:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in m]


def mat_mul(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]) -> Mat:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = mat_zero(rows, cols)
    for i in range(rows):
        arow = a[i]
        orow = out[i]
        for k in range(inner):
            c = arow[k]
            if c:
                brow = b[k]
                for j in range(cols):
                    if brow[j]:
                        orow[j] += c * brow[j]
    return out


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
    """Row-reduced span of a set of vectors, built incrementally.

    Keeps rows in reduced echelon form with pivot bookkeeping, so
    membership tests and quotient coordinates are cheap.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: Mat = []
        self.pivots: list[int] = []
        self._fractional = False  # some row entry is a Fraction

    def reduce(self, v: Sequence[Scalar]) -> Vec:
        """Return v minus its projection onto the span (echelon residual).

        Only a Fraction factor can make an entry an integral Fraction (a
        non-integral Fraction plus an int is never integral), so the
        residual is normalised only when one took part."""
        v = list(v)
        mixed = self._fractional
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                mixed = mixed or type(c) is not int
                for j in range(p, self.width):
                    if row[j]:
                        v[j] -= c * row[j]
        return _normal(v) if mixed else v

    def add(self, v: Sequence[Scalar]) -> bool:
        """Add v to the span; True if it increased the rank."""
        r = self.reduce(v)
        p = next((j for j in range(self.width) if r[j]), None)
        if p is None:
            return False
        if r[p] != 1:
            inv = div(1, r[p])
            r = _normal([c * inv for c in r])
        if not self._fractional:
            self._fractional = Fraction in map(type, r)
        for row in self.rows:
            if row[p]:
                c = row[p]
                for j in range(p, self.width):
                    if r[j]:
                        row[j] -= c * r[j]
                if self._fractional:
                    row[:] = _normal(row)
        k = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(k, r)
        self.pivots.insert(k, p)
        return True

    def contains(self, v: Sequence[Scalar]) -> bool:
        return is_zero_vec(self.reduce(v))

    @property
    def rank(self) -> int:
        return len(self.rows)

    def complement_indices(self) -> list[int]:
        """Coordinate indices forming a basis of a complement of the span."""
        piv = set(self.pivots)
        return [j for j in range(self.width) if j not in piv]


def nullspace(m: Mat, cols: int) -> tuple[Mat, list[int]]:
    """Basis of the right nullspace of m (rows may be empty), and its free
    indices.  Basis vector j is 1 at free[j] and 0 at every other free
    index, so a nullspace element's coordinates are its entries there."""
    rs = RowSpace(cols)
    for row in m:
        rs.add(row)
    free = rs.complement_indices()
    basis = []
    for f in free:
        v = zeros(cols)
        v[f] = ONE
        # back-substitute pivot coordinates
        for row, p in zip(rs.rows, rs.pivots):
            if row[f]:
                v[p] = -row[f]
        basis.append(v)
    return basis, free


class Quotient:
    """Quotient of coordinate space ℚ^width by a spanned subspace.

    project() maps ambient vectors to quotient coordinates (indexed by
    the non-pivot coordinates of the subspace); section() lifts quotient
    coordinates back to canonical representatives.
    """

    def __init__(self, subspace: RowSpace):
        self.sub = subspace
        self.width = subspace.width
        self.coords = subspace.complement_indices()
        self.dim = len(self.coords)

    def project(self, v: Sequence[Scalar]) -> Vec:
        r = self.sub.reduce(v)
        return [r[j] for j in self.coords]

    def section(self, q: Sequence[Scalar]) -> Vec:
        v = zeros(self.width)
        for j, c in zip(self.coords, q, strict=True):
            v[j] = c
        return v
