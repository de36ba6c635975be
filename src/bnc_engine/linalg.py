"""Exact rational linear algebra over fractions.Fraction.

Small and dependency-free: vectors are lists of Fractions, matrices are
lists of rows.  Everything returns fresh lists; nothing is mutated in
place unless the name says so.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vec = list[Fraction]
Mat = list[list[Fraction]]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, str):
        return Fraction(x)
    return Fraction(x)


def zeros(n: int) -> Vec:
    return [ZERO] * n


def unit_vec(n: int, i: int) -> Vec:
    v = [ZERO] * n
    v[i] = ONE
    return v


def vec_add(u: Sequence[Fraction], v: Sequence[Fraction]) -> Vec:
    return [a + b for a, b in zip(u, v, strict=True)]


def vec_scale(c: Fraction, v: Sequence[Fraction]) -> Vec:
    return [c * a for a in v]


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(a == 0 for a in v)


def mat_zero(rows: int, cols: int) -> Mat:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Mat:
    return [unit_vec(n, i) for i in range(n)]


def mat_vec(m: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> Vec:
    return [sum((row[j] * v[j] for j in range(len(v)) if v[j]), ZERO) for row in m]


def mat_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> Mat:
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


def mat_combination(coeffs: Sequence[Fraction], mats: Sequence[Mat]) -> Mat:
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

    def reduce(self, v: Sequence[Fraction]) -> Vec:
        """Return v minus its projection onto the span (echelon residual)."""
        v = list(v)
        for row, p in zip(self.rows, self.pivots):
            if v[p]:
                c = v[p]
                for j in range(p, self.width):
                    if row[j]:
                        v[j] -= c * row[j]
        return v

    def add(self, v: Sequence[Fraction]) -> bool:
        """Add v to the span; True if it increased the rank."""
        r = self.reduce(v)
        p = next((j for j in range(self.width) if r[j]), None)
        if p is None:
            return False
        inv = ONE / r[p]
        r = [c * inv for c in r]
        for row in self.rows:
            if row[p]:
                c = row[p]
                for j in range(p, self.width):
                    if r[j]:
                        row[j] -= c * r[j]
        k = next((i for i, q in enumerate(self.pivots) if q > p), len(self.pivots))
        self.rows.insert(k, r)
        self.pivots.insert(k, p)
        return True

    def contains(self, v: Sequence[Fraction]) -> bool:
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

    def project(self, v: Sequence[Fraction]) -> Vec:
        r = self.sub.reduce(v)
        return [r[j] for j in self.coords]

    def section(self, q: Sequence[Fraction]) -> Vec:
        v = zeros(self.width)
        for j, c in zip(self.coords, q, strict=True):
            v[j] = c
        return v
