"""Finite-dimensional unital algebras over exact rationals.

A StructuredAlgebra is given by a basis and structure constants; a
BBProbSpace bundles an ambient algebra with a base algebra B, an
expectation onto B, and commuting left/right embeddings of B.  All
arithmetic is exact; axiom checks report witnesses instead of raising.

Products, expectations and B insertions are bilinear maps, each held
as one linalg Kernel per first basis element (column j of kernel i the
image of (e_i, e_j)) and applied by linalg.combine.  A
StructuredAlgebra's kernels are its structure constants.  A BBProbSpace
builds four more tuples on first use, at most dim(A)²·dim(B) entries
each: the form (y, x) ↦ E(y·x), so that a word's expectation multiplies
out every element but the last and closes with the form, and per B
basis element b_i the three insertion maps, one per collapse kind of
bimult: x ↦ x·L_bi, x ↦ L_bi·x and x ↦ R_bi·x.  So insert(kind, b, x),
a B value b inserted into x, is Σ b_i·map_i(x) over that kind's maps,
with no embedded element and no full product.  Every axiom check that
searches basis tuples names the first failing one, in loop order, by
one first_counterexample.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product as iproduct
from typing import Optional, Sequence

from .bimult import APPEND_LEFT, PREPEND_LEFT, PREPEND_RIGHT
from .errors import InputError
from .linalg import (
    ONE,
    Scalar,
    Vec,
    ZERO,
    RowSpace,
    combine,
    frac,
    kernel,
    mat_vec,
    sparse,
    unit_vec,
    zeros,
)


class MismatchedAlgebra(InputError):
    """Operands belong to different algebras."""


class SideMismatch(InputError):
    """Element fails the commutant test for its assigned side."""


@dataclass(frozen=True)
class StructuredAlgebra:
    """Unital algebra with designated basis and rational structure constants.

    mult[i][j] is the coefficient vector of e_i * e_j; unit is the
    coefficient vector of the identity.  terms[i] is the Kernel of
    x ↦ e_i * x, its column j the nonzero entries of mult[i][j], built
    once.
    """

    dim: int
    labels: tuple[str, ...]
    mult: tuple[tuple[tuple[Scalar, ...], ...], ...]
    unit: tuple[Scalar, ...]
    terms: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.labels) != self.dim or len(self.unit) != self.dim:
            raise ValueError("label/unit length must equal dim")
        object.__setattr__(self, "terms", tuple(map(kernel, self.mult)))

    def element(self, coeffs) -> "AlgebraElement":
        coeffs = [frac(c) for c in coeffs]
        if len(coeffs) != self.dim:
            raise MismatchedAlgebra("coefficient vector has wrong length")
        return AlgebraElement(self, tuple(coeffs))

    def basis_element(self, i: int) -> "AlgebraElement":
        return AlgebraElement(self, tuple(unit_vec(self.dim, i)))

    def one(self) -> "AlgebraElement":
        return AlgebraElement(self, self.unit)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(self, tuple(zeros(self.dim)))

    def mul_coeffs(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vec:
        return combine(x, self.terms, y, self.dim)

    def associativity_defect(self) -> Optional[tuple[int, int, int]]:
        """First basis triple where (e_i e_j) e_k != e_i (e_j e_k), or None."""
        e, m = [unit_vec(self.dim, k) for k in range(self.dim)], self.mult

        def fails(i, j, k):
            return self.mul_coeffs(m[i][j], e[k]) != self.mul_coeffs(e[i], m[j][k])

        return first_counterexample(iproduct(range(self.dim), repeat=3), fails)


def first_counterexample(cases, fails):
    """The first of the case tuples, in order, on whose entries fails
    holds, or None."""
    return next((case for case in cases if fails(*case)), None)


def algebra_from_matrix_units(n: int) -> StructuredAlgebra:
    """Full n x n matrix algebra with matrix-unit basis E_{ab} (row-major)."""
    dim = n * n
    labels = tuple(f"E{a + 1}{b + 1}" for a in range(n) for b in range(n))

    def idx(a, b):
        return a * n + b

    mult = []
    for a in range(n):
        for b in range(n):
            row_i = []
            for c in range(n):
                for d in range(n):
                    v = zeros(dim)
                    if b == c:
                        v[idx(a, d)] = ONE
                    row_i.append(tuple(v))
            mult.append(tuple(row_i))
    unit = zeros(dim)
    for a in range(n):
        unit[idx(a, a)] = ONE
    return StructuredAlgebra(dim, labels, tuple(mult), tuple(unit))


def algebra_scalars() -> StructuredAlgebra:
    """B = rationals."""
    return StructuredAlgebra(1, ("1",), (((ONE,),),), (ONE,))


def algebra_diagonal(n: int) -> StructuredAlgebra:
    """Diagonal n x n matrices: orthogonal idempotents d_1..d_n."""
    labels = tuple(f"d{i + 1}" for i in range(n))
    mult = tuple(
        tuple(
            tuple((ONE if (i == j == k) else ZERO) for k in range(n))
            for j in range(n)
        )
        for i in range(n)
    )
    return StructuredAlgebra(n, labels, mult, tuple([ONE] * n))


def algebra_dual_numbers() -> StructuredAlgebra:
    """Two-dimensional algebra 1, x with x^2 = 0."""
    one = (ONE, ZERO)
    x = (ZERO, ONE)
    zero = (ZERO, ZERO)
    mult = ((one, x), (x, zero))
    return StructuredAlgebra(2, ("1", "x"), mult, one)


@dataclass(frozen=True)
class AlgebraElement:
    parent: StructuredAlgebra
    coeffs: tuple[Scalar, ...]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.parent, tuple(a + b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.parent, tuple(a - b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.parent, tuple(-a for a in self.coeffs))

    def scale(self, c) -> "AlgebraElement":
        c = frac(c)
        return AlgebraElement(self.parent, tuple(c * a for a in self.coeffs))

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._check(other)
        return AlgebraElement(
            self.parent, tuple(self.parent.mul_coeffs(self.coeffs, other.coeffs))
        )

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def _check(self, other: "AlgebraElement"):
        if self.parent is not other.parent:
            raise MismatchedAlgebra("elements live in different algebras")

    def __str__(self):
        terms = [
            f"{c}*{lbl}"
            for c, lbl in zip(self.coeffs, self.parent.labels)
            if c
        ]
        return " + ".join(terms) if terms else "0"


def product(elements) -> AlgebraElement:
    """Ordered product; empty product is disallowed (no parent to infer)."""
    elements = list(elements)
    if not elements:
        raise ValueError("empty product")
    out = elements[0]
    for e in elements[1:]:
        out = out * e
    return out


@dataclass(frozen=True)
class BBProbSpace:
    """Ambient algebra A with expectation onto B and B (x) B^op embedding.

    expectation: dim(B) x dim(A) matrix.  left_embed/right_embed:
    dim(A) x dim(B) matrices whose columns are images of B basis
    elements (L_b and R_b).  Their shapes are checked once here, so the
    maps build their exact images directly.  The kernels that
    expect_word and insert read are built on first use and kept for the
    life of the space.
    """

    A: StructuredAlgebra
    B: StructuredAlgebra
    expectation: tuple[tuple[Scalar, ...], ...]
    left_embed: tuple[tuple[Scalar, ...], ...]
    right_embed: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self):
        a, b = self.A.dim, self.B.dim
        for name, rows, cols in (
            ("expectation", b, a),
            ("left_embed", a, b),
            ("right_embed", a, b),
        ):
            m = getattr(self, name)
            if len(m) != rows or any(len(row) != cols for row in m):
                raise MismatchedAlgebra(f"{name} must be {rows} x {cols}")

    def expect(self, x: AlgebraElement) -> AlgebraElement:
        if x.parent is not self.A:
            raise MismatchedAlgebra("element does not live in the ambient algebra")
        return AlgebraElement(self.B, tuple(mat_vec(self.expectation, x.coeffs)))

    def embed_left(self, b: AlgebraElement) -> AlgebraElement:
        if b.parent is not self.B:
            raise MismatchedAlgebra("expected an element of B")
        return AlgebraElement(self.A, tuple(mat_vec(self.left_embed, b.coeffs)))

    def embed_right(self, b: AlgebraElement) -> AlgebraElement:
        if b.parent is not self.B:
            raise MismatchedAlgebra("expected an element of B")
        return AlgebraElement(self.A, tuple(mat_vec(self.right_embed, b.coeffs)))

    @cached_property
    def _form(self) -> tuple:
        """The form (y, x) ↦ E(y·x): column j of kernel i holds the
        nonzero B coefficients of E(e_i·e_j)."""
        E = self.expectation
        return tuple(kernel(mat_vec(E, eij) for eij in mi) for mi in self.A.mult)

    @cached_property
    def _insertions(self) -> tuple:
        """The insertion kernels indexed by collapse kind.  The kernel of
        a kind holds, per B basis element b_i with M_i its image L_bi or
        R_bi, the map x ↦ x·M_i (APPEND_LEFT) or M_i·x (the prepends):
        column j of kernel i holds the nonzero coefficients of the image
        of e_j."""
        A = self.A
        basis = [unit_vec(A.dim, j) for j in range(A.dim)]
        maps = {
            APPEND_LEFT: (self.left_embed, True),
            PREPEND_LEFT: (self.left_embed, False),
            PREPEND_RIGHT: (self.right_embed, False),
        }
        return tuple(
            tuple(
                kernel(
                    A.mul_coeffs(e, m) if after else A.mul_coeffs(m, e) for e in basis
                )
                for m in zip(*embed)
            )
            for embed, after in map(maps.get, sorted(maps))
        )

    def insert(self, kind: int, b: AlgebraElement, x: AlgebraElement):
        """x after taking the B value b by the collapse kind: x·L_b, L_b·x
        or R_b·x, read off that kind's insertion kernel."""
        if b.parent is not self.B or x.parent is not self.A:
            raise MismatchedAlgebra("expected an element of B and one of A")
        kernels = self._insertions[kind]
        return AlgebraElement(
            self.A, tuple(combine(b.coeffs, kernels, x.coeffs, self.A.dim))
        )

    def commutant_failure(self, x: AlgebraElement, side: str) -> Optional[int]:
        """The first B basis index i where x fails the side's commutant
        test, x·R_bi = R_bi·x for side 'l' and x·L_bi = L_bi·x for 'r';
        None when x passes for every i."""
        embed = self.embed_right if side == "l" else self.embed_left
        for i in range(self.B.dim):
            other = embed(self.B.basis_element(i))
            if (x * other).coeffs != (other * x).coeffs:
                return i
        return None

    def expect_word(self, elements) -> AlgebraElement:
        """E of the ordered product, 1 for the empty word: every element
        but the last multiplied out, then E(y·x) read off the form."""
        elements = list(elements)
        if not elements:
            return self.B.one()
        A = self.A
        for e in elements:
            if e.parent is not A:
                raise MismatchedAlgebra("element does not live in the ambient algebra")
        if len(elements) == 1:
            return self.expect(elements[0])
        y = elements[0].coeffs
        for e in elements[1:-1]:
            y = A.mul_coeffs(y, e.coeffs)
        return AlgebraElement(
            self.B, tuple(combine(y, self._form, elements[-1].coeffs, self.B.dim))
        )


@dataclass
class CheckReport:
    """Named pass/fail claims, with a witness on each failure."""

    claims: list[dict] = field(default_factory=list)

    def record(self, claim_id: str, ok: bool, witness=None):
        entry = {"id": claim_id, "status": "pass" if ok else "fail"}
        if not ok and witness is not None:
            entry["witness"] = witness
        self.claims.append(entry)

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.claims)

    def to_json(self) -> dict:
        return {"claims": self.claims, "ok": self.ok}


def check_bb_axioms(space: BBProbSpace) -> CheckReport:
    """Verify the compatibility axioms of (A, E, embeddings); pure report."""
    rep = CheckReport()
    A, B = space.A, space.B
    bdim, adim = B.dim, A.dim

    defect = A.associativity_defect()
    rep.record("A-associative", defect is None, witness=defect)
    defect = B.associativity_defect()
    rep.record("B-associative", defect is None, witness=defect)

    lrank = RowSpace(adim)
    for col in zip(*space.left_embed):
        lrank.add(sparse(col))
    rep.record("left-embed-injective", lrank.rank == bdim)
    rrank = RowSpace(adim)
    for col in zip(*space.right_embed):
        rrank.add(sparse(col))
    rep.record("right-embed-injective", rrank.rank == bdim)

    one_b = B.one()
    ok = space.embed_left(one_b).coeffs == A.unit and (
        space.embed_right(one_b).coeffs == A.unit
    )
    rep.record("embeds-unital", ok)

    b, e = B.basis_element, A.basis_element
    L = [space.embed_left(b(i)) for i in range(bdim)]
    R = [space.embed_right(b(i)) for i in range(bdim)]
    pairs = list(iproduct(range(bdim), repeat=2))

    def multiplicative_fails(side, i, j):
        if side == "left":
            return space.embed_left(b(i) * b(j)).coeffs != (L[i] * L[j]).coeffs
        # the right embedding reverses products
        return space.embed_right(b(i) * b(j)).coeffs != (R[j] * R[i]).coeffs

    cases = ((side, i, j) for i, j in pairs for side in ("left", "right"))
    wit = first_counterexample(cases, multiplicative_fails)
    rep.record("embeds-multiplicative", wit is None, witness=wit)

    wit = first_counterexample(
        pairs, lambda i, j: (L[i] * R[j]).coeffs != (R[j] * L[i]).coeffs
    )
    rep.record("left-right-commute", wit is None, witness=wit)

    ok = space.expect(A.one()).coeffs == B.unit
    rep.record("expectation-unital", ok)

    def bimodular_fails(i, j, t):
        lhs = space.expect(L[i] * R[j] * e(t))
        return lhs.coeffs != (b(i) * space.expect(e(t)) * b(j)).coeffs

    cases = iproduct(range(bdim), range(bdim), range(adim))
    wit = first_counterexample(cases, bimodular_fails)
    rep.record("expectation-bimodular", wit is None, witness=wit)

    def balance_fails(t, i):
        return space.expect(e(t) * L[i]).coeffs != space.expect(e(t) * R[i]).coeffs

    wit = first_counterexample(iproduct(range(adim), range(bdim)), balance_fails)
    rep.record("expectation-left-right-balance", wit is None, witness=wit)
    return rep
