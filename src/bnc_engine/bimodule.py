"""Bimodules with a designated base-algebra summand and their operators.

Module coordinates always start with the base-algebra block: a module of
dimension d over B stores B's coefficients in coordinates 0..dim(B)-1
and the complement in the rest, so the projection onto B is coordinate
truncation.  That layout is known here and, for the free product's word
legs, in freeprod, which reads a module only through its dimensions and
its kernels.  A module keeps one linalg Kernel per B basis action and
side (left_kernels, right_kernels), and a ModuleOperator keeps its own
(columns), whose complement columns hold its complement block and its
complement-to-base rows; each is built once, on first use.  The
commutant check of a ModuleOperator compares T·K with K·T column by
column through those kernels, so no dense product is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .algebra import AlgebraElement, BBProbSpace, SideMismatch, StructuredAlgebra
from .linalg import (
    Kernel,
    Mat,
    ONE,
    Quotient,
    RowSpace,
    Scalar,
    Vec,
    ZERO,
    block_matrix,
    combine,
    frac,
    kernel,
    mat_combination,
    nullspace,
    sparse,
    zeros,
)


@dataclass
class BimoduleWithProjection:
    """B-B-bimodule whose first dim(B) coordinates are the B summand.  Its
    action kernels are built from the actions on first use and kept."""

    B: StructuredAlgebra
    dim: int
    left_action: tuple[Mat, ...]  # per B basis element
    right_action: tuple[Mat, ...]

    @property
    def osc_dim(self) -> int:
        return self.dim - self.B.dim

    def unit_vector(self) -> Vec:
        return list(self.B.unit) + zeros(self.osc_dim)

    def osc_left(self, i: int) -> Mat:
        d = self.B.dim
        return [row[d:] for row in self.left_action[i][d:]]

    def osc_right(self, i: int) -> Mat:
        d = self.B.dim
        return [row[d:] for row in self.right_action[i][d:]]

    @cached_property
    def left_kernels(self) -> tuple[Kernel, ...]:
        """The left action of each B basis element as a Kernel."""
        return tuple(kernel(zip(*m)) for m in self.left_action)

    @cached_property
    def right_kernels(self) -> tuple[Kernel, ...]:
        """The right action of each B basis element as a Kernel."""
        return tuple(kernel(zip(*m)) for m in self.right_action)


@dataclass(frozen=True)
class ModuleOperator:
    """A matrix on a module.  It keeps its sparse columns (columns) and
    its image of the unit, each built on first use; column dim(B) + c is
    where it sends complement coordinate c, its rows below dim(B) the
    base part, the others the complement block."""

    mod: BimoduleWithProjection
    matrix: tuple[tuple[Scalar, ...], ...]

    @cached_property
    def columns(self) -> Kernel:
        return kernel(zip(*self.matrix))

    def apply(self, vec: Sequence[Scalar]) -> Vec:
        """The operator on a module vector, or on the vector of B
        coefficients vec embedded in the B summand."""
        return combine((ONE,), (self.columns,), vec, self.mod.dim)

    @cached_property
    def unit_image(self) -> Vec:
        """The operator on the module's unit, computed once; callers must
        not mutate it."""
        return self.apply(self.mod.unit_vector())

    def commutes_with_side(self, side: str) -> bool:
        """'l' operators commute with right actions, 'r' with left ones:
        T·(K e_c) = K·(T e_c) for each B basis action K and column c, both
        read through sparse columns (columns and the module's kernels)."""
        cols = self.columns
        kers = self.mod.right_kernels if side == "l" else self.mod.left_kernels
        for ker in kers:
            for k_c, t_c in zip(ker, cols):
                diff: dict[int, Scalar] = {}
                for r, v in k_c:
                    for s, x in cols[r]:
                        diff[s] = diff.get(s, ZERO) + v * x
                for r, v in t_c:
                    for s, x in ker[r]:
                        diff[s] = diff.get(s, ZERO) - v * x
                if any(diff.values()):
                    return False
        return True


def module_operator(mod, matrix, side=None) -> ModuleOperator:
    """matrix on mod; with a side, refused outside that side's commutant."""
    op = ModuleOperator(mod, tuple(tuple(map(frac, r)) for r in matrix))
    if side is not None and not op.commutes_with_side(side):
        raise SideMismatch(f"operator does not satisfy the side-{side} commutant")
    return op


class Theta:
    """Representation of an algebra on its associated module."""

    def __init__(self, mod: BimoduleWithProjection, basis_mats):
        self.mod = mod
        self._basis = basis_mats

    def matrix(self, elem: AlgebraElement) -> Mat:
        return mat_combination(elem.coeffs, self._basis)

    def operator(self, elem: AlgebraElement, side=None) -> ModuleOperator:
        return module_operator(self.mod, self.matrix(elem), side)


def build_bimodule_from_space(space: BBProbSpace):
    """Quotient model of the space acting on itself.

    The module is B plus the kernel of the expectation modulo the span
    of T L_b - T R_b; the representation sends T to the operator acting
    by multiplication followed by the quotient map.
    """
    A, B = space.A, space.B
    ker_rows, free = nullspace([list(r) for r in space.expectation], A.dim)

    def ker_coords(elem: AlgebraElement) -> Vec | None:
        """Coordinates over ker_rows, or None outside the kernel of E."""
        if not space.expect(elem).is_zero():
            return None
        return [elem.coeffs[f] for f in free]

    rel = RowSpace(len(ker_rows))
    for t in range(A.dim):
        et = A.basis_element(t)
        for i in range(B.dim):
            bi = B.basis_element(i)
            d = et * space.embed_left(bi) - et * space.embed_right(bi)
            coords = ker_coords(d)
            if coords is None:
                raise ValueError("difference element escapes the kernel")
            rel.add(sparse(coords))
    quotient = Quotient(rel)
    osc = quotient.dim
    dim = B.dim + osc

    def q_of(elem: AlgebraElement) -> Vec:
        coords = ker_coords(elem)
        if coords is None:
            raise ValueError("element not in the expectation kernel")
        proj = quotient.project(sparse(coords))
        return [proj.get(q, ZERO) for q in range(osc)]

    def column(T: AlgebraElement, x: AlgebraElement) -> Vec:
        tx = T * x
        e = space.expect(tx)
        rest = tx - space.embed_left(e)
        return list(e.coeffs) + q_of(rest)

    # quotient coordinate j lifts to kernel vector quotient.coords[j]
    sections = [A.element(ker_rows[j]) for j in quotient.coords]

    basis_mats = []
    for t in range(A.dim):
        et = A.basis_element(t)
        cols = [column(et, space.embed_left(B.basis_element(i))) for i in range(B.dim)]
        cols += [column(et, sec) for sec in sections]
        basis_mats.append([[cols[c][r] for c in range(dim)] for r in range(dim)])

    def action(embed) -> tuple[Mat, ...]:
        return tuple(
            tuple(tuple(row) for row in mat_combination(embed(b).coeffs, basis_mats))
            for b in map(B.basis_element, range(B.dim))
        )

    mod = BimoduleWithProjection(
        B, dim, action(space.embed_left), action(space.embed_right)
    )
    theta = Theta(mod, [tuple(tuple(r) for r in m) for m in basis_mats])
    return mod, theta


def doubled_bimodule(x: BimoduleWithProjection) -> BimoduleWithProjection:
    """Direct sum of the module with itself; only the first copy's base
    block stays designated, so the complement grows by a full copy."""
    d = x.dim
    # the second copy's coordinates follow the whole first copy, so the
    # base block stays at the front
    left, right = (
        tuple(tuple(map(tuple, block_matrix(d, {(0, 0): m, (1, 1): m}))) for m in mats)
        for mats in (x.left_action, x.right_action)
    )
    return BimoduleWithProjection(x.B, 2 * d, left, right)
