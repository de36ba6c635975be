"""Built-in desk-scale spaces, families, and systems.

Every verification entry point runs against these without user data:
scalars, the diagonal pair inside 2x2 matrices, the 2x2 matrix algebra
with its corner expectation, the two-dimensional nilpotent extension,
and the doubled-module systems built over them (doubled-diag2 is the
one over a base algebra other than the scalars, B = D2).
"""

from __future__ import annotations

import random
from dataclasses import replace

from .algebra import (
    AlgebraElement,
    BBProbSpace,
    algebra_diagonal,
    algebra_dual_numbers,
    algebra_from_matrix_units,
    algebra_scalars,
)
from .bimodule import BimoduleWithProjection
from .errors import InputError
from .ffb import FfbFamily, FfbSystem, embed_ffb_family
from .linalg import ONE, ZERO, identity

SCALARS = algebra_scalars()


def scalar_module(osc: int) -> BimoduleWithProjection:
    """Module over SCALARS with an osc-dimensional complement; B acts by
    the identity on both sides.  Modules built here share their base
    algebra, so any of them combine in one free product."""
    dim = 1 + osc
    ident = tuple(map(tuple, identity(dim)))
    return BimoduleWithProjection(SCALARS, dim, (ident,), (ident,))


def space_scalar() -> BBProbSpace:
    B = algebra_scalars()
    return BBProbSpace(B, B, ((ONE,),), ((ONE,),), ((ONE,),))


def space_m2_scalar() -> BBProbSpace:
    """Full 2x2 matrices over scalars; expectation reads the corner."""
    A = algebra_from_matrix_units(2)
    B = algebra_scalars()
    expectation = ((ONE, ZERO, ZERO, ZERO),)
    embed = tuple((c,) for c in (ONE, ZERO, ZERO, ONE))
    return BBProbSpace(A, B, expectation, embed, embed)


def space_diag2() -> BBProbSpace:
    """2x2 matrices over their diagonal subalgebra."""
    A = algebra_from_matrix_units(2)
    B = algebra_diagonal(2)
    expectation = (
        (ONE, ZERO, ZERO, ZERO),
        (ZERO, ZERO, ZERO, ONE),
    )
    embed = (
        (ONE, ZERO),
        (ZERO, ZERO),
        (ZERO, ZERO),
        (ZERO, ONE),
    )
    return BBProbSpace(A, B, expectation, embed, embed)


def space_diag2_bad_expectation() -> BBProbSpace:
    """Deliberately broken: space_diag2 with an expectation that pads the
    strictly upper corner across B."""
    bad = ((ZERO, ONE, ZERO, ZERO),) * 2
    return replace(space_diag2(), expectation=bad)


def space_dual() -> BBProbSpace:
    """Two-dimensional nilpotent extension of the scalars."""
    A = algebra_dual_numbers()
    B = algebra_scalars()
    return BBProbSpace(A, B, ((ONE, ZERO),), ((ONE,), (ZERO,)), ((ONE,), (ZERO,)))


def family_m2(rich: bool = False) -> FfbFamily:
    sp = space_m2_scalar()
    A = sp.A
    e12 = A.basis_element(1)
    e21 = A.basis_element(2)
    e11 = A.basis_element(0)
    flip = e12 + e21
    corner = e11 + e12
    faces = {}
    for k in (1, 2):
        if rich:
            faces[k] = {"l": [flip, e12], "r": [flip, e21], "b": [corner, e11]}
        else:
            faces[k] = {"l": [flip], "r": [flip], "b": [corner]}
    return FfbFamily(sp, faces)


def family_dual() -> FfbFamily:
    sp = space_dual()
    u = sp.A.element((ONE, ONE))  # 1 + x
    faces = {k: {"l": [u], "r": [u], "b": [u]} for k in (1, 2)}
    return FfbFamily(sp, faces)


def family_diag2() -> FfbFamily:
    """Diagonal faces over B = D2: l = e11 + 2 e22, r = 3 e11 + e22,
    b = e11 and e22."""
    sp = space_diag2()
    e11, e22 = sp.A.basis_element(0), sp.A.basis_element(3)
    faces = {
        k: {"l": [e11 + e22.scale(2)], "r": [e11.scale(3) + e22], "b": [e11, e22]}
        for k in (1, 2)
    }
    return FfbFamily(sp, faces)


def system_doubled_m2(depth: int) -> FfbSystem:
    return embed_ffb_family(family_m2(), depth)


def system_doubled_dual(depth: int) -> FfbSystem:
    return embed_ffb_family(family_dual(), depth)


def system_doubled_diag2(depth: int) -> FfbSystem:
    """family_diag2 in the doubled-module free product over B = D2."""
    return embed_ffb_family(family_diag2(), depth)


SPACES = {
    "scalar": space_scalar,
    "diag2": space_diag2,
    "diag2-bad": space_diag2_bad_expectation,  # negative-control fixture
    "m2-scalar": space_m2_scalar,
    "dual": space_dual,
}

SYSTEMS = {
    "doubled-m2": system_doubled_m2,
    "doubled-dual": system_doubled_dual,
    "doubled-diag2": system_doubled_diag2,
}


def load_space(name: str) -> BBProbSpace:
    if name not in SPACES:
        raise InputError(f"unknown space fixture {name!r}; have {sorted(SPACES)}")
    return SPACES[name]()


def load_system(name: str, depth: int) -> FfbSystem:
    if name not in SYSTEMS:
        raise InputError(f"unknown system fixture {name!r}; have {sorted(SYSTEMS)}")
    return SYSTEMS[name](depth)


def sample_side_element(
    space: BBProbSpace, side: str, rng: random.Random
) -> AlgebraElement:
    """Random element of the requested one-sided commutant."""
    A = space.A
    basis = [
        e
        for e in map(A.basis_element, range(A.dim))
        if space.commutant_failure(e, side) is None
    ]
    if not basis:
        raise ValueError("no basis elements lie in the requested commutant")
    out = basis[0].scale(rng.randint(-3, 3))
    for e in basis[1:]:
        out = out + e.scale(rng.randint(-3, 3))
    return out
