"""Every scalar the engine produces is exact: an int or a Fraction.

Integral scalars are plain ints and true division goes through
linalg.div, because int / int is a float.  A float that leaked in would
compare equal to the exact value almost everywhere, so these tests look
at the types themselves, in the results of each layer that computes.
"""

import ast
import pathlib
import random
from fractions import Fraction
from itertools import product as iproduct

import pytest

import bnc_engine
from bnc_engine.algebra import AlgebraElement
from bnc_engine.cumulants import AlgebraMomentContext, cumulant_table, moment_table
from bnc_engine.ffb import embed_ffb_family
from bnc_engine.fixtures import (
    family_diag2,
    sample_side_element,
    scalar_module,
    space_diag2,
    space_m2_scalar,
    system_doubled_m2,
)
from bnc_engine.freeprod import (
    FreeMomentContext,
    lr_decompose,
    module_operator,
    reduced_free_product,
)
from bnc_engine.linalg import div, frac
from bnc_engine.partitions import ChiMap, EpsilonMap, build_context, lr_replacement


def scalars(obj):
    """The scalars in a result: coefficients of algebra elements, and the
    values (not the keys) of dicts, lists and tuples, recursively."""
    if isinstance(obj, AlgebraElement):
        yield from obj.coeffs
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from scalars(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            yield from scalars(v)
    else:
        yield obj


def assert_exact(obj):
    values = list(scalars(obj))
    assert values
    bad = {type(v).__name__ for v in values if type(v) not in (int, Fraction)}
    assert not bad, f"inexact scalar types {sorted(bad)}"


def test_frac_and_div_keep_integral_values_as_ints():
    assert [type(frac(x)) for x in (3, Fraction(6, 2), "4", True)] == [int] * 4
    assert frac("1/2") == Fraction(1, 2) and type(frac(Fraction(1, 2))) is Fraction
    assert type(div(6, 3)) is int and div(6, 3) == 2
    assert div(1, 2) == Fraction(1, 2) and div(Fraction(1, 2), Fraction(1, 4)) == 2
    assert type(div(Fraction(1, 2), Fraction(1, 4))) is int
    assert_exact([frac(3), div(1, 3), div(-4, 2)])
    with pytest.raises(AssertionError):
        assert_exact([0.5])
    with pytest.raises(AssertionError):
        assert_exact([True])


@pytest.mark.parametrize("space", [space_m2_scalar, space_diag2])
def test_cumulant_tables_are_exact(space):
    sp = space()
    rng = random.Random(5)
    for sides in ("lrl", "llrr"):
        ctx = build_context(ChiMap.parse(sides))
        Z = [sample_side_element(sp, s, rng) for s in sides]
        mf = AlgebraMomentContext(sp)
        assert_exact(moment_table(ctx, Z, mf))
        assert_exact(cumulant_table(ctx, Z, mf))


def diag2_system():
    return embed_ffb_family(family_diag2(), 3)


def test_diag2_word_spaces_are_exact():
    """Row bases and word-space maps of the diag2 free product at depth
    3: the module built from the space, its double and every quotient
    word space, with a vector carried through them."""
    DIAG2 = diag2_system()
    fp = DIAG2.fp
    quotients = [ws.quotient for ws in map(fp.space, fp.sequences()) if ws.quotient]
    assert quotients
    for q in quotients:
        assert_exact(q.sub.rows)
        assert_exact(q.section(q.project(dict(enumerate(range(q.width))))))
    for mod in (DIAG2.module, DIAG2.doubled):
        assert_exact([mod.left_action, mod.right_action])
    assert_exact(DIAG2.theta._basis)
    shift = DIAG2.dprime[1][0].module_op
    vec = fp.rho_apply(shift, 2, fp.lambda_apply(shift, 1, fp.unit()))
    vec = fp.lambda_apply(shift, 2, vec)
    assert (2, 1, 2) in vec
    assert_exact(vec)


def test_lr_decompose_vectors_are_exact():
    rng = random.Random(3)
    mods = {1: scalar_module(2), 2: scalar_module(3)}
    fp = reduced_free_product(mods, 4)
    results = []
    for _ in range(6):
        ops = []
        for _ in range(4):
            k = rng.choice((1, 2))
            d = mods[k].dim
            m = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            ops.append((rng.choice("lr"), k, module_operator(mods[k], m)))
        dec = lr_decompose(ops, fp, projected_positions=(1, 3))
        terms = [(c, v) for _, c, v in dec.contributions + dec.residual]
        results.append([dec.direct, dec.primed, terms])
    assert_exact(results)


def _trie_vectors(node):
    yield node.vec
    for child in (node.children or {}).values():
        yield from _trie_vectors(child)


@pytest.mark.parametrize(
    "make", [diag2_system, lambda: system_doubled_m2(4)], ids=["diag2", "doubled-m2"]
)
def test_audit_moment_tables_are_exact(make):
    """The moment table audit_ffb_word sums, on the free product, and
    every vector the moment context's suffix trie keeps."""
    system = make()
    mf = FreeMomentContext(system.fp)
    shape = ("l", "b", "r")
    fctx = lr_replacement(ChiMap(shape, three_letter=True))
    ctx = build_context(fctx.chi)
    for eps_hat in iproduct(system.colours(), repeat=len(shape)):
        Z = [
            system.faces_l[eps_hat[0]][0].chain,
            system.cprime[eps_hat[1]][0].chain,
            system.dprime[eps_hat[1]][0].chain,
            system.faces_r[eps_hat[2]][0].chain,
        ]
        assert fctx.expand_colours(EpsilonMap(eps_hat)).n == len(Z)
        assert_exact(moment_table(ctx, Z, mf))
    assert_exact(list(_trie_vectors(mf._root)))


def _divisions(tree: ast.AST):
    """Line numbers of every / and /= in a module."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno


def test_true_division_only_in_linalg_div():
    """int / int is a float, so scalars divide only through linalg.div.
    render.py lays out drawings in float coordinates and is exempt."""
    src = pathlib.Path(bnc_engine.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "render.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        if path.name == "linalg.py":
            (fn,) = [
                n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "div"
            ]
            allowed = set(_divisions(fn))
            assert allowed, "linalg.div no longer divides"
        found += [f"{path.name}:{line}" for line in _divisions(tree) if line not in allowed]
    assert not found, f"true division outside linalg.div: {found}"
