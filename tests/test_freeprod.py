import gc
import hashlib
import json
import random
import weakref
from fractions import Fraction
from itertools import product as iproduct

import pytest

from bnc_engine import ffb, freeprod
from bnc_engine.algebra import SideMismatch, algebra_from_matrix_units
from bnc_engine.bimodule import (
    BimoduleWithProjection,
    build_bimodule_from_space,
    doubled_bimodule,
    module_operator,
)
from bnc_engine.bimult import APPEND_LEFT
from bnc_engine.cumulants import audit_ffb_word, bifree_moment_check
from bnc_engine.diagrams import enumerate_lr, lateral_closure, make_diagram
from bnc_engine.ffb import embed_ffb_family
from bnc_engine.fixtures import (
    SCALARS,
    family_diag2,
    sample_side_element,
    scalar_module,
    system_doubled_diag2,
    system_doubled_dual,
    system_doubled_m2,
    space_diag2,
    space_m2_scalar,
    space_scalar,
)
from bnc_engine.freeprod import (
    DepthExceeded,
    FreeMomentContext,
    apply_chain,
    e_d_vector,
    lr_decompose,
    reduced_free_product,
)
from bnc_engine.linalg import (
    ONE,
    ZERO,
    RowSpace,
    identity,
    mat_combination,
    mat_vec,
    nullspace,
)
from bnc_engine.partitions import ChiMap, EpsilonMap, lr_replacement
from oracles import mat_mul, max_top_strings

RNG = random.Random(11)


def rand_op(mod, rng=RNG):
    m = [[Fraction(rng.randint(-2, 2)) for _ in range(mod.dim)] for _ in range(mod.dim)]
    return module_operator(mod, m)


MODS = {1: scalar_module(2), 2: scalar_module(3)}

# Over B = D2 the plain diag2 module's one-sided commutants are diagonal
# and open no legs, so the amalgamated cases use the doubled system's
# module operators: the faces, c' (left-sided) and the two-sided shift d'.
DIAG2 = embed_ffb_family(family_diag2(), 3)
DIAG2_LEFT = [
    h.module_op for h in DIAG2.faces_l[1] + DIAG2.cprime[1] + DIAG2.dprime[1]
]
DIAG2_RIGHT = [h.module_op for h in DIAG2.faces_r[2] + DIAG2.dprime[2]]


def diag2_word_12():
    """A vector in the quotient word space (1, 2) of the DIAG2 product."""
    fp, shift = DIAG2.fp, DIAG2.dprime[1][0].module_op
    ws = fp.space((1, 2))
    assert (ws.plain_dim, ws.dim) == (36, 18)
    vec = fp.rho_apply(shift, 2, fp.lambda_apply(shift, 1, fp.unit()))
    assert (1, 2) in vec
    return vec


def left_matrix(mod, b) -> list:
    return mat_combination(b.coeffs, mod.left_action)


def right_matrix(mod, b) -> list:
    return mat_combination(b.coeffs, mod.right_action)


def module_axioms_hold(mod: BimoduleWithProjection) -> bool:
    """The bimodule axioms on basis elements: unital, multiplicative (the
    right action reversing products) and commuting actions, each preserving
    the B summand and its complement, with B multiplying on its own
    summand."""
    B, d, nb = mod.B, mod.dim, mod.B.dim
    one = B.one()
    if left_matrix(mod, one) != identity(d) or right_matrix(mod, one) != identity(d):
        return False
    for i in range(nb):
        for j in range(nb):
            bi, bj = B.basis_element(i), B.basis_element(j)
            li, lj = mod.left_action[i], mod.left_action[j]
            ri, rj = mod.right_action[i], mod.right_action[j]
            if left_matrix(mod, bi * bj) != mat_mul(li, lj):
                return False
            if right_matrix(mod, bi * bj) != mat_mul(rj, ri):
                return False
            if mat_mul(li, rj) != mat_mul(rj, li):
                return False
    for m in list(mod.left_action) + list(mod.right_action):
        if any(m[r][c] for r in range(nb) for c in range(nb, d)):
            return False
        if any(m[r][c] for r in range(nb, d) for c in range(nb)):
            return False
    for i in range(nb):
        bi = B.basis_element(i)
        lm, rm = left_matrix(mod, bi), right_matrix(mod, bi)
        for j in range(nb):
            bj = B.basis_element(j)
            if tuple(lm[r][j] for r in range(nb)) != (bi * bj).coeffs:
                return False
            if tuple(rm[r][j] for r in range(nb)) != (bj * bi).coeffs:
                return False
    return True


def compose(mod, a, b):
    return module_operator(
        mod, mat_mul([list(r) for r in a.matrix], [list(r) for r in b.matrix])
    )


# --- module construction ----------------------------------------------------

def test_trivial_kernel_gives_base_algebra_module():
    mod, theta = build_bimodule_from_space(space_scalar())
    assert mod.dim == 1 and mod.osc_dim == 0
    assert theta.matrix(space_scalar().A.one()) == [[ONE]]


def test_m2_module_dimensions_and_theta():
    sp = space_m2_scalar()
    mod, theta = build_bimodule_from_space(sp)
    assert mod.dim == 4 and mod.osc_dim == 3
    assert module_axioms_hold(mod)
    for i in range(4):
        for j in range(4):
            ei, ej = sp.A.basis_element(i), sp.A.basis_element(j)
            assert theta.matrix(ei * ej) == mat_mul(
                theta.matrix(ei), theta.matrix(ej)
            )
    for t in range(4):
        T = sp.A.basis_element(t)
        assert tuple(theta.operator(T).unit_image[: sp.B.dim]) == sp.expect(T).coeffs


def test_diag2_module_respects_amalgamation():
    sp = space_diag2()
    mod, theta = build_bimodule_from_space(sp)
    assert module_axioms_hold(mod)
    # theta of the embeddings acts as the module actions
    for i in range(sp.B.dim):
        b = sp.B.basis_element(i)
        assert theta.matrix(sp.embed_left(b)) == [list(r) for r in left_matrix(mod, b)]
        assert theta.matrix(sp.embed_right(b)) == [list(r) for r in right_matrix(mod, b)]


def test_doubled_module():
    mod, _ = build_bimodule_from_space(space_m2_scalar())
    dbl = doubled_bimodule(mod)
    assert dbl.dim == 2 * mod.dim
    assert dbl.osc_dim == mod.osc_dim + mod.dim
    assert module_axioms_hold(dbl)
    second_copy_unit = [ZERO] * mod.dim + list(mod.unit_vector())
    assert not any(second_copy_unit[: dbl.B.dim])


# --- free product ------------------------------------------------------------

def test_alternating_word_basis_count():
    triv = scalar_module(1)
    fp = reduced_free_product({1: triv, 2: triv}, 3)
    dims = {seq: fp.space(seq).dim for seq in fp.sequences()}
    assert dims == {(1,): 1, (2,): 1, (1, 2): 1, (2, 1): 1, (1, 2, 1): 1, (2, 1, 2): 1}
    assert 1 + sum(dims.values()) == 7
    seqs = list(fp.sequences())
    assert len(seqs) == 6 and (2, 1, 2) in seqs
    # the sequences are the alternating ones within the depth; space()
    # refuses every other
    for seq in ((1, 1), (1, 2, 1, 2), (3,), (), [1]):
        assert seq not in seqs
        with pytest.raises((KeyError, TypeError)):
            fp.space(seq)


@pytest.mark.parametrize(
    "make",
    [
        lambda: system_doubled_diag2(4).fp,
        lambda: system_doubled_diag2(5).fp,
        lambda: m2_free_product(5)[0],
    ],
    ids=["diag2-4", "diag2-5", "m2-5"],
)
def test_seeded_word_spaces_equal_the_full_relation_span(make):
    """Each word space starts from its prefix's reduced relations, lifted
    by the new last leg, and adds its last joint's under the non-pivot
    indices of the legs before it; the reduced echelon form of a span is
    unique, so it must equal every joint's relations, under every index,
    row-reduced from scratch."""
    fp = make()
    for seq in fp.sequences():
        ws = fp.space(seq)
        full = RowSpace(ws.plain_dim)
        for leg in range(len(seq) - 1):
            for pair in fp.joint_relations(seq, leg):
                for row in ws.pair_rows(leg, pair):
                    full.add(row)
        assert (ws.quotient.sub.rows if ws.quotient else {}) == full.rows
        assert (ws.quotient is None) == (len(seq) < 2)


def idempotent_blocks(mod):
    """D[i][j] = dim e_i X e_j on the complement, over a diagonal base:
    the idempotents' left and right actions commute, so it is the trace
    of their product."""
    n = mod.B.dim
    return [
        [
            sum(mat_mul(mod.osc_left(i), mod.osc_right(j))[r][r] for r in range(mod.osc_dim))
            for j in range(n)
        ]
        for i in range(n)
    ]


@pytest.mark.parametrize("depth", [5, 6])
def test_word_space_dims_match_the_idempotent_closed_form(depth):
    """Over B = D2 the balanced tensor product splits along idempotents:
    dim X_k1 ⊗_B ... ⊗_B X_kn = 1ᵀ D_k1 ⋯ D_kn 1."""
    system = system_doubled_diag2(depth)
    blocks = idempotent_blocks(system.doubled)  # both colours' module
    words = system.fp.describe()["words"]
    assert len(words) == 2 * depth
    for word, dim in words.items():
        row = [1] * len(blocks)
        for _ in word:
            row = [sum(r * d[j] for r, d in zip(row, blocks)) for j in range(len(blocks))]
        assert dim == sum(row), word


def test_depth_zero_is_base_algebra():
    fp = reduced_free_product({1: scalar_module(2)}, 0)
    assert list(fp.sequences()) == []
    assert fp.p(fp.unit()).coeffs == SCALARS.unit


def test_tensor_legs_with_mismatched_idempotents_vanish():
    from bnc_engine.algebra import algebra_diagonal

    B2 = algebra_diagonal(2)

    def corner(li, ri):
        L, R = [], []
        for i in range(2):
            lm = [[ZERO] * 3 for _ in range(3)]
            rm = [[ZERO] * 3 for _ in range(3)]
            lm[i][i] = ONE
            rm[i][i] = ONE
            lm[2][2] = ONE if i == li else ZERO
            rm[2][2] = ONE if i == ri else ZERO
            L.append(tuple(map(tuple, lm)))
            R.append(tuple(map(tuple, rm)))
        return BimoduleWithProjection(B2, 3, tuple(L), tuple(R))

    fp_ok = reduced_free_product({1: corner(0, 1), 2: corner(1, 0)}, 2)
    assert fp_ok.space((1, 2)).dim == 1
    fp_bad = reduced_free_product({1: corner(0, 1), 2: corner(0, 1)}, 2)
    assert fp_bad.space((1, 2)).dim == 0


def test_lambda_rho_representation_laws():
    fp = reduced_free_product(MODS, 5)
    T1, T2 = rand_op(MODS[1]), rand_op(MODS[1])
    S2 = rand_op(MODS[2])
    base = fp.lambda_apply(T1, 1, fp.rho_apply(S2, 2, fp.unit()))
    T12 = module_operator(
        MODS[1], mat_mul([list(r) for r in T1.matrix], [list(r) for r in T2.matrix])
    )
    assert fp.equal(
        fp.lambda_apply(T12, 1, base),
        fp.lambda_apply(T1, 1, fp.lambda_apply(T2, 1, base)),
    )
    assert fp.equal(
        fp.rho_apply(T12, 1, base),
        fp.rho_apply(T1, 1, fp.rho_apply(T2, 1, base)),
    )
    ident = module_operator(
        MODS[1],
        [[ONE if i == j else ZERO for j in range(4)] for i in range(4)],
    )
    assert fp.equal(fp.lambda_apply(ident, 1, base), base)
    # unit action example: lambda embeds the component unit image
    v = fp.lambda_apply(T1, 1, fp.unit())
    x = mat_vec(T1.matrix, MODS[1].unit_vector())
    assert fp.p(v).coeffs == tuple(x[:1])
    # over B = D2, on the quotient word space (1, 2)
    fp, dbl = DIAG2.fp, DIAG2.doubled
    base = diag2_word_12()
    for apply, ops in ((fp.lambda_apply, DIAG2_LEFT), (fp.rho_apply, DIAG2_RIGHT)):
        for k in (1, 2):
            for A1, A2 in iproduct(ops, repeat=2):
                assert fp.equal(
                    apply(compose(dbl, A1, A2), k, base),
                    apply(A1, k, apply(A2, k, base)),
                )
    ident = module_operator(dbl, identity(dbl.dim))
    assert fp.equal(fp.lambda_apply(ident, 1, base), base)
    assert fp.equal(fp.rho_apply(ident, 2, base), base)


def test_left_right_commutation_across_colours():
    fp = reduced_free_product(MODS, 5)
    a = rand_op(MODS[1])
    b2 = rand_op(MODS[2])
    x = fp.rho_apply(rand_op(MODS[2]), 2, fp.lambda_apply(rand_op(MODS[1]), 1, fp.unit()))
    assert fp.equal(
        fp.lambda_apply(a, 1, fp.rho_apply(b2, 2, x)),
        fp.rho_apply(b2, 2, fp.lambda_apply(a, 1, x)),
    )
    # over B = D2, on the quotient word space (1, 2)
    fp = DIAG2.fp
    x = diag2_word_12()
    for a, b2 in iproduct(DIAG2_LEFT, DIAG2_RIGHT):
        assert fp.equal(
            fp.lambda_apply(a, 1, fp.rho_apply(b2, 2, x)),
            fp.rho_apply(b2, 2, fp.lambda_apply(a, 1, x)),
        )


def test_boolean_projection_facts():
    fp = reduced_free_product(MODS, 5)
    probes = [fp.unit()]
    probes.append(fp.lambda_apply(rand_op(MODS[1]), 1, fp.unit()))
    probes.append(fp.rho_apply(rand_op(MODS[2]), 2, probes[1]))
    probes.append(fp.lambda_apply(rand_op(MODS[2]), 2, probes[2]))
    T = rand_op(MODS[1])
    for v in probes:
        pv = fp.bool_proj(1, v)
        assert fp.equal(fp.bool_proj(1, pv), pv)
        assert fp.equal(
            fp.lambda_apply(T, 1, pv), fp.bool_proj(1, fp.lambda_apply(T, 1, v))
        )
        assert fp.equal(
            fp.rho_apply(T, 1, pv), fp.bool_proj(1, fp.rho_apply(T, 1, v))
        )
        assert fp.equal(fp.lambda_apply(T, 1, pv), fp.rho_apply(T, 1, pv))
        # P_1 P_2 lands in the base algebra
        both = fp.bool_proj(1, fp.bool_proj(2, v))
        assert set(both) <= {()}


def test_depth_guard_raises():
    fp = reduced_free_product(MODS, 1)
    v = fp.lambda_apply(rand_op(MODS[1]), 1, fp.unit())
    with pytest.raises(DepthExceeded):
        fp.lambda_apply(rand_op(MODS[2]), 2, v)


def test_full_depth_word_without_a_new_leg():
    # the colour-2 left face sends the unit into B, so on a full-depth
    # word of colour 1 it only multiplies the first leg: no leg is added
    fp = DIAG2.fp
    op = DIAG2.faces_l[2][0].module_op
    comp = fp.components[2]
    image = op.apply(comp.unit_vector())
    assert not any(image[comp.B.dim :])
    b = comp.B.element(image[: comp.B.dim])
    assert b.coeffs == (1, 2)  # d1 + 2·d2
    seq = (1, 2, 1)
    ws = fp.space(seq)
    assert len(seq) == fp.depth
    v = {seq: {q: Fraction(q + 1) for q in range(ws.dim)}}
    assert fp.equal(fp.lambda_apply(op, 2, v), fp.act(("lb", b), v))


def m2_free_product(depth=3):
    """M2 acting on itself by left and right multiplication, doubled, and
    the free product of two copies: a non-commutative B, so b·x and x·b
    differ, as do the actions on a word's first and last leg."""
    B = algebra_from_matrix_units(2)
    basis = [B.basis_element(i) for i in range(B.dim)]

    def action(mul):
        return tuple(tuple(zip(*(mul(b, y).coeffs for y in basis))) for b in basis)

    mod = BimoduleWithProjection(
        B, B.dim, action(lambda b, y: b * y), action(lambda b, y: y * b)
    )
    assert module_axioms_hold(mod)
    double = doubled_bimodule(mod)
    return reduced_free_product({1: double, 2: double}, depth), basis


def test_b_actions_over_a_noncommutative_base():
    fp, basis = m2_free_product()
    assert {fp.space(seq).dim for seq in fp.sequences()} == {4}
    # the complement of the doubled module is a copy of M2 in its basis
    z = fp.B.element([Fraction(c) for c in (1, 2, 3, 5)])

    def word(*legs):
        return fp.tensor_embed([(k, list(x.coeffs)) for k, x in enumerate(legs, 1)])

    for b, y in iproduct(basis, repeat=2):
        lb, rb = ("lb", b), ("rb", b)
        assert fp.equal(fp.act(lb, fp.embed_b(y)), fp.embed_b(b * y))
        assert fp.equal(fp.act(rb, fp.embed_b(y)), fp.embed_b(y * b))
        assert fp.equal(fp.act(lb, word(y)), word(b * y))
        assert fp.equal(fp.act(rb, word(y)), word(y * b))
        assert fp.equal(fp.act(lb, word(y, z)), word(b * y, z))
        assert fp.equal(fp.act(rb, word(y, z)), word(y, z * b))


def _legs(dims, idx: int) -> tuple:
    """The leg coordinates of a plain index over leg dims, first leg first."""
    legs = []
    for d in reversed(dims):
        idx, leg = divmod(idx, d)
        legs.append(leg)
    return tuple(reversed(legs))


def _plain_index(dims, legs) -> int:
    idx = 0
    for d, leg in zip(dims, legs):
        idx = idx * d + leg
    return idx


def _add(out: dict, seq, legs, c):
    tgt = out.setdefault(seq, {})
    tgt[legs] = tgt.get(legs, ZERO) + c


def act_b(fp, out: dict, seq, legs, b, c, left: bool):
    """b on the edge leg of the word (seq, legs), scaled by c, from the
    dense B action, added to out ({colour sequence: {leg tuple:
    coefficient}}); a word with no legs is the B summand, where b itself
    is added."""
    if not seq:
        for i, v in enumerate(b):
            _add(out, (), (i,), c * v)
        return
    nb = fp.B.dim
    mod = fp.components[seq[0] if left else seq[-1]]
    m = mat_combination(b, mod.left_action if left else mod.right_action)
    at = 0 if left else len(seq) - 1
    for r in range(nb, mod.dim):
        v = m[r][nb + legs[at]]
        if v:
            _add(out, seq, legs[:at] + (r - nb,) + legs[at + 1 :], c * v)


def dense_words(fp, vec):
    """vec's entries as (sequence, leg tuple, B coefficients, coefficient):
    the B summand as one entry with its coefficients, each other word as
    its plain indices' leg tuples."""
    for seq, comp in vec.items():
        if not seq:
            yield (), (), [comp.get(i, ZERO) for i in range(fp.B.dim)], ONE
            continue
        ws = fp.space(seq)
        for idx, c in ws.to_plain(comp).items():
            yield seq, _legs(ws.osc_dims, idx), None, c


def dense_vector(fp, out: dict) -> dict:
    """The free-product vector of {colour sequence: {leg tuple: coefficient}}."""
    vecout = {}
    for seq, entries in out.items():
        if not seq:
            vecout[()] = {legs[0]: v for legs, v in entries.items() if v}
            continue
        ws = fp.space(seq)
        plain = {_plain_index(ws.osc_dims, legs): v for legs, v in entries.items()}
        vecout[seq] = ws.from_plain(plain)
    return {seq: comp for seq, comp in vecout.items() if comp}


def dense_rep_apply(fp, op, k, vec, left: bool):
    """λ_k(op) (left) or ρ_k(op) on vec from dense matrices, word by word
    and leg tuple by leg tuple.  A word whose edge leg has colour k has
    that leg x replaced by op(x): its complement part is the new leg, and
    its B part acts on the rest of the word (through the rest's edge leg
    by the dense B action, or as the B summand when nothing is left).  Any
    other word ξ is read as the unit of module k beside ξ: op's image of
    the unit contributes its complement part as a new edge leg and its B
    part acting on ξ's edge leg."""
    nb = fp.B.dim
    out: dict = {}  # colour sequence -> {leg tuple: coefficient}
    mod_k = fp.components[k]
    for wseq, legs, bvec, c in dense_words(fp, vec):
        if bvec is not None:  # the B summand: op on B's element
            img = mat_vec(op.matrix, bvec + [ZERO] * mod_k.osc_dim)
            act_b(fp, out, (), (), img[:nb], ONE, left)
            rest, rest_legs = (), ()
        elif (wseq[0] if left else wseq[-1]) == k:
            at = 0 if left else len(wseq) - 1
            img = [row[nb + legs[at]] for row in op.matrix]
            rest = wseq[1:] if left else wseq[:-1]
            rest_legs = legs[1:] if left else legs[:-1]
            act_b(fp, out, rest, rest_legs, img[:nb], c, left)
        else:
            img = mat_vec(op.matrix, mod_k.unit_vector())
            act_b(fp, out, wseq, legs, img[:nb], c, left)
            rest, rest_legs = wseq, legs
        for leg, v in enumerate(img[nb:]):
            if v:
                if left:
                    _add(out, (k,) + rest, (leg,) + rest_legs, c * v)
                else:
                    _add(out, rest + (k,), rest_legs + (leg,), c * v)
    return dense_vector(fp, out)


def dense_b_apply(fp, b, vec, left: bool):
    """L_b (left) or R_b on vec from the dense B action: B's elements by
    the product in B, every other word through its edge leg."""
    out: dict = {}
    for seq, legs, bvec, c in dense_words(fp, vec):
        if bvec is not None:
            x = fp.B.element(bvec)
            act_b(fp, out, (), (), (b * x if left else x * b).coeffs, ONE, left)
        else:
            act_b(fp, out, seq, legs, b.coeffs, c, left)
    return dense_vector(fp, out)


DENSE_MODULES = pytest.mark.parametrize(
    "make",
    [
        lambda: doubled_bimodule(build_bimodule_from_space(space_m2_scalar())[0]),
        lambda: build_bimodule_from_space(space_diag2())[0],
        lambda: m2_free_product()[0].components[1],
    ],
    ids=["doubled-m2", "diag2", "doubled-m2-over-m2"],
)


def word_basis(fp, longest: int = 3) -> list:
    """B's basis and every basis vector of W(s) for |s| <= longest."""
    basis = [fp.embed_b(fp.B.basis_element(i)) for i in range(fp.B.dim)]
    for seq in fp.sequences():
        if len(seq) <= longest:
            basis += [{seq: {i: ONE}} for i in range(fp.space(seq).dim)]
    return basis


@DENSE_MODULES
def test_lambda_rho_match_a_dense_oracle_on_word_basis_vectors(make):
    """lambda_apply and rho_apply, which act through cached sparse
    kernels, equal dense_rep_apply on every basis vector of W(s) for
    |s| <= 3 and on B's basis, for seeded operators of both colours."""
    mod = make()
    fp = reduced_free_product({1: mod, 2: mod}, 4)
    rng = random.Random(31)
    ops = [rand_op(mod, rng) for _ in range(2)]
    ops.append(module_operator(mod, identity(mod.dim)))
    basis = word_basis(fp)
    checked = 0
    for vec, op, k, left in iproduct(basis, ops, (1, 2), (True, False)):
        got = (fp.lambda_apply if left else fp.rho_apply)(op, k, vec)
        assert fp.equal(got, dense_rep_apply(fp, op, k, vec, left)), (vec, k, left)
        checked += bool(got)
    assert checked > len(basis)


@DENSE_MODULES
def test_b_actions_and_projections_match_a_dense_oracle_on_word_basis_vectors(make):
    """The atoms ('lb', b), ('rb', b) and ('proj', k, None) equal the dense
    B action (dense_b_apply) and the truncation to W(()) + W((k,)) on
    every basis vector of W(s) for |s| <= 3 and on B's basis, for seeded
    b, B's unit and B's basis elements."""
    mod = make()
    fp = reduced_free_product({1: mod, 2: mod}, 4)
    rng = random.Random(37)
    B = fp.B
    bs = [B.element([rng.randint(-2, 2) for _ in range(B.dim)]) for _ in range(2)]
    bs += [B.one()] + [B.basis_element(i) for i in range(B.dim)]
    basis = word_basis(fp)
    checked = 0
    for vec in basis:
        for b, left in iproduct(bs, (True, False)):
            got = fp.act(("lb" if left else "rb", b), vec)
            assert fp.equal(got, dense_b_apply(fp, b, vec, left)), (vec, b, left)
            checked += bool(got)
        for k in (1, 2):
            want = {seq: dict(c) for seq, c in vec.items() if seq in ((), (k,))}
            assert fp.equal(fp.act(("proj", k, None), vec), want), (vec, k)
    assert checked > len(basis)


def _commutant_basis(mod, side: str) -> list:
    """A basis of the operators on mod in the commutant of side: the
    nullspace of T·M = M·T, M over the other side's actions, as d x d
    matrices."""
    d = mod.dim
    actions = mod.right_action if side == "l" else mod.left_action
    rows = []
    for m in actions:
        for r, c in iproduct(range(d), repeat=2):
            row = [ZERO] * (d * d)
            for k in range(d):
                row[r * d + k] += m[k][c]
                row[k * d + c] -= m[r][k]
            rows.append(row)
    basis, _ = nullspace(rows, d * d)
    return [[v[r * d : (r + 1) * d] for r in range(d)] for v in basis]


@pytest.mark.parametrize("name", ["diag2", "m2-self"])
def test_sparse_commutant_check_matches_the_dense_product(name):
    """commutes_with_side compares T·(K e_c) with K·(T e_c) column by
    column; it agrees with the dense test T·K = K·T over every B basis
    action K of the other side.  Over the doubled diag2 module and the
    doubled M2 acting on itself, on both sides: random operators, random
    commutant elements, and commutant elements with one entry changed;
    each side sees both outcomes."""
    mod = DIAG2.doubled if name == "diag2" else m2_free_product()[0].components[1]
    rng = random.Random(31)
    d = mod.dim
    seen = set()
    for side in "lr":
        actions = mod.right_action if side == "l" else mod.left_action
        basis = _commutant_basis(mod, side)
        for trial in range(24):
            if trial % 3 == 0:
                m = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            else:
                m = mat_combination([rng.randint(-3, 3) for _ in basis], basis)
            if trial % 3 == 2:
                m[rng.randrange(d)][rng.randrange(d)] += rng.choice((-1, 1))
            dense = all(mat_mul(m, k) == mat_mul(k, m) for k in actions)
            assert module_operator(mod, m).commutes_with_side(side) == dense
            seen.add((side, dense))
    assert seen == {(s, v) for s in "lr" for v in (True, False)}


@pytest.mark.parametrize("depth", [4, 5])
def test_bifree_criterion_over_m2_acting_on_itself(depth):
    """The insertion oracle over a non-commutative B.  Over m2_free_product
    a left and a right insertion of one B value differ, so the bi-free
    moment criterion holds only if every collapse inserts its value by
    the right kind, on the right operand.  Operands are random
    combinations of each side's 16-dimensional commutant; 60 seeded
    words of the full depth, sides and colours random."""
    fp, _ = m2_free_product(depth)
    mod = fp.components[1]  # both colours' doubled module
    bases = {side: _commutant_basis(mod, side) for side in "lr"}
    assert [len(bases[s]) for s in "lr"] == [16, 16]
    rng = random.Random(depth)
    mf = FreeMomentContext(fp)
    for _ in range(60):
        sides = tuple(rng.choice("lr") for _ in range(depth))
        colours = tuple(rng.choice((1, 2)) for _ in range(depth))
        Z = []
        for s, k in zip(sides, colours):
            m = mat_combination([rng.randint(-3, 3) for _ in bases[s]], bases[s])
            Z.append(((s, k, module_operator(mod, m, s)),))
        rep = bifree_moment_check(ChiMap(sides), EpsilonMap(colours), Z, mf)
        assert rep.ok, (sides, colours, rep.to_json())


# --- diagram vectors ---------------------------------------------------------

def test_e_d_single_operator_cases():
    fp = reduced_free_product(MODS, 2)
    T = rand_op(MODS[1])
    chi, eps = ChiMap.parse("l"), EpsilonMap((1,))
    isolated = make_diagram(chi, eps, [((1,), False)], [])
    topped = make_diagram(chi, eps, [((1,), True)], [(1,)])
    x = mat_vec(T.matrix, MODS[1].unit_vector())
    mf = FreeMomentContext(fp)
    got_iso = e_d_vector(isolated, [("l", 1, T)], mf)
    assert fp.equal(got_iso, fp.embed_b(SCALARS.element(x[:1])))
    got_top = e_d_vector(topped, [("l", 1, T)], mf)
    direct = fp.lambda_apply(T, 1, fp.unit())
    assert fp.equal(fp.add(got_iso, got_top), direct)
    # the topped vector sits in the colour-1 word slot
    assert set(got_top) <= {(1,)}


def test_e_d_lands_in_the_spine_colour_slot():
    fp = reduced_free_product(MODS, 3)
    chi = ChiMap.parse("lrl")
    eps = EpsilonMap((1, 1, 2))
    fam = enumerate_lr(chi, eps)
    ops = [rand_op(MODS[1]), rand_op(MODS[1]), rand_op(MODS[2])]
    word = list(zip(chi.sides, eps.colours, ops))
    mf = FreeMomentContext(fp)
    for d in fam.diagrams:
        vec = e_d_vector(d, word, mf)
        want = tuple(d.shade(s) for s in d.spine_order)
        for seq in vec:
            assert seq == want or (seq == () and want == ())


def test_e_d_vector_refuses_a_word_of_another_diagram():
    fp = reduced_free_product(MODS, 2)
    T = rand_op(MODS[1], random.Random(3))
    d = make_diagram(ChiMap.parse("l"), EpsilonMap((1,)), [((1,), False)], [])
    for word in ([("r", 1, T)], [("l", 2, T)], [("l", 1, T)] * 2, []):
        with pytest.raises(ValueError, match="sides and colours"):
            e_d_vector(d, word, FreeMomentContext(fp))


def test_one_word_serves_decomposition_chain_and_context():
    """A word of (side, colour, operator) atoms goes as it stands to
    lr_decompose, apply_chain and FreeMomentContext.vector, and all three
    give the same vector."""
    rng = random.Random(41)
    fp = reduced_free_product(MODS, 4)
    mf = FreeMomentContext(fp)
    for _ in range(12):
        word = []
        for _ in range(rng.randint(1, 4)):
            k = rng.choice((1, 2))
            word.append((rng.choice("lr"), k, rand_op(MODS[k], rng)))
        direct = apply_chain(fp, word, fp.unit())
        dec = lr_decompose(word, fp)
        assert fp.equal(dec.direct, direct)
        assert fp.equal(dec.reconstruction(), direct)
        assert fp.equal(mf.vector([word]), direct)


def test_lr_decompose_reconstructs_word():
    for trial in range(25):
        n = RNG.choice([1, 2, 3, 4])
        ops = []
        for _ in range(n):
            side = RNG.choice("lr")
            k = RNG.choice([1, 2])
            ops.append((side, k, rand_op(MODS[k])))
        fp = reduced_free_product(MODS, n)
        dec = lr_decompose(ops, fp)
        direct = fp.unit()
        for side, k, op in reversed(ops):
            direct = (
                fp.lambda_apply(op, k, direct)
                if side == "l"
                else fp.rho_apply(op, k, direct)
            )
        assert fp.equal(dec.direct, direct)
        assert fp.equal(dec.reconstruction(), direct)
        lat = lateral_closure(
            enumerate_lr(
                ChiMap(tuple(s for s, _, _ in ops)),
                EpsilonMap(tuple(k for _, k, _ in ops)),
            )
        )
        for d, c, _ in dec.contributions:
            assert c.denominator == 1
            assert d.key() in lat.keys()


def test_lr_decompose_projected_split():
    for trial in range(15):
        n = RNG.choice([2, 3, 4])
        ops = []
        for _ in range(n):
            side = RNG.choice("lr")
            k = RNG.choice([1, 2])
            ops.append((side, k, rand_op(MODS[k])))
        proj = sorted(RNG.sample(range(1, n + 1), RNG.randint(1, n)))
        fp = reduced_free_product(MODS, n)
        dec = lr_decompose(ops, fp, projected_positions=proj)
        primed = fp.unit()
        for i in range(n, 0, -1):
            side, k, op = ops[i - 1]
            primed = (
                fp.lambda_apply(op, k, primed)
                if side == "l"
                else fp.rho_apply(op, k, primed)
            )
            if i in proj:
                primed = fp.bool_proj(k, primed)
        assert fp.equal(dec.primed, primed)
        resid = fp.add(*(v for _, _, v in dec.residual)) if dec.residual else {}
        assert fp.equal(fp.add(dec.primed, resid), dec.direct)


def test_lr_decompose_empty_projection_has_no_residual():
    fp = reduced_free_product(MODS, 2)
    ops = [("l", 1, rand_op(MODS[1])), ("r", 2, rand_op(MODS[2]))]
    dec = lr_decompose(ops, fp, projected_positions=())
    assert dec.residual == []
    assert fp.equal(dec.primed, dec.direct)


def _sparse_op(mod, rng):
    """A random operator with about 30 % nonzero entries, so that many
    expansion branches carry a zero factor."""
    m = [
        [rng.choice((-2, -1, 1, 2)) if rng.random() < 0.3 else 0 for _ in range(mod.dim)]
        for _ in range(mod.dim)
    ]
    return module_operator(mod, m)


def _canonical(vec):
    return sorted(
        [list(seq), sorted([i, str(c)] for i, c in comp.items() if c)]
        for seq, comp in vec.items()
        if any(comp.values())
    )


def test_lr_decompose_output_is_pinned():
    """sha256 of whole decompositions (direct, primed, contribution keys,
    coefficients and vectors, residual keys and vectors) of 60 seeded
    random words per module, lengths 1-6, with sparse operators and
    random projected positions.  Scalar coefficients over the m2,
    doubled-m2 and scalar modules; over diag2 (B = D2) the
    coefficient-free route the verifier takes, which makes no
    contributions."""
    m2 = build_bimodule_from_space(space_m2_scalar())[0]
    diag2 = build_bimodule_from_space(space_diag2())[0]
    cases = [
        ("m2", {1: m2, 2: m2}, True),
        ("doubled-m2", {1: doubled_bimodule(m2), 2: doubled_bimodule(m2)}, True),
        ("scalar", {1: scalar_module(2), 2: scalar_module(3)}, True),
        ("diag2", {1: diag2, 2: diag2}, False),
    ]
    rng = random.Random(13)
    digest = hashlib.sha256()
    for name, mods, coefficients in cases:
        fp = reduced_free_product(mods, 6)
        for _ in range(60):
            n = rng.randint(1, 6)
            ops = []
            for _ in range(n):
                k = rng.choice((1, 2))
                ops.append((rng.choice("lr"), k, _sparse_op(mods[k], rng)))
            proj = [j for j in range(1, n + 1) if rng.random() < 0.4]
            dec = lr_decompose(ops, fp, proj, coefficients=coefficients)
            out = [
                _canonical(dec.direct),
                _canonical(dec.primed),
                [[d.key(), str(c), _canonical(v)] for d, c, v in dec.contributions],
                [[d.key(), _canonical(v)] for d, _, v in dec.residual],
            ]
            digest.update(json.dumps([name, out]).encode())
    assert digest.hexdigest() == (
        "2088248f66f75141e1ee83cbcd466349336b7d425ebad74aecedfff1926cca88"
    )


def test_lr_decompose_coefficients_over_diag2_pipeline_words():
    """The coefficient route over B = D2: every split word of the proof
    pipeline of the doubled-diag2 system at word cap 3, decomposed with
    coefficients and the pipeline's projected positions, reconstructs
    the word.  sha256 over the contributions (keys, coefficients, rule
    vectors) and the residual keys and coefficients."""
    system = system_doubled_diag2(6)
    fp = system.fp
    digest = hashlib.sha256()
    words = 0
    for shape, _, pools in ffb._word_sweep(ffb._faces(system), 3, system.colours()):
        for handles in iproduct(*pools):
            word, projected = [], []
            for s, h in zip(shape, handles):
                if s == "b":
                    projected.append(len(word) + 1)
                word += h.chain
            dec = lr_decompose(word, fp, projected)
            assert fp.equal(dec.reconstruction(), apply_chain(fp, word, fp.unit()))
            out = [
                [[d.key(), str(c), _canonical(v)] for d, c, v in dec.contributions],
                [[d.key(), str(c)] for d, c, _ in dec.residual],
            ]
            digest.update(json.dumps(out).encode())
            words += 1
    assert words == 584
    assert digest.hexdigest() == (
        "7b49334c1b7bf3d357e31390f2420692d2425f72b469f3f7c822af2f4687c31c"
    )


def test_lr_decompose_makes_each_diagram_once(monkeypatch):
    """With coefficients, a group's residual part and its total share one
    diagram: within one call, make_diagram never builds the same
    (chi, eps, sorted strings, top) twice.  200 seeded words of dense
    operators over the scalar modules, lengths 2-6, each position
    projected with probability 0.4; the totals are pinned."""
    made = []

    def recording(chi, eps, strings, top):
        made.append((chi, eps, tuple(sorted(strings)), tuple(top)))
        return make_diagram(chi, eps, strings, top)

    monkeypatch.setattr(freeprod, "make_diagram", recording)
    fp = reduced_free_product(MODS, 6)
    rng = random.Random(3)
    diagrams = residual = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        ops = []
        for _ in range(n):
            k = rng.choice((1, 2))
            ops.append((rng.choice("lr"), k, rand_op(MODS[k], rng)))
        proj = [j for j in range(1, n + 1) if rng.random() < 0.4]
        made.clear()
        dec = lr_decompose(ops, fp, proj)
        assert len(made) == len(set(made))
        diagrams += len(made)
        residual += len(dec.residual)
    assert (diagrams, residual) == (1082, 631)


def test_lr_decompose_depth_guard_ignores_zero_branches():
    """At depth 1, position 1 opens a second top string on every branch
    that position 2 leaves open; here each of those branches is zero,
    because the operator at position 2 kills the unit.  The guard still
    raises: it is decided from the sides and colours, not the terms."""
    fp = reduced_free_product(MODS, 1)
    kills_unit = module_operator(MODS[2], [[0, 1, 0, 0]] + [[0, 0, 1, 1]] * 3)
    assert not any(kills_unit.apply(MODS[2].unit_vector()))
    ops = [("l", 1, rand_op(MODS[1])), ("r", 2, kills_unit)]
    with pytest.raises(DepthExceeded):
        lr_decompose(ops, fp)
    # one colour: position 1 joins the open string, so nothing exceeds
    ops = [("l", 2, rand_op(MODS[2])), ("r", 2, kills_unit)]
    assert not lr_decompose(ops, fp).direct


def test_lr_decompose_depth_guard_matches_diagram_tops():
    """The guard raises exactly when some LR diagram on a suffix of the
    word has more top strings than the depth: those are the top strings
    the expansion's branches hold."""
    rng = random.Random(5)
    zero = {k: module_operator(m, [[0] * m.dim] * m.dim) for k, m in MODS.items()}
    for _ in range(60):
        n = rng.randint(2, 6)
        sides = tuple(rng.choice("lr") for _ in range(n))
        colours = tuple(rng.choice((1, 2)) for _ in range(n))
        depth = rng.randint(1, n - 1)
        most = max(
            d.top_count()
            for j in range(n)
            for d in enumerate_lr(ChiMap(sides[j:]), EpsilonMap(colours[j:])).diagrams
        )
        ops = [(s, k, zero[k]) for s, k in zip(sides, colours)]
        fp = reduced_free_product(MODS, depth)
        if most > depth:
            with pytest.raises(DepthExceeded):
                lr_decompose(ops, fp)
        else:
            assert lr_decompose(ops, fp).direct == {}


def test_depth_walk_matches_the_reach_set_maximum():
    """The guard's one walk, along the branch that keeps every string at
    the top, against the reach set of every branch: for every (side,
    colour) word of 1..6 letters over colours 1-3, _check_depth passes at
    the most top strings a branch reaches and raises one below it."""
    words = 0
    for n in range(1, 7):
        for letters in iproduct(iproduct("lr", (1, 2, 3)), repeat=n):
            ops = [(s, k, None) for s, k in letters]
            most = max_top_strings(ops)
            freeprod._check_depth(ops, most)
            with pytest.raises(DepthExceeded):
                freeprod._check_depth(ops, most - 1)
            words += 1
    assert words == 55986


def _direct_word(fp, ops):
    vec = fp.unit()
    for side, k, op in reversed(ops):
        vec = fp.lambda_apply(op, k, vec) if side == "l" else fp.rho_apply(op, k, vec)
    return vec


def test_lr_decompose_refuses_coefficients_outside_commutants():
    """Over B = D2 a scalar coefficient needs every operator in its
    side's commutant.  On 200 seeded words of dense operators on the
    diag2 module (lengths 1-4, both colours, random sides) the
    coefficient route is refused before the expansion, naming the first
    offending position.  The coefficient-free route is not refused and
    makes no contributions; with nothing projected, primed is direct.
    (Its direct part is not compared with the word applied atom by atom:
    outside the commutants λ/ρ are not defined on the balanced tensor
    product, and the two disagree on some words.)"""
    mod = build_bimodule_from_space(space_diag2())[0]
    fp = reduced_free_product({1: mod, 2: mod}, 4)
    rng = random.Random(0)
    refused = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        ops = [
            (rng.choice("lr"), rng.choice((1, 2)), rand_op(mod, rng)) for _ in range(n)
        ]
        outside = [
            i for i, (s, _, op) in enumerate(ops, 1) if not op.commutes_with_side(s)
        ]
        if outside:
            refused += 1
            with pytest.raises(SideMismatch, match=f"^position {outside[0]}: "):
                lr_decompose(ops, fp)
        dec = lr_decompose(ops, fp, coefficients=False)
        assert dec.contributions == [] and dec.residual == []
        assert dec.primed == dec.direct
    assert refused == 200


def test_module_operator_refuses_outside_its_side_with_side_mismatch():
    """module_operator with a side raises the error lr_decompose raises
    for the same fault, an InputError and so a ValueError."""
    mod = build_bimodule_from_space(space_diag2())[0]
    op = rand_op(mod, random.Random(0))
    for side in "lr":
        with pytest.raises(SideMismatch, match=f"side-{side} commutant") as err:
            module_operator(mod, op.matrix, side)
        assert type(err.value) is SideMismatch
        assert isinstance(err.value, ValueError)
    assert module_operator(mod, op.matrix).matrix == op.matrix


def test_lr_decompose_coefficients_over_diag2_commutant_words():
    """Words of the diag2 module's own one-sided commutant elements keep
    the coefficient route, and their contributions rebuild the word."""
    sp = space_diag2()
    mod, theta = build_bimodule_from_space(sp)
    fp = reduced_free_product({1: mod, 2: mod}, 4)
    rng = random.Random(1)
    for _ in range(40):
        ops = []
        for _ in range(rng.randint(1, 4)):
            side = rng.choice("lr")
            elem = sample_side_element(sp, side, rng)
            ops.append((side, rng.choice((1, 2)), theta.operator(elem, side)))
        dec = lr_decompose(ops, fp)
        assert fp.equal(dec.reconstruction(), _direct_word(fp, ops))


def test_free_moment_context_appended_b_acts_first():
    """insert(APPEND_LEFT, b, chain) is chain·L_b: L_b acts on the unit
    before the chain.  Over the diag2 module in two colours with dense
    operators (outside the commutants), L_b acting after the chain gives
    another vector on some of these words, so the test tells the two
    apart."""
    mod = build_bimodule_from_space(space_diag2())[0]
    fp = reduced_free_product({1: mod, 2: mod}, 4)
    rng = random.Random(21)
    differs = 0
    for _ in range(20):
        chain = tuple(
            (rng.choice("lr"), rng.choice((1, 2)), rand_op(mod, rng))
            for _ in range(rng.randint(1, 3))
        )
        b = mod.B.element([rng.choice((-2, -1, 1, 2, 3)) for _ in range(mod.B.dim)])
        mf = FreeMomentContext(fp)
        want = apply_chain(fp, chain, fp.act(("lb", b), fp.unit()))
        assert fp.equal(mf.vector([mf.insert(APPEND_LEFT, b, chain)]), want)
        last = fp.act(("lb", b), apply_chain(fp, chain, fp.unit()))
        differs += not fp.equal(last, want)
    assert differs > 0


def test_free_moment_context_expectation():
    fp = reduced_free_product(MODS, 4)
    mf = FreeMomentContext(fp)
    T = rand_op(MODS[1])
    S = rand_op(MODS[2])
    word = [(("l", 1, T),), (("r", 2, S),)]
    got = mf.expect(word)
    direct = fp.rho_apply(S, 2, fp.unit())
    direct = fp.lambda_apply(T, 1, direct)
    assert (got - fp.p(direct)).is_zero()
    # cached second call
    assert (mf.expect(word) - got).is_zero()


# --- FreeMomentContext: interned atoms and one suffix trie -------------------


class RecordingContext(FreeMomentContext):
    """Keeps every word the engine asks it for."""

    def __init__(self, fp):
        super().__init__(fp)
        self.asked = []

    def expect(self, elems):
        self.asked.append(list(elems))
        return super().expect(elems)


def sweep_chains(system, n_hat_max):
    """Every word the audit asks for on the sweep words with n_hat letters
    or fewer: operand chains with inserted B-action atoms."""
    mf = RecordingContext(system.fp)
    for n in range(1, n_hat_max + 1):
        for shape in iproduct("lrb", repeat=n):
            fctx = lr_replacement(ChiMap(shape, three_letter="b" in shape))
            for eps_hat in iproduct(system.colours(), repeat=n):
                Z = []
                for s, k in zip(shape, eps_hat):
                    if s == "b":
                        Z += [system.cprime[k][0].chain, system.dprime[k][0].chain]
                    else:
                        faces = system.faces_l if s == "l" else system.faces_r
                        Z.append(faces[k][0].chain)
                eps = fctx.expand_colours(EpsilonMap(eps_hat))
                assert audit_ffb_word(fctx, eps, Z, mf).ok
    return mf.asked


@pytest.mark.parametrize("system", [system_doubled_dual, system_doubled_m2])
def test_suffix_trie_matches_fresh_application(system):
    """expect and vector agree with the flattened word applied afresh,
    whether the trie node is new or reached (vector first in one pass,
    expect first in the other)."""
    sys_ = system(6)
    fp = sys_.fp
    rng = random.Random(23)
    words = rng.sample(sweep_chains(sys_, 3), 1500)
    vecs = [apply_chain(fp, [a for elem in w for a in elem], fp.unit()) for w in words]
    want = [fp.p(v) for v in vecs]
    for vector_first in (True, False):
        order = list(range(len(words)))
        rng.shuffle(order)
        mf = FreeMomentContext(fp)
        for i in order:
            if vector_first:
                assert mf.vector(words[i]) == vecs[i]
            assert mf.expect(words[i]) == want[i]
            assert mf.vector(words[i]) == vecs[i]


@pytest.mark.parametrize("system", [system_doubled_m2, system_doubled_diag2])
def test_context_application_matches_apply_chain(system):
    """FreeMomentContext.apply, which sums each atom's cached images of
    basis words, equals apply_chain on the free product, which applies
    each atom afresh, on seeded vectors: the base summand and words of up
    to two legs, one to three sequences of one to four entries each, the
    unit and zero.  The chains are one or two atoms of every kind: the
    system's λ/ρ atoms, L_b and R_b for seeded b, and each colour's
    projection.  doubled-m2 has B = Q; doubled-diag2 has B = D2 and
    quotient word spaces.  One context serves every call, so a second
    pass reads only images already cached and computes none."""
    sys_ = system(4)
    fp, B = sys_.fp, sys_.fp.B
    rng = random.Random(41)
    atoms = [
        atom
        for pools in (sys_.faces_l, sys_.faces_r, sys_.cprime, sys_.dprime)
        for handles in pools.values()
        for h in handles
        for atom in h.chain
    ]
    atoms += [("proj", k, None) for k in sys_.colours()]
    for kind, _ in iproduct(("lb", "rb"), range(2)):
        atoms.append((kind, B.element([rng.randint(-2, 2) for _ in range(B.dim)])))
    assert {a[0] for a in atoms} == {"l", "r", "lb", "rb", "proj"}
    seqs = [()] + [s for s in fp.sequences() if len(s) <= 2]

    def draw() -> dict:
        vec = {}
        for seq in rng.sample(seqs, rng.randint(1, 3)):
            dim = fp.space(seq).dim if seq else B.dim
            idx = rng.sample(range(dim), min(dim, rng.randint(1, 4)))
            vec[seq] = {
                i: Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 2)) for i in idx
            }
        return vec

    vecs = [fp.unit(), {}] + [draw() for _ in range(40)]
    cases = [
        (chain, v)
        for v in vecs
        for chain in ((rng.choice(atoms),), (rng.choice(atoms), rng.choice(atoms)))
    ]
    cases += [((atom,), v) for atom in atoms for v in vecs[2:6]]
    want = [apply_chain(fp, chain, v) for chain, v in cases]
    assert any(len(v) > 1 for v in vecs)
    assert any(len(c) > 1 for v in vecs for c in v.values())
    mf = FreeMomentContext(fp)

    def images() -> int:
        return sum(len(t) for tables in mf._tables.values() for t in tables.values())

    assert [mf.apply(chain, v) for chain, v in cases] == want
    cached = images()
    assert [mf.apply(chain, v) for chain, v in cases] == want
    assert images() == cached
    assert any(len(w) > 1 for w in want) and {} in want


def _is_clean(vec) -> bool:
    return all(comp and all(comp.values()) for comp in vec.values())


@DENSE_MODULES
def test_cancelling_images_leave_clean_vectors(make):
    """An atom's images of a vector's basis words may cancel: entries that
    sum to zero, and whole components that vanish.  On seeded (chain,
    vector) cases where both happen, the free product's act and a
    context's act agree and hold no zero entry and no empty component,
    and so does every vector of the context's suffix trie.  The atoms are
    λ/ρ of sparse operators with entries in {-1, 0, 1} and both colours,
    L_b, R_b and the projections; each vector has one or two components,
    on B or W(s) for |s| <= 2, of two to five entries ±1, so that the
    images of entries of one component overlap."""
    mod = make()
    fp = reduced_free_product({1: mod, 2: mod}, 4)
    rng = random.Random(43)

    def sparse_op():
        return module_operator(
            mod,
            [[rng.choice((-1, 1)) if rng.random() < 0.3 else 0 for _ in range(mod.dim)]
             for _ in range(mod.dim)],
        )

    B = fp.B
    atoms = [(side, k, sparse_op()) for side in "lr" for k in (1, 2) for _ in range(2)]
    atoms += [(kind, B.element([rng.randint(-1, 1) for _ in range(B.dim)]))
              for kind in ("lb", "rb")]
    atoms += [("proj", k, None) for k in (1, 2)]
    seqs = [()] + [s for s in fp.sequences() if len(s) <= 2]

    def draw() -> dict:
        vec: dict = {}
        for seq in rng.sample(seqs, rng.randint(1, 2)):
            dim = fp.space(seq).dim if seq else B.dim
            idx = rng.sample(range(dim), min(dim, rng.randint(2, 5)))
            vec[seq] = {i: rng.choice((-1, 1)) for i in idx}
        return vec

    mf = FreeMomentContext(fp)
    zero_entries = empty_components = 0
    for _ in range(300):
        atom, vec = rng.choice(atoms), draw()
        raw: dict = {}  # the images summed with nothing cleaned
        for seq, comp in vec.items():
            for i, c in comp.items():
                for s, j, v in fp.image(atom, seq, i):
                    tgt = raw.setdefault(s, {})
                    tgt[j] = tgt.get(j, 0) + c * v
        zero_entries += any(not all(comp.values()) for comp in raw.values())
        empty_components += any(not any(comp.values()) for comp in raw.values())
        got = fp.act(atom, vec)
        assert _is_clean(got) and mf.act(atom, vec) == got
        assert fp.equal(got, raw)
    for _ in range(200):
        chain = tuple(rng.choice(atoms) for _ in range(rng.randint(1, 3)))
        assert mf.vector([chain]) == apply_chain(fp, chain, fp.unit())
    nodes = [mf._root]
    for node in nodes:
        assert _is_clean(node.vec)
        nodes += (node.children or {}).values()
    assert zero_entries and empty_components and len(nodes) > 100


def test_a_miss_applies_only_the_uncached_front(monkeypatch):
    fp = reduced_free_product(MODS, 4)
    mf = FreeMomentContext(fp)
    a, b, c, d = (("l", 1, rand_op(MODS[1])), ("r", 2, rand_op(MODS[2])),
                  ("l", 2, rand_op(MODS[2])), ("r", 1, rand_op(MODS[1])))
    applied = []

    def counting(fp_, chain, vec, trail=None):
        applied.append(len(chain))
        return apply_chain(fp_, chain, vec, trail)

    monkeypatch.setattr(freeprod, "apply_chain", counting)
    mf.expect([(a, b), (c,)])
    mf.expect([(d,), (b, c)])  # shares the suffix (b, c)
    mf.expect([(b, c)])  # a node of the trie: no application
    mf.expect([(a, b, c)])
    assert applied == [3, 1]


def _trie_size(node) -> int:
    return 1 + sum(map(_trie_size, (node.children or {}).values()))


def test_a_chain_stops_at_its_vanishing_suffix(monkeypatch):
    """A chain whose suffix vector vanishes is zero: the walk stops at the
    first vector that vanishes, which is the context's one zero node, so
    the atoms in front of it are neither applied nor interned, and no
    node is made past it.  expect gives B's zero and vector {}.  Each
    atom acts through its images of basis words: b's of the unit, then
    kill's of each entry of b's vector."""
    fp = reduced_free_product(MODS, 4)
    mf = FreeMomentContext(fp)
    a, b, c = (("l", 1, rand_op(MODS[1])), ("r", 2, rand_op(MODS[2])),
               ("l", 2, rand_op(MODS[2])))
    kill = ("l", 1, module_operator(MODS[1], [[ZERO] * 4 for _ in range(4)]))
    b_vec = apply_chain(fp, (b,), fp.unit())
    assert fp.lambda_apply(kill[2], 1, b_vec) == {}
    entries = sum(map(len, b_vec.values()))
    assert entries > 1
    applied = []
    real = freeprod.TruncatedFreeProduct.image

    def counting(fp_, atom, seq, i):
        applied.append(atom)
        return real(fp_, atom, seq, i)

    monkeypatch.setattr(freeprod.TruncatedFreeProduct, "image", counting)
    assert mf.expect([(a, c), (kill, b)]).is_zero()
    assert applied == [b] + [kill] * entries  # neither c nor a
    assert id(a) not in mf._seen and id(c) not in mf._seen
    assert _trie_size(mf._root) == 3  # the root, b and the zero node
    applied.clear()
    for front in ((a,), (c, a), (c,)):
        assert mf.vector([front, (kill, b)]) == {}
        assert mf.expect([front + (kill,), (b,)]) == fp.B.zero()
    assert applied == []
    assert _trie_size(mf._root) == 3
    assert mf.vector([(kill, b)]) is mf.vector([(a, kill, b)])


def test_check_ffb_system_applies_pinned_atoms(monkeypatch):
    """check_ffb_system(doubled-m2 at depth 6, cap 3) computes 470 images
    of an atom on a basis word, and every atom acts through them.  Before
    atoms acted through their context's images it applied 2,254 atoms to
    whole vectors; before the unit left the probe basis (over B = Q it is
    B's one basis vector) 2,356, and before chains stopped at their first
    vanishing vector 2,992."""
    system = system_doubled_m2(6)
    applied = []
    real = freeprod.TruncatedFreeProduct.image

    def counting(fp_, atom, seq, i):
        applied.append(atom)
        return real(fp_, atom, seq, i)

    monkeypatch.setattr(freeprod.TruncatedFreeProduct, "image", counting)
    assert ffb.check_ffb_system(system, word_cap=3).ok
    assert len(applied) == 470


def test_equal_b_atoms_share_one_id():
    fp = reduced_free_product(MODS, 2)
    mf = FreeMomentContext(fp)
    one, two = fp.B.element([Fraction(3, 2)]), fp.B.element([Fraction(3, 2)])
    first, second = ("lb", one), ("lb", two)
    assert first is not second
    assert mf.intern(first) == mf.intern(second)
    assert mf.intern(("rb", one)) != mf.intern(first)


def test_operator_atom_keeps_its_id_after_its_chain_is_dropped():
    fp = reduced_free_product(MODS, 3)
    mf = FreeMomentContext(fp)
    op = rand_op(MODS[1])
    ref = weakref.ref(op)
    chain = (("l", 1, op),)
    value = mf.expect([chain])
    aid = mf.intern(chain[0])
    del chain, op
    gc.collect()
    assert ref() is not None  # the atom pins its operator
    assert mf.intern(("l", 1, ref())) == aid
    fresh = [rand_op(MODS[1]) for _ in range(20)]
    assert aid not in {mf.intern(("l", 1, o)) for o in fresh}
    assert mf.expect([(("l", 1, ref()),)]) == value
