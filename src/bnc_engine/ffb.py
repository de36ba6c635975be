"""Free-free-Boolean systems: construction, axioms, and independence checks.

The embedding sends a family of face triples into operators on a free
product of doubled modules: left and right faces act diagonally through
the module representation, each boolean element factors into a
multiply-into-the-second-summand piece and a shift piece, and their
words telescope so that the annihilation and vanishing-moment axioms
hold on the nose.  The checkers verify those axioms, the word-by-word
preservation of single-colour moments, the projection calculus behind
the independence proof, and the independence comparison itself, all in
exact arithmetic with witnesses on failure.  ffb_sweep runs the FFB word
audit (cumulants.audit_ffb_word) over every word up to a length, the
criteria 9/10 sweep behind `verify ffb-sweep`.

Each handle's chain is a word of λ/ρ atoms (side, colour, operator), the
word format lr_decompose also takes, so the proof pipeline decomposes
the handles' chains as they stand, projecting at the boolean pair starts
of the word shape's FfbContext.  Each checker call builds one
FreeMomentContext over the system's free product (independence a second
one over its representation product) and reads every unit-chain vector
and moment from its suffix trie; check_ffb_system's probes apply their
chains to the probe basis through the same context, so every atom of a
call acts through the context's basis images.  The letters a call
derives from the handles (the representation's μ̃ operators, the
pipeline's projection sandwiches of the boolean chains) are built once
per call; embed_ffb_family builds one operator object per generator and
role, so equal atoms are the same objects and share trie nodes and
images.  Nothing cached per call outlives it, and reference counting
frees it when the call returns.  What lives longer is bounded by what
it is keyed on: the operators' and the modules' sparse kernels, and two
LRUs, the word shapes' FfbContexts behind partitions.lr_replacement and
the lateral closures behind diagrams.chi_extensions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from itertools import product as iproduct
from typing import Optional

from .algebra import AlgebraElement, BBProbSpace, CheckReport, first_counterexample
from .bimodule import (
    BimoduleWithProjection,
    ModuleOperator,
    Theta,
    build_bimodule_from_space,
    doubled_bimodule,
    module_operator,
)
from .cumulants import audit_ffb_word, kappa_pi
from .diagrams import chi_extensions, enumerate_lr, filter_boolean, lateral_closure
from .freeprod import (
    FreeMomentContext,
    TruncatedFreeProduct,
    lr_decompose,
    reduced_free_product,
)
from .linalg import ONE, block_matrix, identity
from .partitions import ChiMap, EpsilonMap, SetPartition, build_context, lr_replacement


@dataclass(frozen=True)
class OperatorHandle:
    """Operator on the ambient free product with its construction data.

    chain holds its word of λ/ρ atoms; module_op the per-colour operator
    the chain represents (when it is a plain left/right representation),
    and source the original algebra element it came from.
    """

    label: str
    colour: int
    chain: tuple
    module_op: Optional[ModuleOperator] = None
    source: Optional[AlgebraElement] = None


@dataclass
class FfbFamily:
    """Face triples in a base space, as generator lists per colour."""

    space: BBProbSpace
    faces: dict[int, dict[str, list[AlgebraElement]]]


@dataclass
class FfbSystem:
    """Quadruples (A^l, A^r, C', D') realized on a free product.

    The handles carry their module operators, which certify the
    bi-freeness hypothesis by construction (everything is a left or
    right representation of a module operator).
    """

    fp: TruncatedFreeProduct
    base: BBProbSpace
    theta: Theta
    module: BimoduleWithProjection
    doubled: BimoduleWithProjection
    faces_l: dict[int, list[OperatorHandle]]
    faces_r: dict[int, list[OperatorHandle]]
    cprime: dict[int, list[OperatorHandle]]
    dprime: dict[int, list[OperatorHandle]]
    bool_handles: dict[int, list[OperatorHandle]]

    def colours(self) -> list[int]:
        return sorted(self.faces_l)

    def expect_word(self, handles, mf: FreeMomentContext) -> AlgebraElement:
        """E of the handles' word, read from the caller's context on fp."""
        return mf.expect([h.chain for h in handles])


def embed_ffb_family(fam: FfbFamily, depth: int) -> FfbSystem:
    """The doubled-module construction over the family's base space."""
    space = fam.space
    module, theta = build_bimodule_from_space(space)
    dbl = doubled_bimodule(module)
    dim = module.dim
    colours = sorted(fam.faces)
    fp = reduced_free_product({k: dbl for k in colours}, depth)

    def diag_op(z: AlgebraElement, side: str) -> ModuleOperator:
        th = theta.matrix(z)
        return module_operator(dbl, block_matrix(dim, {(0, 0): th, (1, 1): th}), side)

    def mult_shift_op(z: AlgebraElement) -> ModuleOperator:
        th = theta.matrix(z)
        return module_operator(dbl, block_matrix(dim, {(0, 1): th}), "l")

    shift = module_operator(dbl, block_matrix(dim, {(1, 0): identity(dim)}), "l")
    if not shift.commutes_with_side("r"):
        raise ValueError("shift operator must be two-sided")

    faces_l: dict[int, list[OperatorHandle]] = {}
    faces_r: dict[int, list[OperatorHandle]] = {}
    cprime: dict[int, list[OperatorHandle]] = {}
    dprime: dict[int, list[OperatorHandle]] = {}
    bool_handles: dict[int, list[OperatorHandle]] = {}
    # one operator object per generator and role, shared by the handles
    # that use it: checker contexts share trie nodes by operator identity
    for k in colours:
        slots = fam.faces[k]
        for s, faces in (("l", faces_l), ("r", faces_r)):
            diags = [(z, diag_op(z, s)) for z in slots.get(s, [])]
            faces[k] = [
                OperatorHandle(f"{s}{k}.{i}", k, ((s, k, op),), op, z)
                for i, (z, op) in enumerate(diags)
            ]
        mults = [(z, mult_shift_op(z)) for z in slots.get("b", [])]
        cprime[k] = [
            OperatorHandle(f"c{k}.{i}", k, (("l", k, op),), op, z)
            for i, (z, op) in enumerate(mults)
        ]
        dprime[k] = [OperatorHandle(f"d{k}", k, (("r", k, shift),), shift, None)]
        bool_handles[k] = [
            OperatorHandle(f"b{k}.{i}", k, (("l", k, op), ("r", k, shift)), None, z)
            for i, (z, op) in enumerate(mults)
        ]
    return FfbSystem(
        fp, space, theta, module, dbl,
        faces_l, faces_r, cprime, dprime, bool_handles,
    )


def _a_words(sys: FfbSystem, k: int, max_len: int):
    """Words over the left/right face generators, identity included."""
    yield ()
    table = {"a": {k: sys.faces_l[k] + sys.faces_r[k]}}
    for _, _, pools in _word_sweep(table, max_len, (k,)):
        yield from iproduct(*pools)


def _nonzero_images(mf: FreeMomentContext, chain, basis) -> list:
    """The chain applied to each basis vector, zero images dropped."""
    images = (mf.apply(chain, vec) for vec in basis)
    return [img for img in images if img]


def _zero_operator(mf: FreeMomentContext, handles, images) -> bool:
    """Whether the composite of handles annihilates every image."""
    chain = tuple(atom for h in handles for atom in h.chain)
    return not any(mf.apply(chain, img) for img in images)


def _basis_vectors(fp: TruncatedFreeProduct, max_depth: int):
    # no unit: it is the sum of B's basis vectors, so a linear test skips it
    for i in range(fp.B.dim):
        yield fp.embed_b(fp.B.basis_element(i))
    for seq in sorted(s for s in fp.sequences() if len(s) <= max_depth):
        for i in range(fp.space(seq).dim):
            yield {seq: {i: ONE}}


def check_ffb_system(sys: FfbSystem, word_cap: int) -> CheckReport:
    """The annihilation and vanishing-moment axioms on generator words.

    Middle words over the left/right faces run up to word_cap letters in
    single-sandwich patterns and one letter in the pattern repeated once.
    """
    rep = CheckReport()
    fp = sys.fp
    mf = FreeMomentContext(fp)
    basis = list(_basis_vectors(fp, max(0, fp.depth - (word_cap + 2))))
    for k in sys.colours():
        faces, letters = list(_a_words(sys, k, word_cap)), list(_a_words(sys, k, 1))
        for name, handles in (("c", sys.cprime[k]), ("d", sys.dprime[k])):
            # each last handle's images of the probe basis
            lasts = [(h2, _nonzero_images(mf, h2.chain, basis)) for h2 in handles]
            cases = (
                ((h1,) + w, h2, images)
                for h1, (h2, images) in iproduct(handles, lasts)
                for w in faces
            )
            bad = first_counterexample(
                cases, lambda front, _, images: not _zero_operator(mf, front, images)
            )
            wit = None if bad is None else [h.label for h in bad[0] + (bad[1],)]
            rep.record(f"annihilation-{name}-{k}", bad is None, witness=wit)

        for prop, first, second in (
            ("moments-c", sys.cprime[k], sys.dprime[k]),
            ("moments-d", sys.dprime[k], sys.cprime[k]),
        ):
            # a·x·b, then a·x·b·y·c·z·d: x and z from first, y from second
            cases = itertools.chain(
                ((a + (x,) + b,) for a, b in iproduct(faces, repeat=2) for x in first),
                (
                    (a + (x,) + b + (y,) + c + (z,) + d,)
                    for a, b, c, d in iproduct(letters, repeat=4)
                    for x, y, z in iproduct(first, second, first)
                ),
            )
            bad = first_counterexample(
                cases, lambda word: not sys.expect_word(word, mf).is_zero()
            )
            wit = None if bad is None else [h.label for h in bad[0]]
            rep.record(f"{prop}-{k}", bad is None, witness=wit)
    return rep


def _faces(sys: FfbSystem) -> dict[str, dict[int, list[OperatorHandle]]]:
    """The sweep's handle pools by shape letter, then colour."""
    return {"l": sys.faces_l, "r": sys.faces_r, "b": sys.bool_handles}


def _per_letter(sys: FfbSystem, build) -> dict:
    """{(shape letter, id(handle)): build(letter, handle)} over every
    pool of the sweep.  Built once per checker call, so each derived
    operator is one object for the whole call and its atoms share trie
    nodes; the system holds the handles, so their ids stay valid."""
    return {
        (s, id(h)): build(s, h)
        for s, pools in _faces(sys).items()
        for handles in pools.values()
        for h in handles
    }


def _word_sweep(table: dict, word_cap: int, colours):
    """(shape, colours, pools) for every word of 1..word_cap letters.

    table maps each shape letter to its handles by colour (_faces gives a
    system's 'l', 'r', 'b').  Shapes run over the table's letters in its
    order and colour tuples over the given colours, in lexicographic
    order, shape before colours; pools lists each letter's handles, and
    words with an empty pool are skipped.
    """
    for n in range(1, word_cap + 1):
        for shape in iproduct(table, repeat=n):
            for eps in iproduct(colours, repeat=n):
                pools = [table[s][k] for s, k in zip(shape, eps)]
                if all(pools):
                    yield shape, eps, pools


def ffb_sweep(sys: FfbSystem, max_n: int) -> CheckReport:
    """The FFB word audit over every word of 1..max_n letters, all read
    from one FreeMomentContext.

    Words run in _word_sweep's order, each shape and colouring over every
    handle of each pool, as check_ffb_independence's do, a boolean letter
    its left and right factors.  The report's one claim counts the words
    that passed; the sweep stops at the first failing word, whose shape,
    colours and handles with its failed claims are the witness.
    """
    rep = CheckReport()
    mf = FreeMomentContext(sys.fp)
    words, bad = 0, None
    for shape, eps_hat, pools in _word_sweep(_faces(sys), max_n, sys.colours()):
        fctx = lr_replacement(ChiMap(shape, three_letter=True))
        eps = fctx.expand_colours(EpsilonMap(eps_hat))
        for handles in iproduct(*pools):
            Z = [(atom,) for h in handles for atom in h.chain]
            audit = audit_ffb_word(fctx, eps, Z, mf)
            if not audit.ok:
                bad = {
                    "shape": "".join(shape),
                    "colours": list(eps_hat),
                    "word": [h.label for h in handles],
                    "claims": [c for c in audit.claims if c["status"] == "fail"],
                }
                break
            words += 1
        if bad:
            break
    rep.record(f"ffb-sweep ({words} words passed)", bad is None, witness=bad)
    return rep


def check_single_colour_moments(sys: FfbSystem, word_cap: int) -> CheckReport:
    """Joint moments of one colour's images match the base space."""
    rep = CheckReport()
    mf = FreeMomentContext(sys.fp)
    for k in sys.colours():
        sweep = _word_sweep(_faces(sys), word_cap, (k,))
        words = [w for _, _, pools in sweep for w in iproduct(*pools)]
        # (words read, the word, its moment here and in the base space)
        cases = (
            (n, w, sys.expect_word(w, mf), sys.base.expect_word([h.source for h in w]))
            for n, w in enumerate(words, start=1)
        )
        bad = first_counterexample(cases, lambda _n, _w, x, y: not (x - y).is_zero())
        count, wit = len(words), None
        if bad:
            count, w, lhs, rhs = bad
            wit = {"word": [h.label for h in w], "lhs": str(lhs), "rhs": str(rhs)}
        rep.record(f"single-colour-moments-{k} ({count} words)", not bad, witness=wit)
    return rep


def _mu_tilde_letter(th: Theta, s: str, h: OperatorHandle) -> tuple:
    """One letter of the representation word per the independence
    definition, over the base-space module: left and right faces through
    the module representation, boolean faces sandwiched between
    projections."""
    k = h.colour
    if s == "b":
        proj = ("proj", k, None)
        return (proj, ("l", k, th.operator(h.source)), proj)
    return ((s, k, th.operator(h.source, s)),)


def check_ffb_independence(sys: FfbSystem, word_cap: int) -> CheckReport:
    """Joint distribution against the projected representation.

    Every word over the triples, all colourings and shapes up to the
    cap, is compared with its image word on the free product of
    base-space modules; residuals are exact.
    """
    rep = CheckReport()
    mf = FreeMomentContext(sys.fp)
    rmf = FreeMomentContext(
        reduced_free_product({k: sys.module for k in sys.colours()}, word_cap)
    )
    mu_tilde = _per_letter(sys, lambda s, h: _mu_tilde_letter(sys.theta, s, h))
    failures = []
    count = 0
    for shape, eps, pools in _word_sweep(_faces(sys), word_cap, sys.colours()):
        for handles in iproduct(*pools):
            count += 1
            lhs = sys.expect_word(handles, mf)
            rhs = rmf.expect([mu_tilde[s, id(h)] for s, h in zip(shape, handles)])
            if not (lhs - rhs).is_zero():
                failures.append(
                    {
                        "word": [h.label for h in handles],
                        "shape": "".join(shape),
                        "colours": list(eps),
                        "lhs": str(lhs),
                        "rhs": str(rhs),
                    }
                )
    for f in failures[:10]:
        rep.record(f"word-{f['shape']}-{f['word']}", False, witness=f)
    rep.record(
        f"ffb-independence ({count} words, {len(failures)} failures)",
        not failures,
    )
    return rep


def verify_system_gives_ffb(sys: FfbSystem, word_cap: int) -> CheckReport:
    """Instance check of the independence theorem via its proof pipeline.

    For every word over the induced triples: decompose the split word
    (the handles' chains, each boolean letter its left and right factor)
    into diagram terms with projections at the split points, compare the
    projected word with the boolean-sandwich word, and confirm the
    removed terms carry no expectation and stay inside the predicted
    extension families.  The doubled construction's own words leave no
    removed term on any fixture (a boolean letter is λ(c')·ρ(d'), and the
    projection after it finds nothing to remove), so the last two stages
    have a term to check only on inputs that break the construction,
    such as a tampered boolean handle, whose families are built per word.
    """
    rep = CheckReport()
    mf = FreeMomentContext(sys.fp)
    letters = _per_letter(sys, _pipeline_letter)
    kappa_checked = 0
    mismatch = []
    for shape, eps_hat, pools in _word_sweep(_faces(sys), word_cap, sys.colours()):
        fctx = lr_replacement(ChiMap(shape, three_letter=True))
        eps = fctx.expand_colours(EpsilonMap(eps_hat))
        for handles in iproduct(*pools):
            word = [(s, h, letters[s, id(h)]) for s, h in zip(shape, handles)]
            stage = _pipeline_word(sys, mf, fctx, eps, word)
            if stage:
                mismatch.append({"stage": stage, "word": [h.label for h in handles]})
        kappa_checked += 1
    for f in mismatch[:10]:
        rep.record(f"pipeline-{f['stage']}", False, witness=f)
    rep.record(
        f"proof-pipeline ({kappa_checked} word shapes, {len(mismatch)} failures)",
        not mismatch,
    )
    rep.claims.extend(_mixed_cumulant_claims(sys, word_cap, mf).claims)
    return rep


def _pipeline_letter(s: str, h: OperatorHandle) -> tuple:
    """The μ̃ atoms of one letter: a boolean letter's chain, its left and
    right factors, sandwiched between projections (exact on V_k, where λ
    and ρ of colour k act on the same single leg); a face letter's μ̃
    letter is its own chain."""
    if s != "b":
        return h.chain
    proj = ("proj", h.colour, None)
    return (proj, *h.chain, proj)


def _pipeline_word(sys, mf, fctx, eps, word):
    """The stage at which one word of the pipeline fails, or None; word
    lists (shape letter, handle, μ̃ atoms) per letter.  The handles'
    chains are λ/ρ atoms, so their concatenation is the split word that
    lr_decompose takes, and a boolean letter's two atoms sit where its
    FfbContext's pairs do."""
    fp = sys.fp
    projected = fctx.boolean_pair_starts()
    split = [atom for _, h, _ in word for atom in h.chain]
    v_direct = mf.vector([h.chain for _, h, _ in word])
    dec = lr_decompose(split, fp, projected_positions=projected, coefficients=False)
    # every vector compared here is clean (trie vectors, the decomposition's
    # and fp.add's sums), so == compares them as they are
    if dec.direct != v_direct:
        return "decompose-direct"
    resid_total = fp.add(*(v for _, _, v in dec.residual)) if dec.residual else {}
    if fp.add(dec.primed, resid_total) != dec.direct:
        return "decompose-split"
    # the projected word equals the boolean-sandwich word
    if dec.primed != mf.vector([tilde for _, _, tilde in word]):
        return "projected-word"
    if not sys.fp.p(resid_total).is_zero():
        return "residual-expectation"
    # removed diagrams stay inside the extension families of the cut points
    if dec.residual:
        union = set()
        for j in projected:
            sub = lateral_closure(
                enumerate_lr(
                    ChiMap(fctx.chi.sides[j - 1 :]), EpsilonMap(eps.colours[j - 1 :])
                )
            )
            _, removed = filter_boolean(sub, eps.colour(j))
            union |= chi_extensions(removed, fctx.chi, eps).keys()
        for d, _, _ in dec.residual:
            if d.key() not in union:
                return "residual-family"
    return None


def _mixed_cumulant_claims(
    sys: FfbSystem, word_cap: int, mf: FreeMomentContext
) -> CheckReport:
    """Full-word cumulants of the split operators vanish for mixed
    colourings (the bi-freeness content of the construction), with
    moments from the caller's context on sys.fp."""
    rep = CheckReport()
    colours = sys.colours()
    if len(colours) < 2:
        rep.record("mixed-cumulants (vacuous: one colour)", True)
        return rep
    table = {
        "l": {k: sys.faces_l[k] + sys.cprime[k] for k in colours},
        "r": {k: sys.faces_r[k] + sys.dprime[k] for k in colours},
    }
    failures = 0
    checked = 0
    first = None
    for shape, eps, pools in _word_sweep(table, min(word_cap, 4), colours):
        if len(set(eps)) < 2:
            continue
        handles = [pool[0] for pool in pools]
        Z = [h.chain for h in handles]
        kap = kappa_pi(SetPartition.full(len(shape)), build_context(ChiMap(shape)), Z, mf)
        checked += 1
        if not kap.is_zero():
            failures += 1
            first = first or {
                "shape": "".join(shape),
                "colours": list(eps),
                "word": [h.label for h in handles],
                "cumulant": str(kap),
            }
    rep.record(
        f"mixed-cumulants-vanish ({checked} words, {failures} failures)",
        failures == 0,
        witness=first,
    )
    return rep
