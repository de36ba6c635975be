import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from itertools import product as iproduct
from math import prod

import pytest

from bnc_engine import cumulants, ffb, freeprod, partitions
from bnc_engine.bimodule import build_bimodule_from_space, module_operator
from bnc_engine.cumulants import audit_ffb_word
from bnc_engine.ffb import (
    FfbFamily,
    OperatorHandle,
    check_ffb_independence,
    check_ffb_system,
    check_single_colour_moments,
    embed_ffb_family,
    verify_system_gives_ffb,
)
from bnc_engine.fixtures import (
    family_diag2,
    family_dual,
    family_m2,
    load_system,
    space_m2_scalar,
)
from bnc_engine.freeprod import (
    FreeMomentContext,
    apply_chain,
    lr_decompose,
    reduced_free_product,
)
from bnc_engine.linalg import ONE, ZERO, identity, unit_vec
from bnc_engine.partitions import (
    ChiMap,
    EpsilonMap,
    SetPartition,
    build_context,
    catalan,
    is_bnc,
    lr_replacement,
    refines,
    relabelled_rgs,
)
from oracles import (
    collect_by_term,
    kreweras_blocks,
    mat_mul,
    max_top_strings,
    off_lattice_refining,
)


def small_system(depth=6):
    return embed_ffb_family(family_m2(), depth)


SYS = small_system()
# over B = D2: the word spaces of length two and more are quotients
DIAG2 = embed_ffb_family(family_diag2(), 3)


def test_construction_side_tags():
    # the shift piece is two-sided, the multiply piece left-sided
    shift = SYS.dprime[1][0].module_op
    assert shift.commutes_with_side("l") and shift.commutes_with_side("r")
    for h in SYS.cprime[1]:
        assert h.module_op.commutes_with_side("l")
    for h in SYS.faces_l[1]:
        assert h.module_op.commutes_with_side("l")
    for h in SYS.faces_r[1]:
        assert h.module_op.commutes_with_side("r")


def test_module_level_annihilation():
    # shift . diag(z) . shift and mult(z1) . diag(z) . mult(z2) vanish
    shift = [list(r) for r in SYS.dprime[1][0].module_op.matrix]
    mult = [list(r) for r in SYS.cprime[1][0].module_op.matrix]
    diag = [list(r) for r in SYS.faces_l[1][0].module_op.matrix]
    assert mat_mul(mat_mul(shift, diag), shift) == [
        [ZERO] * len(shift) for _ in shift
    ]
    assert mat_mul(mat_mul(mult, diag), mult) == [[ZERO] * len(mult) for _ in mult]


def test_telescoping_word_lands_in_second_summand():
    # diag(z1) shift diag(z2) mult(a) ... applied to the unit has no
    # base component, so its expectation vanishes
    fp = SYS.fp
    word = (
        SYS.faces_l[1][0].chain
        + SYS.dprime[1][0].chain
        + SYS.faces_r[1][0].chain
        + SYS.cprime[1][0].chain
        + SYS.faces_l[1][0].chain
    )
    vec = apply_chain(fp, word, fp.unit())
    assert fp.p(vec).is_zero()


def test_system_axioms():
    for system, cap in ((SYS, 4), (DIAG2, 1)):
        rep = check_ffb_system(system, word_cap=cap)
        assert rep.ok, rep.to_json()


def test_system_axioms_negative_control():
    # replace the shift by the identity: annihilation fails with witness
    dbl = SYS.doubled
    ident_op = module_operator(dbl, identity(dbl.dim))
    broken = replace(SYS)
    broken.dprime = {
        k: [OperatorHandle(f"d{k}", k, (("r", k, ident_op),), ident_op, None)]
        for k in SYS.colours()
    }
    rep = check_ffb_system(broken, word_cap=2)
    failed = [c for c in rep.claims if c["status"] == "fail"]
    assert failed
    assert any("annihilation-d" in c["id"] for c in failed)
    assert all(c.get("witness") for c in failed)


def test_single_colour_moment_preservation():
    for system, cap in ((SYS, 4), (DIAG2, 1)):
        rep = check_single_colour_moments(system, word_cap=cap)
        assert rep.ok, rep.to_json()


def test_independence_word_cap_four():
    for system, cap in ((SYS, 4), (DIAG2, 1)):
        rep = check_ffb_independence(system, word_cap=cap)
        assert rep.ok, rep.claims[-1]


def tampered(system):
    """The boolean handles paired with a different source element, so
    their represented word no longer matches the ambient one."""
    wrong = system.base.A.basis_element(2)  # not the element the chain encodes
    out = replace(system)
    out.bool_handles = {
        k: [
            OperatorHandle(h.label, h.colour, h.chain, h.module_op, wrong)
            for h in system.bool_handles[k]
        ]
        for k in system.colours()
    }
    return out


def assert_flagged_with_witness(rep):
    assert not rep.ok
    failed = [c for c in rep.claims if c["status"] == "fail"]
    assert any(c.get("witness") for c in failed)


def test_independence_negative_control():
    for system, cap in ((SYS, 2), (DIAG2, 1)):
        assert_flagged_with_witness(check_ffb_independence(tampered(system), word_cap=cap))


def test_doubled_diag2_at_depth_six():
    """Criteria 8 and 11 over B = D2, on the doubled-diag2 fixture at word
    cap 3 (depth 6), with the tampered-handle control flagged."""
    system = load_system("doubled-diag2", 6)
    assert max(map(len, system.fp.sequences())) == 6
    for check in (
        check_ffb_system,
        check_single_colour_moments,
        check_ffb_independence,
        verify_system_gives_ffb,
    ):
        rep = check(system, word_cap=3)
        assert rep.ok, [c for c in rep.claims if c["status"] == "fail"]
    assert_flagged_with_witness(check_ffb_independence(tampered(system), word_cap=3))


@pytest.fixture
def builds(monkeypatch):
    """The colour sequences whose word spaces are built, in build order."""
    seqs = []
    build = freeprod.TruncatedFreeProduct._build_wordspace

    def counting(fp, seq):
        seqs.append(seq)
        return build(fp, seq)

    monkeypatch.setattr(freeprod.TruncatedFreeProduct, "_build_wordspace", counting)
    return seqs


# Per-word reports of a sweep: one sha256 over each report's JSON in sweep
# order.  The reports carry claim ids and statuses, so equal word sets hash
# equal.
REPORTS_N3 = "23af86908a9a77ec0f6834e259ff649dd8e0d580fddb8ed92ad67c21611dd099"
REPORTS_N4 = "3d382118d4d016e9b5e04ca98b4eabcdd0da4a20c7823d41b3182ba84216c76c"
# doubled-diag2 has two boolean handles per colour, and the sweep audits
# every handle word: 4,680 words at n̂ ≤ 4 (1,554 with one handle a pool)
REPORTS_D2_N4 = "c802c3f5ec79c494323f5c85ce14602a4134d5c7840afe14d0e19adf72489529"


def sweep_passed(words: int) -> list:
    """ffb_sweep's claims when all of its words pass."""
    return [{"id": f"ffb-sweep ({words} words passed)", "status": "pass"}]


@pytest.mark.parametrize(
    "fixture, max_n, words, built, reports",
    [
        ("doubled-m2", 3, 258, 6, REPORTS_N3),
        ("doubled-dual", 4, 1554, 8, REPORTS_N4),
        ("doubled-diag2", 4, 4680, 8, REPORTS_D2_N4),
    ],
)
def test_sweep_builds_only_the_word_spaces_it_reaches(
    monkeypatch, builds, fixture, max_n, words, built, reports
):
    """The FFB word audit over every word of up to max_n letters passes,
    over B = D2 too, with its per-word reports pinned.  A word space is
    built on first read, once: the sweep at the CLI's depth, 2·max_n,
    reads the spaces of words up to max_n legs only."""
    digest = hashlib.sha256()
    audit = ffb.audit_ffb_word

    def hashing(*args):
        rep = audit(*args)
        digest.update(json.dumps(rep.to_json(), sort_keys=True).encode())
        return rep

    monkeypatch.setattr(ffb, "audit_ffb_word", hashing)
    system = load_system(fixture, 2 * max_n)
    assert builds == []
    assert ffb.ffb_sweep(system, max_n).claims == sweep_passed(words)
    assert digest.hexdigest() == reports
    assert len(set(builds)) == len(builds) == built
    assert max(map(len, builds)) == max_n
    assert len(list(system.fp.sequences())) == 4 * max_n


def test_sweep_builds_each_shape_context_once():
    """ffb_sweep reads its FfbContexts from lr_replacement's LRU: over
    doubled-m2 with n̂ ≤ 3, one miss per word shape and a hit for every
    other word."""
    system = load_system("doubled-m2", 6)
    lr_replacement.cache_clear()
    assert ffb.ffb_sweep(system, 3).claims == sweep_passed(258)
    info = lr_replacement.cache_info()
    assert (info.misses, info.hits, info.currsize) == (39, 258 - 39, 39)


def test_sweep_misses_each_lattice_table_once_per_key():
    """The lattice tables are lru_caches keyed by what they depend on.
    Over doubled-m2 with n̂ ≤ 3, from cleared caches: one lattice per
    class of colourings, those that flipping side 1, flipping side n and
    exchanging l and r relate (9, against 20 distinct s_chi and 32
    expanded colourings); one program per class too (9); one sublattice
    per word shape (39); and one off-lattice count per shape and colour
    classes (129).  A second identical sweep misses none."""
    system = load_system("doubled-m2", 6)
    builders = (
        partitions._pullback,
        cumulants._program,
        cumulants._sublattice,
        cumulants._off_lattice,
    )
    for builder in builders:
        builder.cache_clear()
    assert ffb.ffb_sweep(system, 3).claims == sweep_passed(258)
    misses = [b.cache_info().misses for b in builders]
    assert misses == [9, 9, 39, 129]
    assert [b.cache_info().currsize for b in builders] == misses
    assert ffb.ffb_sweep(system, 3).claims == sweep_passed(258)
    assert [b.cache_info().misses for b in builders] == misses


def test_checkers_build_only_the_word_spaces_they_probe(builds):
    """Over B = D2 the four checkers at cap 2 read the one-leg spaces only,
    and check_ffb_system at cap 3 those of up to two legs."""
    system = load_system("doubled-diag2", 4)
    for check in (
        check_ffb_system,
        check_single_colour_moments,
        check_ffb_independence,
        verify_system_gives_ffb,
    ):
        assert check(system, word_cap=2).ok
    assert sorted(builds) == [(1,), (2,)]
    builds.clear()
    assert check_ffb_system(load_system("doubled-diag2", 6), word_cap=3).ok
    assert sorted(builds) == [(1,), (1, 2), (2,), (2, 1)]


def test_proof_pipeline():
    for system, cap in ((SYS, 3), (DIAG2, 1)):
        rep = verify_system_gives_ffb(system, word_cap=cap)
        assert rep.ok, [c for c in rep.claims if c["status"] == "fail"]


def with_boolean_left_factor(system, left):
    """The system with each boolean handle's chain (c', d') replaced by
    (left(system, handle), d'); the handles' sources stay."""
    out = replace(system)
    out.bool_handles = {
        k: [
            OperatorHandle(
                h.label, k, (left(system, h), h.chain[1]), h.module_op, h.source
            )
            for h in handles
        ]
        for k, handles in system.bool_handles.items()
    }
    return out


def pipeline_outcomes(monkeypatch, system, cap):
    """verify_system_gives_ffb's report at the cap, how many of its words
    end at each stage of the proof pipeline (None: passed), and how many
    of their decompositions carry a residual."""
    stages = Counter()
    residual = 0
    stage_of, decompose = ffb._pipeline_word, ffb.lr_decompose

    def counting_stages(*args):
        stage = stage_of(*args)
        stages[stage] += 1
        return stage

    def counting_residuals(*args, **kwargs):
        nonlocal residual
        dec = decompose(*args, **kwargs)
        residual += bool(dec.residual)
        return dec

    monkeypatch.setattr(ffb, "_pipeline_word", counting_stages)
    monkeypatch.setattr(ffb, "lr_decompose", counting_residuals)
    rep = verify_system_gives_ffb(system, word_cap=cap)
    return rep, stages, residual


def test_pipeline_residual_stages_flag_a_right_sided_left_factor(monkeypatch):
    """Negative control for the residual stages: with each boolean left
    factor acting as ρ rather than λ, the first three stages still pass
    on every cap-3 word of doubled-m2, and the 76 words that carry a
    residual fail at the last two."""
    system = with_boolean_left_factor(
        load_system("doubled-m2", 6), lambda _, h: ("r", *h.chain[0][1:])
    )
    rep, stages, residual = pipeline_outcomes(monkeypatch, system, 3)
    assert stages == {None: 182, "residual-family": 64, "residual-expectation": 12}
    assert residual == 76
    ids = [c["id"] for c in rep.claims]
    assert "proof-pipeline (258 word shapes, 76 failures)" in ids


def test_pipeline_residual_stages_pass_a_left_face_left_factor(monkeypatch):
    """Positive control for the residual stages: with each boolean left
    factor replaced by its colour's left face, all 258 cap-3 words of
    doubled-m2 pass, 66 of them with a residual term."""
    system = with_boolean_left_factor(
        load_system("doubled-m2", 6), lambda sys, h: sys.faces_l[h.colour][0].chain[0]
    )
    rep, stages, residual = pipeline_outcomes(monkeypatch, system, 3)
    assert rep.ok, [c for c in rep.claims if c["status"] == "fail"]
    assert stages == {None: 258}
    assert residual == 66


def split_words(system, cap):
    """(split word, free product, projected positions) of every word of
    the proof pipeline's sweep up to cap letters: the handles' chains,
    each boolean letter projected at its first atom."""
    for shape, _, pools in ffb._word_sweep(ffb._faces(system), cap, system.colours()):
        for handles in iproduct(*pools):
            word, projected = [], []
            for s, h in zip(shape, handles):
                if s == "b":
                    projected.append(len(word) + 1)
                word += h.chain
            yield word, system.fp, projected


def seeded_m2_words(count):
    """count seeded words of dense operators on the m2 module's free
    product (B = Q), lengths 1-6, each position projected with
    probability 0.4."""
    m2 = build_bimodule_from_space(space_m2_scalar())[0]
    fp = reduced_free_product({1: m2, 2: m2}, 6)
    rng = random.Random(29)
    for _ in range(count):
        n = rng.randint(1, 6)
        ops = []
        for _ in range(n):
            k = rng.choice((1, 2))
            matrix = [[rng.randint(-2, 2) for _ in range(m2.dim)] for _ in range(m2.dim)]
            ops.append((rng.choice("lr"), k, module_operator(m2, matrix)))
        yield ops, fp, [j for j in range(1, n + 1) if rng.random() < 0.4]


def seeded_diag2_words(count):
    """count seeded words on DIAG2's free product (B = D2, depth 3),
    lengths 1-5, of the system's module operators in their side's
    commutant (λ: the left faces, c' and d'; ρ: the right faces and d'),
    each of either colour and each position projected with probability
    0.4; words that exceed the depth are skipped."""
    left = [h.module_op for k in (1, 2) for h in DIAG2.faces_l[k] + DIAG2.cprime[k]]
    right = [h.module_op for k in (1, 2) for h in DIAG2.faces_r[k]]
    shifts = [h.module_op for k in (1, 2) for h in DIAG2.dprime[k]]
    rng = random.Random(31)
    made = 0
    while made < count:
        n = rng.randint(1, 5)
        ops = []
        for _ in range(n):
            side = rng.choice("lr")
            pool = (left if side == "l" else right) + shifts
            ops.append((side, rng.choice((1, 2)), rng.choice(pool)))
        if max_top_strings(ops) > DIAG2.fp.depth:
            continue
        made += 1
        yield ops, DIAG2.fp, [j for j in range(1, n + 1) if rng.random() < 0.4]


@pytest.mark.parametrize(
    ("words", "coefficients", "pins"),
    [
        pytest.param(lambda: seeded_m2_words(40), (True, False), (80, 48), id="m2"),
        pytest.param(
            lambda: split_words(load_system("doubled-diag2", 6), 3),
            (True, False),
            (1168, 0),
            id="doubled-diag2",
        ),
        pytest.param(
            lambda: seeded_diag2_words(60), (True, False), (120, 10), id="diag2"
        ),
        pytest.param(
            lambda: split_words(
                with_boolean_left_factor(
                    load_system("doubled-m2", 6), lambda _, h: ("r", *h.chain[0][1:])
                ),
                3,
            ),
            (False,),
            (258, 76),
            id="doubled-m2-right-sided-left-factor",
        ),
    ],
)
def test_decomposition_sums_match_the_term_by_term_oracle(
    monkeypatch, words, coefficients, pins
):
    """lr_decompose sums its terms as plain words per colour sequence and
    projects each sum once; oracles.collect_by_term makes, cleans and adds
    one tensor word per term.  On the same terms both give the same
    direct and primed words, residual parts (keys, coefficients,
    vectors) and contributions (keys, coefficients, rule vectors).  The
    words: seeded m2 words (B = Q); the doubled-diag2 pipeline's cap-3
    split words (B = D2), whose terms never leave the base summand;
    seeded words of DIAG2's commutant operators (B = D2), whose sums
    reach quotient word spaces; and the cap-3 split words of doubled-m2
    with a right-sided boolean left factor, which carry residuals.  pins
    holds (decompositions, those with a residual)."""
    collected = []
    real = freeprod._collect

    def recording(*args):
        collected.append(args)
        return real(*args)

    monkeypatch.setattr(freeprod, "_collect", recording)
    residuals = words_seen = 0
    for ops, fp, projected in words():
        for with_coefficients in coefficients:
            collected.clear()
            dec = lr_decompose(ops, fp, projected, coefficients=with_coefficients)
            [args] = collected
            direct, primed, residual, contributions = collect_by_term(*args)
            assert dec.direct == direct and dec.primed == primed
            assert [(d.key(), c, v) for d, c, v in dec.residual] == residual
            assert [(d.key(), c, v) for d, c, v in dec.contributions] == contributions
            residuals += bool(residual)
            words_seen += 1
    assert (words_seen, residuals) == pins


def atom_key(atom):
    """An atom up to what its action depends on: λ/ρ atoms by colour and
    operator matrix, B-action atoms by coefficients."""
    kind = atom[0]
    if kind in ("l", "r"):
        return (kind, atom[1], atom[2].matrix)
    if kind in ("lb", "rb"):
        return (kind, atom[1].coeffs)
    return (kind, atom[1])


@pytest.mark.parametrize(
    ("check", "pins"),
    [
        pytest.param(check, pins, id=check.__name__)
        for check, pins in (
            (verify_system_gives_ffb, (701, 231)),
            (check_ffb_independence, (702, 330)),
            (check_ffb_system, (724, 470)),
            (check_single_colour_moments, (104, 32)),
        )
    ],
)
def test_checker_applies_each_suffix_once_per_call(monkeypatch, check, pins):
    """A checker reads every unit-chain vector and moment from contexts
    it builds per call, and every atom acts through its context's basis
    images.  The tries apply no more atoms than the distinct suffixes, by
    atom_key, of the chains each context was asked for, and each image
    (free product, atom_key, basis word) is computed once in a call, so
    no operator is rebuilt per word (atoms share trie nodes and images by
    operator identity).  Two calls apply the same number of atoms and
    compute the same number of images, so nothing cached outlives a call.
    pins holds the two counts on doubled-m2 at cap 3."""
    system = load_system("doubled-m2", 6)
    applied, images, asked = [], [], []
    real_grow = FreeMomentContext._grow
    real_image = freeprod.TruncatedFreeProduct.image

    def growing(self, node, front):
        applied.append(len(front))
        return real_grow(self, node, front)

    def imaging(fp, atom, seq, i):
        images.append((id(fp), atom_key(atom), seq, i))
        return real_image(fp, atom, seq, i)

    def recording(method):
        def wrapper(self, elems):
            elems = list(elems)
            asked.append((id(self), tuple(a for elem in elems for a in elem)))
            return method(self, elems)

        return wrapper

    monkeypatch.setattr(FreeMomentContext, "_grow", growing)
    monkeypatch.setattr(freeprod.TruncatedFreeProduct, "image", imaging)
    for name in ("vector", "expect"):
        monkeypatch.setattr(
            FreeMomentContext, name, recording(getattr(FreeMomentContext, name))
        )
    counts = []
    for _ in range(2):
        applied.clear()
        images.clear()
        asked.clear()
        assert check(system, word_cap=3).ok
        suffixes = {
            (ctx, tuple(map(atom_key, chain[i:])))
            for ctx, chain in asked
            for i in range(len(chain))
        }
        counts.append((sum(applied), len(images)))
        assert 0 < counts[-1][0] <= len(suffixes)
        assert len(set(images)) == len(images)
    assert counts == [pins, pins]


@pytest.mark.parametrize(
    "check",
    [
        verify_system_gives_ffb,
        check_ffb_independence,
        check_ffb_system,
        check_single_colour_moments,
    ],
)
def test_checker_frees_its_contexts_without_the_cycle_collector(monkeypatch, check):
    """Every FreeMomentContext a checker builds, with its suffix trie, is
    freed by reference counting when the call returns: no recursive
    closure of the engine keeps one alive in a reference cycle."""
    system = load_system("doubled-m2", 6)
    contexts = []
    init = FreeMomentContext.__init__

    def recording(self, fp):
        init(self, fp)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(FreeMomentContext, "__init__", recording)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        assert check(system, word_cap=3).ok
        assert contexts and [ref() for ref in contexts] == [None] * len(contexts)
    finally:
        if enabled:
            gc.enable()


def test_three_colour_system_claim_ids():
    """family_m2's faces under colours 1-3: the proof pipeline takes 3·3 +
    9·9 + 27·27 = 819 shapes and colourings of 1..3 letters, and the mixed
    cumulants every l/r word of 2 or 3 letters whose colouring is not
    constant, those with three colours included: 4·6 + 8·24 = 216."""
    fam = family_m2()
    faces = dict.fromkeys((1, 2, 3), fam.faces[1])
    system = embed_ffb_family(FfbFamily(fam.space, faces), 6)
    rep = verify_system_gives_ffb(system, word_cap=3)
    assert [c["id"] for c in rep.claims] == [
        "proof-pipeline (819 word shapes, 0 failures)",
        "mixed-cumulants-vanish (216 words, 0 failures)",
    ]
    assert rep.ok


def test_mixed_cumulants_name_their_first_failing_word():
    """doubled-m2 with colour 2's left faces acting through colour 1's
    chains: 4 of the 56 mixed-colour words fail, and the claim names the
    first, with its handles and its full-word cumulant."""
    system = load_system("doubled-m2", 6)
    chain = system.faces_l[1][0].chain
    recoloured = [replace(h, chain=chain) for h in system.faces_l[2]]
    faces_l = {**system.faces_l, 2: recoloured}
    rep = verify_system_gives_ffb(replace(system, faces_l=faces_l), word_cap=3)
    assert rep.claims[-1] == {
        "id": "mixed-cumulants-vanish (56 words, 4 failures)",
        "status": "fail",
        "witness": {
            "shape": "ll",
            "colours": [1, 2],
            "word": ["l1.0", "l2.0"],
            "cumulant": "1*1",
        },
    }


def test_sweep_audits_every_boolean_handle():
    """rich-m2 with each colour's second boolean handle acting through the
    other colour's first boolean chain: a sweep of each pool's first
    handle alone passes, and the sweep over every handle word fails at
    the first word that holds a tampered handle with the other colour."""
    system = embed_ffb_family(family_m2(rich=True), 4)
    b = system.bool_handles
    bools = {k: [b[k][0], replace(b[k][1], chain=b[3 - k][0].chain)] for k in b}
    rep = ffb.ffb_sweep(replace(system, bool_handles=bools), 2)
    assert rep.claims == [
        {
            "id": "ffb-sweep (114 words passed)",
            "status": "fail",
            "witness": {
                "shape": "bl",
                "colours": [1, 2],
                "word": ["b1.1", "l2.0"],
                "claims": [
                    {
                        "id": "mixed-ffb-cumulant-vanishes",
                        "status": "fail",
                        "witness": "1*1",
                    }
                ],
            },
        }
    ]


def test_dual_system_pipeline():
    sysd = embed_ffb_family(family_dual(), depth=6)
    assert check_ffb_system(sysd, word_cap=3).ok
    assert check_single_colour_moments(sysd, word_cap=3).ok
    assert check_ffb_independence(sysd, word_cap=3).ok


# Every claim id of the four checkers at word cap 3 (depth 6) on a
# two-colour system with one handle per pool: 3 + 9 + 27 = 39 words of
# one colour, 6 + 36 + 216 = 258 shapes and words over both, and 8 + 48 =
# 56 mixed-colour l/r words of 2 or 3 letters, C' joining the l pools
# and D' the r pools.
CHECKER_CLAIM_IDS = [
    *(f"{p}-{k}" for k in (1, 2) for p in (
        "annihilation-c", "annihilation-d", "moments-c", "moments-d")),
    "single-colour-moments-1 (39 words)",
    "single-colour-moments-2 (39 words)",
    "ffb-independence (258 words, 0 failures)",
    "proof-pipeline (258 word shapes, 0 failures)",
    "mixed-cumulants-vanish (56 words, 0 failures)",
]


@pytest.mark.parametrize("fixture", ["doubled-m2", "doubled-dual"])
def test_checker_claim_ids_and_word_counts(fixture):
    system = load_system(fixture, 6)
    ids = []
    for check in (
        check_ffb_system,
        check_single_colour_moments,
        check_ffb_independence,
        verify_system_gives_ffb,
    ):
        rep = check(system, word_cap=3)
        assert rep.ok, [c for c in rep.claims if c["status"] == "fail"]
        ids += [c["id"] for c in rep.claims]
    assert ids == CHECKER_CLAIM_IDS


def test_ffb_word_audit_on_system_words():
    # the cumulant sums insert the lb/rb atoms, so over DIAG2 these words
    # also check the B-action on quotient word spaces
    for system in (SYS, DIAG2):
        mf = FreeMomentContext(system.fp)
        for shape in (("b",), ("l", "b"), ("b", "r"), ("l", "b", "r")):
            fctx = lr_replacement(ChiMap(tuple(shape), three_letter=True))
            for eps_hat in iproduct(system.colours(), repeat=len(shape)):
                eps = fctx.expand_colours(EpsilonMap(tuple(eps_hat)))
                Z = []
                for s, k in zip(shape, eps_hat):
                    if s == "l":
                        Z.append(system.faces_l[k][0].chain)
                    elif s == "r":
                        Z.append(system.faces_r[k][0].chain)
                    else:
                        Z.append(system.cprime[k][0].chain)
                        Z.append(system.dprime[k][0].chain)
                rep = audit_ffb_word(fctx, eps, Z, mf)
                assert rep.ok, (shape, eps_hat, rep.to_json())


def test_ffb_word_audit_negative_controls():
    # the dual family's faces l, r in one boolean slot are no boolean pair:
    # the pair-splitting partition's moment is 1, not 0
    dual = embed_ffb_family(family_dual(), depth=2)
    fctx = lr_replacement(ChiMap.parse("b"))
    Z = [dual.faces_l[1][0].chain, dual.faces_r[1][0].chain]
    rep = audit_ffb_word(fctx, EpsilonMap((1, 1)), Z, FreeMomentContext(dual.fp))
    assert rep.claims == [
        {
            "id": "ffb-moment-formula",
            "status": "fail",
            "witness": {"lhs": "1*1", "rhs": "0"},
        },
        {
            "id": "ffb-cumulant-restriction",
            "status": "fail",
            "witness": {"full": "0", "restricted": "1*1"},
        },
        {
            "id": "off-lattice-vanishing (1 partitions)",
            "status": "fail",
            "witness": [{"id": "vanishes-(0, 1)", "status": "fail", "witness": "1*1"}],
        },
        {"id": "constant-colour-cumulant", "status": "pass"},
    ]
    # colour-1 operands under a mixed colour map are not free of each other
    fctx = lr_replacement(ChiMap(("l", "r"), three_letter=True))
    Z = [SYS.faces_l[1][0].chain, SYS.faces_r[1][0].chain]
    rep = audit_ffb_word(fctx, EpsilonMap((1, 2)), Z, FreeMomentContext(SYS.fp))
    assert [c["status"] for c in rep.claims] == ["pass", "pass", "pass", "fail"]
    assert rep.claims[-1] == {
        "id": "mixed-ffb-cumulant-vanishes",
        "status": "fail",
        "witness": "1*1",
    }


def _shapes(max_n):
    """Every three-letter colouring of 1..max_n letters, with its
    FfbContext and the two-letter expansion's BNCContext."""
    for n_hat in range(1, max_n + 1):
        for shape in iproduct("lrb", repeat=n_hat):
            fctx = lr_replacement(ChiMap(shape, three_letter=True))
            yield n_hat, fctx, build_context(fctx.chi)


def test_boolean_pair_sublattice_is_the_interval_above_bottom():
    """bottom (each boolean pair a block) is bi-non-crossing, and the
    boolean-pair sublattice U is [bottom, 1̂], of size the product of
    Catalan(|B|) over the blocks B of the Kreweras complement of bottom
    on the relabelled line: on every shape of n̂ ≤ 4, and the totals over
    shapes of n̂ = 1..5 from the product alone, over {l, r, b} and over
    {l, b}."""
    totals, lb_totals = [0] * 5, [0] * 5
    for n_hat, fctx, ctx in _shapes(5):
        rho = relabelled_rgs(fctx.bottom, ctx)
        size = prod(catalan(len(blk)) for blk in kreweras_blocks(rho))
        totals[n_hat - 1] += size
        if "r" not in fctx.chi_hat.sides:
            lb_totals[n_hat - 1] += size
        if n_hat <= 4:
            assert is_bnc(fctx.bottom, ctx)
            assert len(cumulants._sublattice(fctx)[0]) == size, fctx.chi_hat
    assert totals == [3, 18, 126, 936, 7_164]
    assert lb_totals == [2, 8, 36, 168, 796]


def test_sublattice_weights_are_delta_of_the_top():
    """On every shape of n̂ ≤ 4, _sublattice's members are the lattice
    members above bottom, and the weights that sum their cumulants are
    δ(π, 1̂) on them (1̂ is NC(n) slot 0): U is an upper set, so every
    cumulant below a member of U other than 1̂ cancels."""
    for _, fctx, ctx in _shapes(4):
        members, weights = cumulants._sublattice(fctx)
        pulled = partitions.bnc_lattice(ctx)[2]
        above = {
            t for t, rgs in enumerate(pulled) if refines(fctx.bottom, SetPartition(rgs))
        }
        assert members == above, fctx.chi_hat
        assert {t: weights[t] for t in members} == {t: int(t == 0) for t in members}


def test_off_lattice_count_matches_a_lattice_scan():
    """The audit counts the colour-refining partitions off the
    boolean-pair sublattice by growing them on the relabelled line; on
    every (lattice, colour classes) key of the doubled-dual sweep of
    1..4 letters, that count is a scan's of the whole lattice."""
    system = load_system("doubled-dual", 8)
    keys, counted = set(), 0
    for shape, eps_hat, _ in ffb._word_sweep(ffb._faces(system), 4, system.colours()):
        fctx = lr_replacement(ChiMap(shape, three_letter="b" in shape))
        colours = fctx.expand_colours(EpsilonMap(eps_hat)).as_partition()
        if (shape, colours.rgs) in keys:
            continue
        keys.add((shape, colours.rgs))
        ctx = build_context(fctx.chi)
        got = partitions._refining_off_lattice(
            ctx, colours.rgs, fctx.boolean_pair_starts()
        )
        assert got == len(off_lattice_refining(fctx, colours)), (shape, eps_hat)
        counted += got
    assert (len(keys), counted) == (777, 19_978)


def test_off_lattice_witnesses_are_the_first_five_in_lattice_order():
    # dual faces l and r as both halves of each boolean letter of bb, one
    # colour: twelve colour-refining partitions split a pair, and the
    # report names the first five, in lattice order, of those whose
    # moment does not vanish
    dual = embed_ffb_family(family_dual(), depth=4)
    fctx = lr_replacement(ChiMap.parse("bb"))
    left, right = dual.faces_l[1][0].chain, dual.faces_r[1][0].chain
    Z = [left, right, left, right]
    rep = audit_ffb_word(fctx, EpsilonMap((1, 1, 1, 1)), Z, FreeMomentContext(dual.fp))
    witness = [
        {"id": f"vanishes-{rgs}", "status": "fail", "witness": "1*1"}
        for rgs in ((0, 0, 0, 1), (0, 0, 1, 0), (0, 0, 1, 2), (0, 1, 0, 0), (0, 1, 0, 1))
    ]
    assert rep.claims == [
        {
            "id": "ffb-moment-formula",
            "status": "fail",
            "witness": {"lhs": "1*1", "rhs": "0"},
        },
        {"id": "ffb-cumulant-restriction", "status": "pass"},
        {
            "id": "off-lattice-vanishing (12 partitions)",
            "status": "fail",
            "witness": witness,
        },
        {"id": "constant-colour-cumulant", "status": "pass"},
    ]


def test_single_boolean_slot_cumulant_is_plain_expectation():
    # length-one boolean word: the only sublattice member is the pair
    # block, whose cumulant equals the word expectation
    from bnc_engine.cumulants import kappa_pi
    from bnc_engine.partitions import SetPartition, build_context

    mf = FreeMomentContext(SYS.fp)
    fctx = lr_replacement(ChiMap.parse("b"))
    ctx = build_context(fctx.chi)
    Z = [SYS.cprime[1][0].chain, SYS.dprime[1][0].chain]
    kap = kappa_pi(SetPartition.full(2), ctx, Z, mf)
    lhs = mf.expect(Z)
    assert (kap - lhs).is_zero()


def test_single_colour_family_is_trivially_independent():
    fam = family_m2()
    sys1 = embed_ffb_family(FfbFamily(fam.space, {1: fam.faces[1]}), depth=4)
    assert check_ffb_independence(sys1, word_cap=2).ok


def word_label(fp, seq: tuple[int, ...], idx: int) -> str:
    """Label of coordinate idx of word seq: the legs of its plain word."""
    if not seq:
        return "B"
    ws = fp.space(seq)
    (plain,) = ws.to_plain({idx: ONE})
    legs = (plain // s % d for s, d in zip(ws.strides, ws.osc_dims))
    parts = (f"{k}:{leg}" for k, leg in zip(seq, legs))
    return "(" + ")(".join(parts) + ")"


def vector_to_json(fp, vec) -> dict:
    """A free-product vector as {word-label: rational-string}."""
    out = {}
    for seq in sorted(vec):
        for idx in sorted(vec[seq]):
            label = word_label(fp, seq, idx) if seq else f"B[{idx}]"
            out[label] = str(vec[seq][idx])
    return out


def test_fp_vector_serialization():
    fp = SYS.fp
    vec = apply_chain(fp, SYS.faces_l[1][0].chain, fp.unit())
    data = vector_to_json(fp, vec)
    assert data and all(isinstance(k, str) for k in data)
    summary = fp.describe()
    assert summary["base_dim"] == 1 and summary["depth"] == fp.depth
    # over B = D2 a coordinate's label names a plain word in its class
    fp = DIAG2.fp
    ws = fp.space((1, 2))
    for q in range(ws.dim):
        (label,) = vector_to_json(fp, {(1, 2): {q: ONE}})
        legs = [tuple(map(int, part.split(":"))) for part in label[1:-1].split(")(")]
        factors = [(k, unit_vec(fp.components[k].osc_dim, i)) for k, i in legs]
        assert fp.tensor_embed(factors) == {(1, 2): {q: ONE}}, label
