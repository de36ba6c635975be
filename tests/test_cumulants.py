import gc
import hashlib
import random
import weakref
from array import array
from fractions import Fraction
from itertools import product as iproduct

import pytest

from bnc_engine import bimult, cumulants, ffb
from bnc_engine.algebra import BBProbSpace
from bnc_engine.bimult import (
    APPEND_LEFT,
    PREPEND_LEFT,
    PREPEND_RIGHT,
    MomentContext,
    Program,
    compile_plans,
    reduce_blocks,
    run_program,
)
from bnc_engine.cumulants import (
    AlgebraMomentContext,
    _interval_weights,
    _slot_sum,
    ColouringError,
    SideMismatch,
    audit_ffb_word,
    bifree_moment_check,
    cumulant_table,
    e_pi,
    kappa_pi,
    moment_cumulant_roundtrip,
    moment_table,
)
from bnc_engine.diagrams import enumerate_lr
from bnc_engine.fixtures import (
    load_system,
    sample_side_element,
    scalar_module,
    space_diag2,
    space_m2_scalar,
)
from bnc_engine.freeprod import (
    FreeMomentContext,
    module_operator,
    reduced_free_product,
)
from bnc_engine.partitions import (
    ChiMap,
    EpsilonMap,
    SetPartition,
    bnc_lattice,
    build_context,
    catalan,
    enumerate_bnc,
    lr_replacement,
    refines,
)
from oracles import (
    interval_below,
    keeps_boolean_pairs,
    reduce_direct,
    reduce_in_random_order,
)

SP = space_m2_scalar()
MF = AlgebraMomentContext(SP)
RNG = random.Random(7)


def rand_elem(rng=RNG):
    return SP.A.element([Fraction(rng.randint(-3, 3)) for _ in range(4)])


def test_full_partition_is_plain_expectation():
    for n in (1, 2, 3):
        chi = ChiMap(tuple(RNG.choice("lr") for _ in range(n)))
        ctx = build_context(chi)
        Z = [rand_elem() for _ in range(n)]
        got = e_pi(SetPartition.full(n), ctx, Z, MF)
        want = SP.expect_word(Z)
        assert (got - want).is_zero()


def test_tail_collapse_example():
    ctx = build_context(ChiMap.parse("ll"))
    Z = [rand_elem(), rand_elem()]
    got = e_pi(SetPartition.singletons(2), ctx, Z, MF)
    want = SP.expect(Z[0] * SP.embed_left(SP.expect(Z[1])))
    assert (got - want).is_zero()


def test_kappa_two_letter_example():
    ctx = build_context(ChiMap.parse("ll"))
    Z = [rand_elem(), rand_elem()]
    kap = kappa_pi(SetPartition.full(2), ctx, Z, MF)
    want = SP.expect(Z[0] * Z[1]) - SP.expect(Z[0] * SP.embed_left(SP.expect(Z[1])))
    assert (kap - want).is_zero()
    single = build_context(ChiMap.parse("r"))
    kap1 = kappa_pi(SetPartition.full(1), single, [Z[0]], MF)
    assert (kap1 - SP.expect(Z[0])).is_zero()


def test_side_membership_is_verified():
    spd = space_diag2()
    mfd = AlgebraMomentContext(spd)
    off = spd.A.basis_element(1)  # commutes with neither embedding
    ctx = build_context(ChiMap.parse("l"))
    with pytest.raises(SideMismatch):
        e_pi(SetPartition.full(1), ctx, [off], mfd)
    diag = spd.embed_left(spd.B.basis_element(0))
    e_pi(SetPartition.full(1), ctx, [diag], mfd)


def test_roundtrip_random_words():
    for n in (1, 2, 3, 4):
        for _ in range(3):
            chi = ChiMap(tuple(RNG.choice("lr") for _ in range(n)))
            ctx = build_context(chi)
            Z = [rand_elem() for _ in range(n)]
            moments = moment_table(ctx, Z, MF)
            kappas = cumulant_table(ctx, Z, MF)
            assert moment_cumulant_roundtrip(ctx, moments, kappas)


def test_reduction_order_independence():
    """e_pi runs pi's plan (the largest-minimum order);
    reduce_in_random_order collapses in a random legal order.  Both must
    agree."""
    for n in (3, 4):
        chi = ChiMap(tuple(RNG.choice("lr") for _ in range(n)))
        ctx = build_context(chi)
        side = dict(enumerate(chi.sides, start=1))
        Z = [rand_elem() for _ in range(n)]
        for pi in enumerate_bnc(ctx):
            base = e_pi(pi, ctx, Z, MF)
            for t in range(3):
                r2 = random.Random(61 + t)
                v = reduce_in_random_order(
                    pi.blocks(), dict(enumerate(Z, start=1)), side, MF, r2
                )
                assert (v - base).is_zero()


class SymbolicContext(MomentContext):
    """Values are whole expressions, so a change of collapse order,
    insertion kind or target changes the value."""

    def expect(self, elems):
        return ("E",) + tuple(elems)

    def insert(self, kind, value, elem):
        if kind == APPEND_LEFT:
            return (elem, "L", value)
        return ("L" if kind == PREPEND_LEFT else "R", value, elem)


def test_plan_replay_matches_direct_reduction():
    # every chi with n <= 6: the moment table (one walk of the colouring's
    # program) against the oracle loop reduce_direct.  The algebra operands are
    # arbitrary 2x2 matrices, not side elements, so that the target of
    # each insertion changes the value: a nonzero corner (the expectation
    # reads it, so few moments vanish) plus one other nonzero entry.
    rng = random.Random(19)

    def draw(space):
        coeffs = [Fraction(0)] * 4
        for i in (0, rng.randrange(1, 4)):
            coeffs[i] = Fraction(rng.choice((-2, -1, 1, 2, 3)))
        return space.A.element(coeffs)

    spd = space_diag2()
    contexts = [
        (MF, lambda: draw(SP)),
        (AlgebraMomentContext(spd), lambda: draw(spd)),
        (SymbolicContext(), None),
    ]
    checked = 0
    for n in range(1, 7):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            side = dict(enumerate(sides, start=1))
            lattice = enumerate_bnc(ctx)
            for mf, sample in contexts:
                Z = [sample() for _ in range(n)] if sample else list(range(1, n + 1))
                table = moment_table(ctx, Z, mf)
                for pi in lattice:
                    ops = dict(enumerate(Z, start=1))
                    value, _ = reduce_direct(pi.blocks(), {}, ops, side, mf)
                    assert table[pi.rgs] == value, (sides, pi.rgs)
                    checked += 1
    assert checked == 3 * sum(2**n * catalan(n) for n in range(1, 7))


def test_symbolic_moment_tables_are_pinned():
    # every chi with n <= 6: the moment table of position operands under
    # SymbolicContext spells out each collapse order, insertion kind and
    # target, so this digest pins the collapse rule itself.  Taken from
    # the per-member reduce_blocks route, before the planner shared its
    # step with reduce_blocks.
    h = hashlib.sha256()
    for n in range(1, 7):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            table = moment_table(ctx, list(range(1, n + 1)), SymbolicContext())
            h.update(repr(("".join(sides), sorted(table.items()))).encode())
    assert h.hexdigest() == (
        "6b67a96e6f23885c651f2a152868f82b3a1b04e8da04aea1ed676dcbd255f97f"
    )


class RecordingContext(MomentContext):
    """Operands are positions; each expectation and insertion is noted as
    a plan step (positions, insertion), the last insertion None."""

    def __init__(self):
        self.steps = []

    def expect(self, elems):
        self.steps.append([tuple(elems), None])

    def insert(self, kind, value, elem):
        self.steps[-1][1] = (kind, elem)
        return elem


def _recorded_plan(rgs, side) -> list:
    """The steps the oracle loop reduce_direct takes on the closed blocks
    of rgs, run on their positions."""
    rec = RecordingContext()
    reduce_direct(SetPartition(rgs).blocks(), {}, {p: p for p in side}, side, rec)
    return [tuple(step) for step in rec.steps]


def _expanded(prog: Program) -> array:
    """The program with every root group compiled by one planning memo,
    in compile_plans' format: one node whose groups are the root groups'
    in order."""
    body = [len(prog.roots)]
    memo = {}
    for g in range(len(prog.roots)):
        body.extend(prog.subtree(g, memo)[1:])
    return array("H" if max(body) < 1 << 16 else "I", body)


def test_planner_matches_recorded_reductions():
    # every chi with n <= 7, and two with n = 8: the fully expanded
    # program against compile_plans over one plan per member, recorded by
    # running the oracle loop reduce_direct.  The programs for n <= 7 are also
    # pinned by one sha256 of their entries, which holds them fixed apart
    # from reduce_direct and the step rule the two share.
    h = hashlib.sha256()
    chis = [sides for n in range(1, 8) for sides in iproduct("lr", repeat=n)]
    for sides in chis + [tuple("lrrlrlrl"), tuple("llrrrlrr")]:
        ctx = build_context(ChiMap(sides))
        side = dict(enumerate(sides, start=1))
        blocks, _, pulled = bnc_lattice(ctx)
        want = compile_plans(
            (leaf, _recorded_plan(rgs, side)) for leaf, rgs in enumerate(pulled)
        )
        got = _expanded(Program(blocks, side))
        assert (got.typecode, got) == (want.typecode, want), sides
        if len(sides) < 8:
            code = ",".join(map(str, got))
            h.update(f"{''.join(sides)}:{got.typecode}:{code};".encode())
    assert h.hexdigest() == (
        "96ba4447d5a3ebf35bb65668aab61a01001e34daec055fb368a98e4f00686af2"
    )


class TracingContext(SymbolicContext):
    """SymbolicContext that also logs each expectation and insertion,
    the target named by the operand it receives."""

    def __init__(self):
        self.log = []

    def expect(self, elems):
        self.log.append(("E", tuple(elems)))
        return super().expect(elems)

    def insert(self, kind, value, elem):
        self.log.append(("I", kind, value, elem))
        return super().insert(kind, value, elem)


def test_stops_replay_matches_direct_reduction():
    # every diagram of enumerate_lr over two colours with n <= 5: the plan
    # reduce_blocks replays, with the top strings as stops, against the
    # oracle loop, step by step, and the operands the tops are left with
    checked = stopped = 0
    for n in range(1, 6):
        for sides in iproduct("lr", repeat=n):
            side = dict(enumerate(sides, start=1))
            for colours in iproduct((1, 2), repeat=n):
                for d in enumerate_lr(ChiMap(sides), EpsilonMap(colours)).diagrams:
                    gaps = {nodes: r + 1 for r, nodes in enumerate(d.spine_order)}
                    closed = tuple(nodes for nodes, top in d.strings if not top)
                    got, want = TracingContext(), TracingContext()
                    ops = list(range(n + 1))
                    direct, left = reduce_direct(
                        closed, gaps, dict(enumerate(ops)), side, want
                    )
                    moment = reduce_blocks(closed, gaps, ops, side, got)
                    assert (got.log, moment) == (want.log, direct), d.key()
                    tops = [p for nodes in d.spine_order for p in nodes]
                    assert [ops[p] for p in tops] == [left[p] for p in tops]
                    checked += 1
                    stopped += bool(gaps and closed)
    assert (checked, stopped) == (sum(8**n for n in range(1, 6)), 26_712)


def _mirrored_kinds(code: array) -> array:
    """A compiled program with PREPEND_LEFT and PREPEND_RIGHT exchanged in
    every insertion, read by the program grammar."""
    out = array(code.typecode, code)

    def node(i):
        groups = out[i]
        i += 1
        for _ in range(groups):
            i += 1 + out[i]  # the block's k positions
            i += 1 + out[i]  # its m leaves
            children = out[i]
            i += 1
            for _ in range(children):
                out[i] = (APPEND_LEFT, PREPEND_RIGHT, PREPEND_LEFT)[out[i]]
                i = node(i + 3)
        return i

    try:
        assert node(0) == len(out)
    finally:
        del node  # the closure refers to itself through its cell
    return out


def test_colouring_class_shares_lattice_and_program():
    """Lattices and programs are cached by the class line, which flipping
    side 1, flipping side n and exchanging l and r all keep.  For every
    chi with n <= 7 the colourings of a class (eight once n > 2) get the
    same lattice and program objects, and the program each one plans on
    its own sides is the shared one fully expanded, with the prepend kinds
    exchanged for the mirrored members."""
    classes: dict = {}
    for n in range(1, 8):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            classes.setdefault(ctx.line, []).append(ctx)
    assert len(classes) == 1 + 1 + sum(2 ** (n - 3) for n in range(3, 8))
    for line, ctxs in classes.items():
        n = len(line)
        assert len(ctxs) == (2**n if n < 3 else 8)
        assert [ctx.mirrored for ctx in ctxs].count(True) == (0 if n < 3 else 4)
        lattices = {id(bnc_lattice(ctx)) for ctx in ctxs}
        programs = {id(cumulants._program(ctx.line)) for ctx in ctxs}
        assert len(lattices) == len(programs) == 1
        shared = _expanded(cumulants._program(line))
        blocks = bnc_lattice(ctxs[0])[0]
        for ctx in ctxs:
            own = _expanded(Program(blocks, dict(enumerate(ctx.chi.sides, start=1))))
            if ctx.mirrored:
                own = _mirrored_kinds(own)
            assert (own.typecode, own) == (shared.typecode, shared), ctx.chi


def _plan_paths(code: array) -> dict:
    """Each leaf of a compiled program with its plan, read by the program
    grammar: the steps (positions, insertion) from the root to the
    leaf's group, the last insertion None."""
    paths = {}

    def node(i, prefix):
        groups = code[i]
        i += 1
        for _ in range(groups):
            k = code[i]
            positions = tuple(code[i + 1 : i + 1 + k])
            i += 1 + k
            m = code[i]
            for leaf in code[i + 1 : i + 1 + m]:
                paths[leaf] = prefix + ((positions, None),)
            i += 1 + m
            children = code[i]
            i += 1
            for _ in range(children):
                step = (positions, (code[i], code[i + 1]))
                i = node(i + 3, prefix + (step,))
        return i

    try:
        assert node(0, ()) == len(code)
    finally:
        del node  # the closure refers to itself through its cell
    return paths


def test_plans_are_pinned_apart_from_the_line():
    # every chi with n <= 7: each member's rgs with the plan its walk
    # takes, decoded from the class program with the prepend kinds
    # exchanged for a mirrored colouring, sorted by rgs.  Neither the
    # line's slot order nor the class sharing shows in it, so the digest
    # is the one the per-colouring programs gave before the lattice
    # tables were keyed by class.
    h = hashlib.sha256()
    for n in range(1, 8):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            code = _expanded(cumulants._program(ctx.line))
            if ctx.mirrored:
                code = _mirrored_kinds(code)
            pulled = bnc_lattice(ctx)[2]
            rows = sorted((pulled[leaf], plan) for leaf, plan in _plan_paths(code).items())
            h.update(repr(("".join(sides), rows)).encode())
    assert h.hexdigest() == (
        "24a2fcdb66b79fe75ad639b69a83f668d4e7778f60d9ba2e601559156349b0fd"
    )


def _counting_steps(monkeypatch) -> list:
    """Count bimult.collapse_step calls: the list's length."""
    calls = []
    step = bimult.collapse_step
    monkeypatch.setattr(bimult, "collapse_step", lambda *a: calls.append(1) or step(*a))
    return calls


def test_planner_works_out_each_state_once(monkeypatch):
    # n = 7, all colourings, fully expanded: one step per distinct state
    # (the blocks of a member below one of its labels), against 219,648
    # blocks in all
    calls = _counting_steps(monkeypatch)
    for sides in iproduct("lr", repeat=7):
        ctx = build_context(ChiMap(sides))
        _expanded(Program(bnc_lattice(ctx)[0], dict(enumerate(sides, start=1))))
    assert len(calls) == 128_128


@pytest.mark.parametrize(
    "shape, colours, lazy, eager",
    [("lbr", (1, 2, 1), 0, 28), ("bbb", (1, 2, 1), 44, 297)],
)
def test_audit_plans_only_the_root_groups_it_enters(
    monkeypatch, shape, colours, lazy, eager
):
    # doubled-m2 words, operands as ffb_sweep takes them: the audit's walk
    # plans only the root groups whose expectation does not vanish, so it
    # makes fewer collapse_step calls than planning the whole lattice
    system = load_system("doubled-m2", 6)
    faces = ffb._faces(system)
    Z = [(a,) for s, k in zip(shape, colours) for a in faces[s][k][0].chain]
    fctx = lr_replacement(ChiMap(tuple(shape), three_letter=True))
    ctx = build_context(fctx.chi)
    cumulants._program.cache_clear()
    calls = _counting_steps(monkeypatch)
    eps = fctx.expand_colours(EpsilonMap(colours))
    assert audit_ffb_word(fctx, eps, Z, FreeMomentContext(system.fp)).ok
    assert len(calls) == lazy
    assert None in cumulants._program(ctx.line).codes
    _expanded(Program(bnc_lattice(ctx)[0], dict(enumerate(fctx.chi.sides, start=1))))
    assert len(calls) - lazy == eager


def test_cumulant_table_matches_mobius_sum_of_single_moments():
    # every chi with n <= 6 over m2-scalar: the kernel mat-vec over one
    # walk of the colouring's program, against the sum of mu(pi, sigma)
    # e_pi over interval_below(sigma), each e_pi a one-leaf program
    rng = random.Random(23)
    checked = 0
    for n in range(1, 7):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            lattice = enumerate_bnc(ctx)
            Z = [rand_elem(rng) for _ in range(n)]
            single = {pi.rgs: e_pi(pi, ctx, Z, MF) for pi in lattice}
            table = cumulant_table(ctx, Z, MF)
            assert list(table) == [pi.rgs for pi in lattice]
            for sigma in lattice:
                want = SP.B.element([Fraction(0)])
                for rgs, mu in interval_below(sigma, ctx):
                    want = want + single[rgs].scale(mu)
                assert (table[sigma.rgs] - want).is_zero(), (sides, sigma.rgs)
                checked += 1
    assert checked == sum(2**n * catalan(n) for n in range(1, 7))


class CountingContext(MomentContext):
    """Counts expectations; every value is a placeholder."""

    def __init__(self):
        self.expects = 0

    def expect(self, elems):
        self.expects += 1
        return 0

    def insert(self, kind, value, elem):
        return elem


def _expect_prefixes(ctx) -> int:
    """Distinct plan prefixes that end in an expectation: the steps
    before it, then its block, over the plans of the whole lattice."""
    side = dict(enumerate(ctx.chi.sides, start=1))
    seen = set()
    for pi in enumerate_bnc(ctx):
        steps = _recorded_plan(pi.rgs, side)
        for j, (positions, _) in enumerate(steps):
            seen.add((tuple(steps[:j]), positions))
    return len(seen)


def test_moment_table_evaluates_each_plan_prefix_once():
    for n in range(1, 7):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            mf = CountingContext()
            moment_table(ctx, list(range(1, n + 1)), mf)
            assert mf.expects == _expect_prefixes(ctx), sides
    # n = 7, all colourings: one expectation per block of every partition
    # would be 219,648
    mf, blocks = CountingContext(), 0
    for sides in iproduct("lr", repeat=7):
        ctx = build_context(ChiMap(sides))
        moment_table(ctx, list(range(1, 8)), mf)
        blocks += sum(pi.num_blocks for pi in enumerate_bnc(ctx))
    assert blocks == 219_648
    assert mf.expects == 110_288


def _child_extents(prog, i=0) -> int:
    """Read the node at i by the program grammar alone, asserting that
    each child's recorded size is the length of its encoded node; the
    index just past the node."""
    groups = prog[i]
    i += 1
    for _ in range(groups):
        i += 1 + prog[i]  # the block's k positions
        i += 1 + prog[i]  # its m leaves
        children = prog[i]
        i += 1
        for _ in range(children):
            start = i + 3  # past kind, target and size
            end = _child_extents(prog, start)
            assert prog[i + 2] == end - start
            i = end
    return i


def test_program_records_each_child_extent():
    # every chi with n <= 6, fully expanded
    for n in range(1, 7):
        for sides in iproduct("lr", repeat=n):
            ctx = build_context(ChiMap(sides))
            prog = _expanded(Program(bnc_lattice(ctx)[0], dict(enumerate(sides, start=1))))
            assert _child_extents(prog) == len(prog), sides
            assert prog.typecode == "H"


def test_wide_program_builds_and_walks():
    # a subtree's typecode is read off its largest entry, not the leaf
    # count: at n = 9 every entry fits "H", and at n = 10 the child
    # extents of the largest root group outgrow it, though the 16,796
    # leaves would fit
    for sides, typecodes, size in (
        ("lrrlrlrrl", {"H"}, 77_877),
        ("lrrlrlrrll", {"H", "I"}, 272_206),
    ):
        ctx = build_context(ChiMap(tuple(sides)))
        blocks, _, pulled = bnc_lattice(ctx)
        prog = Program(blocks, dict(enumerate(sides, start=1)))
        out = {}
        assert run_program(prog, list(range(len(sides) + 1)), CountingContext(), out) is None
        assert out == dict.fromkeys(range(len(pulled)), 0)
        codes = [code for code in prog.codes if code is not None]
        assert {code.typecode for code in codes} == typecodes
        for code in codes:
            assert (max(code) >= 1 << 16) == (code.typecode == "I")
        assert len(_expanded(prog)) == size


class CountingFreeContext(FreeMomentContext):
    """Counts expectations; prune=False makes no value vanish."""

    def __init__(self, fp, prune=True):
        super().__init__(fp)
        self.prune = prune
        self.expects = 0

    def expect(self, elems):
        self.expects += 1
        return super().expect(elems)

    def vanishes(self, value):
        return self.prune and super().vanishes(value)


@pytest.mark.parametrize("fixture, max_n", [("doubled-dual", 3), ("doubled-m2", 2)])
def test_pruned_walk_matches_direct_reduction(fixture, max_n):
    # the operands of every FFB audit word of 1..max_n letters, where most
    # moments vanish, so the walk prunes most subtrees; reduce_direct on
    # each member never prunes
    system = load_system(fixture, 2 * max_n)
    mf = FreeMomentContext(system.fp)
    direct = FreeMomentContext(system.fp)
    checked = zeros = 0
    for shape, _, pools in ffb._word_sweep(ffb._faces(system), max_n, system.colours()):
        fctx = lr_replacement(ChiMap(shape, three_letter="b" in shape))
        Z = [(atom,) for pool in pools for atom in pool[0].chain]
        ctx = build_context(fctx.chi)
        side = dict(enumerate(fctx.chi.sides, start=1))
        table = moment_table(ctx, Z, mf)
        for pi in enumerate_bnc(ctx):
            ops = dict(enumerate(Z, start=1))
            value, _ = reduce_direct(pi.blocks(), {}, ops, side, direct)
            assert table[pi.rgs] == value, (fctx.chi_hat, pi.rgs)
            checked += 1
            zeros += value.is_zero()
    assert zeros > checked // 2


def test_pruning_skips_expectations():
    # one doubled-dual word of three boolean letters: expectations of one
    # pruned walk against the same walk with nothing vanishing
    system = load_system("doubled-dual", 6)
    fctx = lr_replacement(ChiMap(tuple("bbb"), three_letter=True))
    Z = [(atom,) for h in (1, 2, 1) for atom in system.bool_handles[h][0].chain]
    ctx = build_context(fctx.chi)
    counts = []
    for prune in (True, False):
        mf = CountingFreeContext(system.fp, prune)
        moment_table(ctx, Z, mf)
        counts.append(mf.expects)
    assert counts == [27, 264]


class KeyRecordingContext(AlgebraMomentContext):
    """An AlgebraMomentContext that walks as itself, with no memo, and
    records the value key of every expectation and insertion it makes."""

    def __init__(self, space):
        super().__init__(space)
        self.expects, self.inserts = [], []

    def expect(self, elems):
        self.expects.append(tuple(e.coeffs for e in elems))
        return super().expect(elems)

    def insert(self, kind, value, elem):
        self.inserts.append((kind, value.coeffs, elem.coeffs))
        return super().insert(kind, value, elem)

    def for_walk(self):
        return self


def test_walk_computes_each_distinct_expectation_and_insertion_once(monkeypatch):
    # seeded side-element words of 5-7 letters over m2-scalar and diag2:
    # the space computes one expectation per distinct operand-value tuple
    # and one insertion per distinct (kind, value, operand) of the walk,
    # and the table equals the unmemoized walk's
    calls = {"expect_word": 0, "insert": 0}
    for name in calls:
        method = getattr(BBProbSpace, name)

        def counting(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(BBProbSpace, name, counting)
    rng = random.Random(31)
    totals = []
    for space in (SP, space_diag2()):
        for sides in ("lrrll", "rlrlrl", "lrrlrll"):
            ctx = build_context(ChiMap(tuple(sides)))
            Z = [sample_side_element(space, s, rng) for s in sides]
            plain = KeyRecordingContext(space)
            want = moment_table(ctx, Z, plain)
            for name in calls:
                calls[name] = 0
            assert moment_table(ctx, Z, AlgebraMomentContext(space)) == want
            made = (len(plain.expects), len(plain.inserts))
            distinct = (len(set(plain.expects)), len(set(plain.inserts)))
            assert (calls["expect_word"], calls["insert"]) == distinct, sides
            totals.append((made, distinct))
    # (expectations, insertions) a plain walk makes, then the distinct ones
    assert totals == [
        ((69, 28), (53, 23)),
        ((189, 79), (95, 41)),
        ((780, 408), (507, 252)),
        ((83, 42), (27, 15)),
        ((126, 42), (43, 12)),
        ((864, 456), (79, 46)),
    ]


def test_walk_memo_lives_for_one_walk(monkeypatch):
    """A shared AlgebraMomentContext keeps no per-walk state: each walk
    of moment_table and cumulant_table runs through a fresh for_walk
    view, freed by reference counting when the walk returns."""
    views = []
    make = AlgebraMomentContext.for_walk

    def recording(self):
        view = make(self)
        views.append(weakref.ref(view))
        return view

    monkeypatch.setattr(AlgebraMomentContext, "for_walk", recording)
    spd = space_diag2()
    mf = AlgebraMomentContext(spd)
    rng = random.Random(37)
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for sides in ("lrl", "lrrlrl"):
            ctx = build_context(ChiMap(tuple(sides)))
            Z = [sample_side_element(spd, s, rng) for s in sides]
            moment_table(ctx, Z, mf)
            cumulant_table(ctx, Z, mf)
            assert vars(mf) == {"space": spd}
        assert len(views) == 4 and [ref() for ref in views] == [None] * 4
    finally:
        if enabled:
            gc.enable()


def test_diag2_moment_tables():
    spd = space_diag2()
    mfd = AlgebraMomentContext(spd)
    rng = random.Random(4)
    chi = ChiMap.parse("lrl")
    ctx = build_context(chi)
    Z = [sample_side_element(spd, chi.side(i), rng) for i in (1, 2, 3)]
    moments = moment_table(ctx, Z, mfd)
    kappas = cumulant_table(ctx, Z, mfd)
    assert set(moments) == set(kappas)
    assert moment_cumulant_roundtrip(ctx, moments, kappas)


def test_checks_evaluate_the_word_moment_once():
    # the word moment is the walk's leaf at slot 0 (1̂): each check
    # evaluates the full word once, with the walk, over m2-scalar
    rng = random.Random(43)
    Z = [sample_side_element(SP, s, rng) for s in "lrlr"]
    rec = KeyRecordingContext(SP)
    bifree_moment_check(ChiMap.parse("lrlr"), EpsilonMap((1, 2, 1, 2)), Z, rec)
    assert rec.expects.count(tuple(z.coeffs for z in Z)) == 1
    fctx = lr_replacement(ChiMap.parse("lb"))
    Z = [sample_side_element(SP, s, rng) for s in fctx.chi.sides]
    rec = KeyRecordingContext(SP)
    audit_ffb_word(fctx, EpsilonMap((1, 2, 2)), Z, rec)
    assert rec.expects.count(tuple(z.coeffs for z in Z)) == 1


def _free_family(word_cap=4):
    mod = scalar_module(2)
    fp = reduced_free_product({1: mod, 2: mod}, word_cap)
    return fp, mod


def test_bifree_criterion_on_represented_family():
    fp, mod = _free_family()
    mf = FreeMomentContext(fp)
    rng = random.Random(12)
    for _ in range(12):
        n = rng.randint(2, 4)
        sides = tuple(rng.choice("lr") for _ in range(n))
        colours = tuple(rng.choice([1, 2]) for _ in range(n))
        Z = []
        for s, k in zip(sides, colours):
            m = [
                [Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)
            ]
            Z.append(((s, k, module_operator(mod, m)),))
        rep = bifree_moment_check(ChiMap(sides), EpsilonMap(colours), Z, mf)
        assert rep.ok, rep.to_json()


def test_bifree_negative_control():
    # same-module operators tagged with different colours are not free
    fp, mod = _free_family()
    mf = FreeMomentContext(fp)
    rng = random.Random(3)
    found_violation = False
    for _ in range(12):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        op = module_operator(mod, m)
        # colour-2 slot filled with a colour-1 operator: a mixed word
        # whose representation no longer matches the colouring
        Z = [
            (("l", 1, op),),
            (("l", 1, op),),
        ]
        rep = bifree_moment_check(ChiMap.parse("ll"), EpsilonMap((1, 2)), Z, mf)
        if not rep.ok:
            found_violation = True
            break
    assert found_violation


def test_ffb_formula_requires_pair_colours():
    fp, mod = _free_family(2)
    mf = FreeMomentContext(fp)
    ident = module_operator(
        mod,
        [[Fraction(i == j) for j in range(3)] for i in range(3)],
    )
    Z = [(("l", 1, ident),), (("r", 2, ident),)]
    # b with its pair split; bb with its first pair one colour and its
    # second alone split
    for chi_hat, colours in (("b", (1, 2)), ("bb", (1, 1, 1, 2))):
        fctx = lr_replacement(ChiMap.parse(chi_hat))
        with pytest.raises(ColouringError):
            audit_ffb_word(fctx, EpsilonMap(colours), Z * len(chi_hat), mf)


def test_ffb_formula_without_boolean_slots_is_bifree_formula():
    fp, mod = _free_family()
    mf = FreeMomentContext(fp)
    rng = random.Random(21)
    chi_hat = ChiMap("lr", three_letter=True)
    fctx = lr_replacement(chi_hat)
    m1 = module_operator(
        mod, [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    )
    m2 = module_operator(
        mod, [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    )
    Z = [(("l", 1, m1),), (("r", 2, m2),)]
    rep = audit_ffb_word(fctx, EpsilonMap((1, 2)), Z, mf)
    assert rep.ok, rep.to_json()


def test_one_colouring_is_one_sublattice_key():
    # a colouring is its letters: three spellings of lr are one context
    # key, so the sublattice tables are built once for them
    spellings = (
        ChiMap(("l", "r"), three_letter=True),
        ChiMap.parse("lr"),
        ChiMap("lr", three_letter=True),
    )
    cumulants._sublattice.cache_clear()
    for chi in spellings:
        cumulants._sublattice(lr_replacement(chi))
    info = cumulants._sublattice.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


def test_mixed_cumulants_vanish_up_to_length_five():
    fp, mod = _free_family(word_cap=5)
    mf = FreeMomentContext(fp)
    rng = random.Random(31)
    sides = tuple(rng.choice("lr") for _ in range(5))
    colours = (1, 2, 1, 1, 2)
    Z = []
    for s, k in zip(sides, colours):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
        Z.append(((s, k, module_operator(mod, m)),))
    ctx = build_context(ChiMap(sides))
    kap = kappa_pi(SetPartition.full(5), ctx, Z, mf)
    assert kap.is_zero()


def test_empty_word_is_one_partition_with_moment_one():
    """n = 0: NC(0) is the empty partition alone, whose moment and
    cumulant are the expectation of the empty product, 1, and the
    independence check and the FFB audit pass every claim; over m2-scalar
    and over a scalar free product."""
    ctx = build_context(ChiMap(()))
    empty = SetPartition(())
    fp = reduced_free_product({1: scalar_module(2), 2: scalar_module(2)}, 1)
    for mf, one in ((MF, SP.B.one()), (FreeMomentContext(fp), fp.B.one())):
        assert e_pi(empty, ctx, [], mf) == one
        assert moment_table(ctx, [], mf) == {(): one}
        assert cumulant_table(ctx, [], mf) == {(): one}
        assert kappa_pi(empty, ctx, [], mf) == one
        assert bifree_moment_check(ChiMap(()), EpsilonMap(()), [], mf).ok
        fctx = lr_replacement(ChiMap(()))
        assert audit_ffb_word(fctx, EpsilonMap(()), [], mf).ok


def test_interval_weights_match_summed_cumulants():
    # one weight map over the moment table against a kappa_pi per top,
    # on a random table, for every chi-hat of expanded length <= 5
    rng = random.Random(5)
    shapes = 0
    for n_hat in range(1, 6):
        for shape in iproduct("lrb", repeat=n_hat):
            if n_hat + shape.count("b") > 5:
                continue
            fctx = lr_replacement(ChiMap(shape, three_letter="b" in shape))
            ctx = build_context(fctx.chi)
            lattice = enumerate_bnc(ctx)
            table = {pi.rgs: SP.B.element([Fraction(rng.randint(-9, 9))]) for pi in lattice}
            colours = EpsilonMap(tuple(rng.choice((1, 2)) for _ in range(ctx.n)))
            _, slots, pulled = bnc_lattice(ctx)
            for tops in (
                [pi for pi in lattice if keeps_boolean_pairs(pi.rgs, fctx)],
                [pi for pi in lattice if refines(pi, colours.as_partition())],
            ):
                zero = SP.B.element([Fraction(0)])
                slot = dict(zip(lattice, slots))
                weights = _interval_weights(ctx.n, [slot[pi] for pi in tops])
                got = _slot_sum({t: table[pulled[t]] for t in slots}, weights, zero)
                want = zero
                for pi in tops:
                    want = want + kappa_pi(pi, ctx, None, None, moments=table)
                assert (got or zero) == want, (shape, colours.colours)
            shapes += 1
    assert shapes == 118
