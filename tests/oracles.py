"""Reference definitions that the tests read.

Each one is plain and slow on purpose: the engine's own routes are
checked against it, so none of it lives in the package.
"""

from bnc_engine.bimult import ReductionError, collapse_step
from bnc_engine.diagrams import _relabelled, _restriction, make_diagram
from bnc_engine.freeprod import FreeMomentContext, _ratio, e_d_vector
from bnc_engine.partitions import (
    ChiMap,
    EpsilonMap,
    SetPartition,
    SizeMismatch,
    _canonical_rgs,
    _crossing_pair,
    _nc_slot,
    _shared_pair,
    bnc_lattice,
    build_context,
    enumerate_bnc,
    nc_row,
    refines,
    relabelled_rgs,
)


def all_partitions(n: int):
    """All set partitions of {1..n} in lexicographic rgs order."""

    def rec(prefix: list[int], mx: int):
        if len(prefix) == n:
            yield SetPartition(tuple(prefix))
            return
        for b in range(mx + 2):
            prefix.append(b)
            yield from rec(prefix, max(mx, b))
            prefix.pop()

    if n == 0:
        yield SetPartition(())
        return
    yield from rec([], -1)


def join(pi: SetPartition, sigma: SetPartition, ctx) -> SetPartition:
    """Smallest bi-non-crossing partition above both.

    On the relabelled line, blocks of pi that share a block of sigma or
    cross are merged until no such pair is left.
    """
    if pi.n != sigma.n or pi.n != ctx.n:
        raise SizeMismatch("partition sizes differ")
    labels = relabelled_rgs(pi, ctx)
    other = relabelled_rgs(sigma, ctx)
    while (pair := _shared_pair(labels, other) or _crossing_pair(labels)):
        keep, drop = pair
        labels = tuple(keep if b == drop else b for b in labels)
    return SetPartition(_canonical_rgs(labels[t] for t in ctx.rank))


def interval_below(
    sigma: SetPartition, ctx
) -> list[tuple[tuple[int, ...], int]]:
    """(rgs of pi, mu(pi, sigma)) for every bi-non-crossing pi <= sigma:
    sigma's row of the NC(n) kernel, pulled back.  mu never vanishes on
    an NC interval, so every member of the interval is listed."""
    pulled = bnc_lattice(ctx)[2]
    slots, mus = nc_row(ctx.n, _nc_slot(sigma, ctx))
    return [(pulled[t], mu) for t, mu in zip(slots, mus)]


def max_top_strings(ops) -> int:
    """The most top strings that any branch of lr_decompose's expansion
    of ops holds, ops a word of (side, colour, ...) atoms: the colour
    tuples of the top strings that the branching reaches, walked from the
    last position to the first with no vectors.  A node joins the end
    string of its side when the colours match, and then keeps it at the
    top or closes it; otherwise it opens a string there, or one that it
    closes at once."""
    reach: set[tuple[int, ...]] = {()}
    most = 0
    for side, colour, *_ in reversed(ops):
        nxt = set()
        for tops in reach:
            end = 0 if side == "l" else len(tops) - 1
            if tops and tops[end] == colour:
                nxt.add(tops)
                nxt.add(tops[:end] + tops[end + 1 :])
                continue
            nxt.add((colour,) + tops if side == "l" else tops + (colour,))
            nxt.add(tops)
        reach = nxt
        most = max(most, *map(len, reach))
    return most


def keeps_boolean_pairs(rgs: tuple[int, ...], fctx) -> bool:
    """The boolean-pair sublattice by its definition: each boolean pair
    j, j + 1 of fctx's expansion lies in one block of rgs."""
    return all(rgs[j - 1] == rgs[j] for j in fctx.boolean_pair_starts())


def off_lattice_refining(fctx, colours: SetPartition) -> list:
    """The members of fctx's expanded lattice that refine the colour
    classes and split a boolean pair, in lattice order: a scan of the
    whole lattice."""
    return [
        pi
        for pi in enumerate_bnc(build_context(fctx.chi))
        if not keeps_boolean_pairs(pi.rgs, fctx) and refines(pi, colours)
    ]


def to_partition(d) -> SetPartition:
    """The partition of 1..n into a diagram's strings."""
    return SetPartition.from_blocks(d.n, [nodes for nodes, _ in d.strings])


def restrict(d, i: int):
    """d's restriction to nodes i..n, relabelled to 1..n-i+1, as a
    diagram: chi_extensions matches full-closure diagrams by its strings
    and spine order (diagrams._restriction) without making one."""
    if not 1 <= i <= d.n + 1:
        raise ValueError(f"position {i} out of range")
    side = dict(enumerate(d.chi.sides, start=1))
    strings, order = _relabelled(*_restriction(d, i, side), 1 - i)
    chi, eps = ChiMap(d.chi.sides[i - 1 :]), EpsilonMap(d.eps.colours[i - 1 :])
    return make_diagram(chi, eps, strings, order)


def collect_by_term(fp, chi, eps, ops, terms, coefficients):
    """lr_decompose's sums of its expansion terms, assembled term by term:
    each term's tensor word is made on its own (tensor_embed), cleaned,
    and added with its sign to the direct word, to the projected word or
    its diagram's residual part, and, with coefficients, to its diagram's
    total.  Returns direct, primed, residual and contributions, the last
    two as (diagram key, coefficient, vector) in diagram-key order, the
    coefficients read as lr_decompose reads them (_ratio of the total or
    part to e_d_vector) and None without coefficients."""
    nb = fp.B.dim
    direct, primed, parts, totals = {}, {}, {}, {}
    for t in terms:
        if t.top:
            vec = fp.tensor_embed([(k, u[nb:]) for _, k, u in t.top])
        else:
            vec = {(): {i: c for i, c in enumerate(t.bval) if c}}
        key = (tuple(sorted(t.done)), tuple(nodes for nodes, _, _ in t.top))
        sums = [direct, primed if t.primed else parts.setdefault(key, {})]
        if coefficients:
            sums.append(totals.setdefault(key, {}))
        for out in sums:
            for seq, comp in vec.items():
                tgt = out.setdefault(seq, {})
                for i, c in comp.items():
                    tgt[i] = tgt.get(i, 0) + t.coeff * c

    def clean(vec):
        kept = {seq: {i: c for i, c in comp.items() if c} for seq, comp in vec.items()}
        return {seq: comp for seq, comp in kept.items() if comp}

    def groups(sums):
        made = []
        for (done, top), vec in sums.items():
            strings = [(s, False) for s in done] + [(s, True) for s in top]
            part = clean(vec)
            if part:
                made.append((make_diagram(chi, eps, strings, top), part))
        return sorted(made, key=lambda g: g[0].key())

    mf = FreeMomentContext(fp)
    residual = [
        (d.key(), _ratio(fp, v, e_d_vector(d, ops, mf)) if coefficients else None, v)
        for d, v in groups(parts)
    ]
    contributions = []
    for d, total in groups(totals):
        rule = e_d_vector(d, ops, mf)
        c = _ratio(fp, total, rule)
        if c:
            contributions.append((d.key(), c, rule))
    return clean(direct), clean(primed), residual, contributions


def _last(rest) -> int:
    """collapse_step's last: the largest position in the blocks rest."""
    return max([w[-1] for w in rest], default=0)


def reduce_direct(closed, gaps: dict, ops, side: dict, ctx):
    """The moment recursion run step by step, with no plan: rescan the
    closed blocks for the one with the largest minimum, collapse it, and
    repeat until only the top-gap blocks of gaps are left.  ops maps each
    position to its operand.  Returns the moment, or None when tops
    remain, and a copy of ops as the collapses left it.

    It is the reference for bimult.plans, the one planner in the
    package, which memoises each step over shared states, carries the
    largest position along a member and holds a diagram's tops as
    stops.  This loop finds every step afresh, the block by a rescan and
    last by a max over what survives, so a fault in any of those shows
    as a step that differs.
    """
    closed, ops = list(closed), dict(ops)
    while closed:
        v = max(closed, key=lambda b: b[0])
        closed.remove(v)
        value = ctx.expect([ops[p] for p in v])
        rest = [*gaps, *closed]
        step = collapse_step(v, rest, _last(rest), side, gaps)
        if step is None:
            return value, ops
        kind, target = step
        ops[target] = ctx.insert(kind, value, ops[target])
    return None, ops


def reduce_in_random_order(blocks, ops: dict, side: dict, ctx, rng):
    """The moment of closed blocks, collapsed in an order rng picks: each
    step takes any block whose collapse is legal, that is, any block for
    which collapse_step raises no ReductionError."""
    blocks, ops = list(blocks), dict(ops)
    while True:
        legal = []
        for v in blocks:
            rest = [b for b in blocks if b != v]
            try:
                legal.append((v, rest, collapse_step(v, rest, _last(rest), side)))
            except ReductionError:
                pass
        v, blocks, step = rng.choice(legal)
        value = ctx.expect([ops[p] for p in v])
        if step is None:
            return value
        kind, target = step
        ops[target] = ctx.insert(kind, value, ops[target])


def kreweras_blocks(labels) -> list[tuple[int, ...]]:
    """The blocks of the Kreweras complement K(π) of a non-crossing
    partition π of the line 0..n-1, one label per point: the cycles of
    the permutation π⁻¹γ, where π sends each point to the next of its
    block (the last to the first) and γ is the cycle (0 1 ... n-1)."""
    n = len(labels)
    blocks: dict = {}
    for i, b in enumerate(labels):
        blocks.setdefault(b, []).append(i)
    inverse = {}  # π⁻¹: each point to the one before it in its block
    for blk in blocks.values():
        for a, b in zip(blk, blk[1:] + blk[:1]):
            inverse[b] = a
    seen: set = set()
    out = []
    for i in range(n):
        cycle = []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = inverse[(i + 1) % n]
        if cycle:
            out.append(tuple(sorted(cycle)))
    return out


def mat_mul(a, b) -> list:
    """The dense matrix product a·b of two lists of rows."""
    cols = len(b[0]) if b else 0
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), 0) for j in range(cols)]
        for i in range(len(a))
    ]
