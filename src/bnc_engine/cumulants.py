"""Partition-indexed moments, cumulants, and independence criteria.

Moments are evaluated through one MomentContext per algebra: elements
of an ambient algebra here (AlgebraMomentContext), operator chains on
the free product in freeprod (FreeMomentContext); cumulants invert
them along the bi-non-crossing lattice.  AlgebraMomentContext reads
the kernels its space builds once: a word's expectation closes with
the bilinear form (y, x) ↦ E(y·x), and insert(kind, value, elem)
passes the collapse kind on to BBProbSpace.insert, which combines that
kind's sparse maps (x ↦ x·L_b, L_b·x or R_b·x).  A walk evaluates
through a fresh view, AlgebraMomentContext.for_walk(), that computes
each distinct expectation (keyed by its operands' coefficient tuples, in
order) and each distinct insertion (keyed by kind, value and operand
coefficients) once: sibling and cousin groups keep multiplying the same
operand values.  The view is dropped when the walk returns, so the
context a caller holds keeps nothing between calls.  The reduction plans
of every member of a colouring's lattice form one bimult.Program,
whose leaves are the NC(n) slots; it takes the members' blocks as the
lattice's one pass left them, and plans the members below a root group
(their last block) only when a walk first enters that group with a
value that does not vanish.  The eight colourings of a class (see
partitions) share one program, planned on the class representative's
sides; a mirrored colouring walks it through _Mirrored, which exchanges
the prepend kinds.  A moment table is one walk of that program through
the context's for_walk() view, the leaves below a vanishing expectation
filled with the zero the walk met.
e_pi replays one partition's plan with bimult.reduce_blocks, as a
diagram's closed strings are replayed.
A cumulant is pi's row of the NC(n) Mobius kernel (nc_row) over the
moment vector, so a cumulant table is one sparse integer mat-vec.

The independence check and the FFB word audit read only the leaves that
one walk reaches: the word moment is the leaf at slot 0 (1̂), and each
of their sums is one _slot_sum over those slots, weighted by slot from
row 0 of the kernel or from the summed rows of a set of tops picked by
the lattice order (for the audit the boolean-pair sublattice U, the
members above bottom, once per word shape).  The audit counts the
colour-refining partitions off U by growing them on the relabelled
line, not by a scan.  Each table that outlives a call is the lru_cache
of its builder (_program, _sublattice and _off_lattice), keyed by what
it depends on: the program by the class line, the sublattice tables by
the audit's FfbContext.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from .algebra import AlgebraElement, BBProbSpace, CheckReport, SideMismatch
from .bimult import (
    APPEND_LEFT,
    PREPEND_LEFT,
    PREPEND_RIGHT,
    MomentContext,
    Program,
    reduce_blocks,
    run_program,
)
from .errors import InputError
from .partitions import (
    BNCContext,
    ChiMap,
    EpsilonMap,
    FfbContext,
    NotBNC,
    SetPartition,
    SizeMismatch,
    _nc_slot,
    _pullback,
    _shared_pair,
    bnc_lattice,
    build_context,
    catalan,
    is_bnc,
    nc_row,
)


class ColouringError(InputError):
    """Colour map violates the boolean-pair constancy condition."""


class AlgebraMomentContext(MomentContext):
    """Moments of actual algebra elements under a space's expectation."""

    def __init__(self, space: BBProbSpace):
        self.space = space

    def expect(self, elems):
        return self.space.expect_word(elems)

    def insert(self, kind, value, elem):
        return self.space.insert(kind, value, elem)

    def vanishes(self, value) -> bool:
        return value.is_zero()

    def verify_side(self, elem, side: str) -> bool:
        return self.space.commutant_failure(elem, side) is None

    def for_walk(self) -> "_WalkMemo":
        return _WalkMemo(self.space)


class _WalkMemo(AlgebraMomentContext):
    """An AlgebraMomentContext for one walk: each distinct expectation,
    keyed by its operands' coefficient tuples in order, and each distinct
    insertion, keyed by (kind, value.coeffs, elem.coeffs), is computed
    once and then read back, for as long as the walk holds the view."""

    def __init__(self, space: BBProbSpace):
        super().__init__(space)
        self._expects: dict = {}
        self._inserts: dict = {}

    def expect(self, elems):
        key = tuple([e.coeffs for e in elems])
        value = self._expects.get(key)
        if value is None:
            value = self._expects[key] = self.space.expect_word(elems)
        return value

    def insert(self, kind, value, elem):
        key = (kind, value.coeffs, elem.coeffs)
        out = self._inserts.get(key)
        if out is None:
            out = self._inserts[key] = self.space.insert(kind, value, elem)
        return out


def e_pi(
    pi: SetPartition, ctx: BNCContext, Z: list, mf: MomentContext
) -> AlgebraElement:
    """The recursive partition moment, a B element: pi's reduction plan,
    replayed on Z by bimult.reduce_blocks."""
    if pi.n != ctx.n or len(Z) != ctx.n:
        raise SizeMismatch("partition, colouring, and operands disagree")
    if not is_bnc(pi, ctx):
        raise NotBNC(f"{pi} not bi-non-crossing for {ctx.chi}")
    for i, z in enumerate(Z, start=1):
        if not mf.verify_side(z, ctx.chi.side(i)):
            raise SideMismatch(f"operand {i} not in the {ctx.chi.side(i)} side")
    side = dict(enumerate(ctx.chi.sides, start=1))
    return reduce_blocks(tuple(pi.blocks()), {}, [None, *Z], side, mf)


@lru_cache(maxsize=None)
def _program(line: tuple[int, ...]) -> Program:
    """The program of every plan in the class line's lattice, leaf = NC(n)
    slot, planned on the sides of the class's representative: the
    positions before n on the line are left and those after it right.
    Keyed by the class line, maxsize=None, so every colouring of a class
    walks one program (see partitions).  The planner reads side n only
    for the singleton {n}, which always folds as a tail (APPEND_LEFT), so
    the side map omits n."""
    k = line.index(len(line)) if line else 0
    side = dict.fromkeys(line[:k], "l") | dict.fromkeys(line[k + 1 :], "r")
    return Program(_pullback(line)[0], side)


class _Mirrored(MomentContext):
    """A walk context with the prepend kinds exchanged: a mirrored
    colouring walks its class's program, planned on the representative's
    sides, through it.  Expectations and vanishing are the context's own
    methods, not wrappers."""

    def __init__(self, ctx: MomentContext):
        self.expect = ctx.expect
        self.vanishes = ctx.vanishes
        self._insert = ctx.insert

    def insert(self, kind, value, elem):
        return self._insert(_MIRROR[kind], value, elem)


_MIRROR = (APPEND_LEFT, PREPEND_RIGHT, PREPEND_LEFT)


def _walk(ctx: BNCContext, Z: list, mf: MomentContext):
    """One walk of the colouring's class program (see run_program),
    through _Mirrored when the colouring is mirrored: the moments of the
    leaves it reached, by NC(n) slot, and the zero that the leaves below
    a vanishing expectation hold, None when every leaf was reached."""
    bnc_lattice(ctx)  # refuses an n over the cap before any plan
    view = mf.for_walk()
    if ctx.mirrored:
        view = _Mirrored(view)
    out: dict = {}
    return out, run_program(_program(ctx.line), [None, *Z], view, out)


def moment_table(ctx: BNCContext, Z: list, mf: MomentContext):
    """All partition moments, keyed by rgs in lattice order: one walk of
    the colouring's program, the leaves it stepped over filled with the
    zero it met."""
    _, slots, pulled = bnc_lattice(ctx)
    out, zero = _walk(ctx, Z, mf)
    return {pulled[t]: out.get(t, zero) for t in slots}


def kappa_pi(
    pi: SetPartition,
    ctx: BNCContext,
    Z: list,
    mf: MomentContext,
    moments: dict | None = None,
) -> AlgebraElement:
    """Cumulant: pi's row of the Mobius kernel, by its NC(n) slot, over
    the moment table (the full table on Z unless given)."""
    if not is_bnc(pi, ctx):
        raise NotBNC(f"{pi} not bi-non-crossing for {ctx.chi}")
    if moments is None:
        moments = moment_table(ctx, Z, mf)
    pulled = bnc_lattice(ctx)[2]
    below, mus = nc_row(ctx.n, _nc_slot(pi, ctx))
    return _combine([moments[pulled[u]] for u in below], mus)


def _combine(elems: list, weights) -> AlgebraElement:
    """The sum of elems[i] scaled by the integer weights[i]: one sum of
    products per coefficient."""
    cols = zip(*[e.coeffs for e in elems])
    return AlgebraElement(
        elems[0].parent, tuple([sum(map(mul, weights, col)) for col in cols])
    )


def _slot_sum(values: dict, weights, zero) -> AlgebraElement:
    """Sum of values[t] scaled by the integer weights[t] over the NC(n)
    slots t that values holds; zero when it holds none."""
    if not values:
        return zero
    return _combine(list(values.values()), [weights[t] for t in values])


def cumulant_table(ctx: BNCContext, Z: list, mf: MomentContext, moments=None):
    """All cumulants, keyed by rgs in lattice order: the moment table (on
    Z unless given) as a vector by NC(n) slot, times the Mobius kernel."""
    if moments is None:
        moments = moment_table(ctx, Z, mf)
    _, slots, pulled = bnc_lattice(ctx)
    vec = [moments[rgs] for rgs in pulled]
    out = {}
    for t in slots:
        below, mus = nc_row(ctx.n, t)
        out[pulled[t]] = _combine([vec[u] for u in below], mus)
    return out


def moment_cumulant_roundtrip(ctx: BNCContext, moments: dict, kappas: dict) -> bool:
    """Sum of cumulants below pi re-assembles the pi moment, for every pi."""
    pulled = bnc_lattice(ctx)[2]
    vec = [kappas[rgs] for rgs in pulled]
    for t, rgs in enumerate(pulled):
        below = nc_row(ctx.n, t)[0]
        total = _combine([vec[u] for u in below], [1] * len(below))
        if not (total - moments[rgs]).is_zero():
            return False
    return True


def _interval_weights(n: int, tops) -> list[int]:
    """Sum over the slots sigma in tops of kappa(sigma), as one weight
    per moment, by NC(n) slot: the weight of pi is the sum of
    mu(pi, sigma) over the tops above it."""
    weights = [0] * catalan(n)
    for sigma in tops:
        below, mus = nc_row(n, sigma)
        for t, mu in zip(below, mus):
            weights[t] += mu
    return weights


def bifree_moment_check(
    chi: ChiMap, eps: EpsilonMap, Z: list, mf: MomentContext
) -> CheckReport:
    """Both forms of the independence criterion on one word.

    The word expectation must equal the sum of the cumulants of the
    colour-refining partitions; equivalently the full-word cumulant
    vanishes for mixed colours.  The expectation (slot 0, 1̂) and both
    sums read the slots one walk reaches, as audit_ffb_word's do, the
    cumulant's in row 0 of the kernel.
    """
    ctx = build_context(chi)
    rep = CheckReport()
    out, _ = _walk(ctx, Z, mf)
    lhs = out[0]
    zero = lhs.parent.zero()
    pulled = bnc_lattice(ctx)[2]
    colours = eps.as_partition().rgs
    tops = [t for t, rgs in enumerate(pulled) if _shared_pair(colours, rgs) is None]
    total = _slot_sum(out, _interval_weights(ctx.n, tops), zero)
    ok = (lhs - total).is_zero()
    rep.record(
        "moment-formula", ok, None if ok else {"lhs": str(lhs), "rhs": str(total)}
    )
    if len(set(eps.colours)) > 1:
        kap = _slot_sum(out, nc_row(ctx.n, 0)[1], zero)
        ok = kap.is_zero()
        rep.record("mixed-cumulant-vanishes", ok, None if ok else str(kap))
    else:
        rep.record("mixed-cumulant-vanishes", True)
    return rep


@lru_cache(maxsize=None)
def _sublattice(fctx: FfbContext):
    """The boolean-pair sublattice's members (the slots above bottom) and
    the weights summing their cumulants, by NC(n) slot; keyed by the
    word's FfbContext, maxsize=None."""
    ctx = build_context(fctx.chi)
    bottom = fctx.bottom.rgs
    members = frozenset(
        t
        for t, rgs in enumerate(bnc_lattice(ctx)[2])
        if _shared_pair(rgs, bottom) is None
    )
    return members, _interval_weights(ctx.n, members)


@lru_cache(maxsize=None)
def _off_lattice(fctx: FfbContext, classes: tuple[int, ...]) -> int:
    """_refining_off_lattice, keyed by the word's FfbContext and colour
    classes; maxsize=None."""
    ctx = build_context(fctx.chi)
    return _refining_off_lattice(ctx, classes, fctx.boolean_pair_starts())


def _refining_off_lattice(ctx: BNCContext, classes: tuple, starts) -> int:
    """How many lattice members refine the colour classes (an rgs of
    1..n) and split a boolean pair (j, j + 1 for j in starts).

    The members are grown as NC(n) is, on the class line: each slot
    joins an open block of its own colour, closing every block opened
    after it, or opens a new one.  A block is named by its first slot.
    """
    n = ctx.n
    colour = [classes[i - 1] for i in ctx.line]
    pairs = [(ctx.rank[j - 1], ctx.rank[j]) for j in starts]
    labels = [0] * n
    count = 0

    def grow(t, open_):
        nonlocal count
        if t == n:
            count += any(labels[a] != labels[b] for a, b in pairs)
            return
        for k, head in enumerate(open_):
            if colour[head] == colour[t]:
                labels[t] = head
                grow(t + 1, open_[: k + 1])
        labels[t] = t
        grow(t + 1, (*open_, t))

    try:
        grow(0, ())
    finally:
        del grow  # the closure refers to itself through its cell
    return count


def audit_ffb_word(
    fctx: FfbContext, eps: EpsilonMap, Z: list, mf: MomentContext
) -> CheckReport:
    """Every word-level FFB claim off one walk of the moment program.

    Z is the expanded operand list (each boolean slot contributing its
    two factors); eps the expanded colour map.  The claims, in order:
    the word moment is the sum of the cumulants over the boolean-pair
    sublattice; the full-word cumulant restricted to that sublattice is
    unchanged; colour-refining partition moments vanish off it; and the
    full-word cumulant vanishes unless the colour map is constant.

    The sublattice U is the interval [bottom, 1̂] (see FfbContext), so
    the weights that sum its cumulants are δ(π, 1̂) on U.  The first claim
    therefore holds exactly when the moments off U, under those weights,
    add to 0, and the second when they add to 0 under mu(π, 1̂): both sum
    claims test off-lattice moments only.

    The word moment is the leaf at slot 0 (1̂); the walk writes only the
    leaves it reaches, and every sum reads only the nonzero ones among
    them.  The off-lattice claim names how many
    colour-refining partitions lie off the sublattice, counted by
    _refining_off_lattice once per word shape and colour classes, and its
    witnesses are the nonzero ones among them, in lattice order.
    """
    if eps.n != fctx.n or len(Z) != fctx.n:
        raise SizeMismatch("expanded operands must match the expanded colouring")
    if _shared_pair(eps.colours, fctx.bottom.rgs) is not None:
        raise ColouringError("boolean pairs must be monochromatic")
    ctx = build_context(fctx.chi)
    out, _ = _walk(ctx, Z, mf)
    nonzero = {t: v for t, v in out.items() if not v.is_zero()}
    members, member_weights = _sublattice(fctx)
    # row 0 of the kernel is 1's: every slot, in order, with mu(pi, 1)
    below_one = nc_row(ctx.n, 0)[1]
    rep = CheckReport()

    lhs = out[0]
    zero = lhs.parent.zero()
    total = _slot_sum(nonzero, member_weights, zero)
    ok = (lhs - total).is_zero()
    rep.record(
        "ffb-moment-formula", ok, None if ok else {"lhs": str(lhs), "rhs": str(total)}
    )
    kap = _slot_sum(nonzero, below_one, zero)
    restricted = _slot_sum(
        {t: v for t, v in nonzero.items() if t in members}, below_one, zero
    )
    ok = (kap - restricted).is_zero()
    rep.record(
        "ffb-cumulant-restriction",
        ok,
        None if ok else {"full": str(kap), "restricted": str(restricted)},
    )

    classes = eps.as_partition().rgs
    off = _off_lattice(fctx, classes)
    pulled = bnc_lattice(ctx)[2]
    bad = sorted(
        (pulled[t], v)
        for t, v in nonzero.items()
        if t not in members and _shared_pair(classes, pulled[t]) is None
    )
    witness = [
        {"id": f"vanishes-{rgs}", "status": "fail", "witness": str(v)}
        for rgs, v in bad[:5]
    ]
    rep.record(f"off-lattice-vanishing ({off} partitions)", not bad, witness=witness)

    if len(set(eps.colours)) > 1:
        ok = kap.is_zero()
        rep.record("mixed-ffb-cumulant-vanishes", ok, None if ok else str(kap))
    else:
        rep.record("constant-colour-cumulant", True)
    return rep
