"""Partition-indexed moments, cumulants, and independence criteria.

Moments are evaluated through one MomentContext per algebra: elements
of an ambient algebra here (AlgebraMomentContext), operator chains on
the free product in freeprod (FreeMomentContext); cumulants invert
them along the bi-non-crossing lattice.  AlgebraMomentContext reads
the kernels its space builds once: a word's expectation closes with
the bilinear form (y, x) ↦ E(y·x), and insert(kind, value, elem)
passes the collapse kind on to BBProbSpace.insert, which combines that
kind's sparse maps (x ↦ x·L_b, L_b·x or R_b·x).  The reduction plans
of every member of a colouring's lattice are compiled once per s_chi
into one program over their shared step prefixes, whose leaves are the
NC(n) slots; bimult.plan_partitions reads the members' blocks straight
from their pulled-back rgs and works out each distinct reduction
state's step once.  Keying by s_chi is exact: chi and chi with its
last side flipped have one s_chi, and the planner reads side n only
for the singleton {n}, a tail fold that reads no side.  A moment table
is one walk of that program, and e_pi is plan_partitions on the one
partition's rgs, a one-leaf program.  A cumulant is one row of the
NC(n) Mobius kernel (nc_row) over the moment vector, so a cumulant
table is one sparse integer mat-vec.
"""

from __future__ import annotations

from array import array
from operator import mul

from .algebra import AlgebraElement, BBProbSpace, CheckReport, SideMismatch
from .bimult import MomentContext, plan_partitions, run_program
from .errors import InputError
from .partitions import (
    BNCContext,
    ChiMap,
    EpsilonMap,
    FfbContext,
    NotBNC,
    SetPartition,
    SizeMismatch,
    bnc_lattice,
    build_context,
    enumerate_bnc,
    in_bnc_ffb,
    interval_below,
    is_bnc,
    nc_row,
    refines,
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


def e_pi(
    pi: SetPartition, ctx: BNCContext, Z: list, mf: MomentContext
) -> AlgebraElement:
    """The recursive partition moment, a B element: pi's reduction plan,
    run as a one-leaf program on Z."""
    if pi.n != ctx.n or len(Z) != ctx.n:
        raise SizeMismatch("partition, colouring, and operands disagree")
    if not is_bnc(pi, ctx):
        raise NotBNC(f"{pi} not bi-non-crossing for {ctx.chi}")
    for i, z in enumerate(Z, start=1):
        if not mf.verify_side(z, ctx.chi.side(i)):
            raise SideMismatch(f"operand {i} not in the {ctx.chi.side(i)} side")
    out = [None]
    run_program(plan_partitions([pi.rgs], _sides(ctx)), [None, *Z], mf, out)
    return out[0]


# s_chi -> the program of every lattice member's plan, leaf = NC(n) slot.
# Colourings that differ only at position n share s_chi, and their
# programs are equal: the planner reads side n only for the singleton
# {n}, which always folds as a tail (APPEND_LEFT) and reads no side.
_program_cache: dict[tuple[int, ...], array] = {}


def _sides(ctx: BNCContext) -> dict[int, str]:
    return {i: s for i, s in enumerate(ctx.chi.sides, start=1)}


def _program(ctx: BNCContext, pulled) -> array:
    prog = _program_cache.get(ctx.s_chi)
    if prog is None:
        prog = _program_cache[ctx.s_chi] = plan_partitions(pulled, _sides(ctx))
    return prog


def moment_table(ctx: BNCContext, Z: list, mf: MomentContext):
    """All partition moments, keyed by rgs in lattice order: one walk of
    the colouring's program."""
    members, slots, pulled = bnc_lattice(ctx)
    out = [None] * len(pulled)
    run_program(_program(ctx, pulled), [None, *Z], mf, out)
    return {pi.rgs: out[t] for pi, t in zip(members, slots)}


def kappa_pi(
    pi: SetPartition,
    ctx: BNCContext,
    Z: list,
    mf: MomentContext,
    moments: dict | None = None,
) -> AlgebraElement:
    """Cumulant: pi's row of the Mobius kernel over the moment table
    (the full table on Z unless given)."""
    if not is_bnc(pi, ctx):
        raise NotBNC(f"{pi} not bi-non-crossing for {ctx.chi}")
    if moments is None:
        moments = moment_table(ctx, Z, mf)
    return _weighted_sum(moments, interval_below(pi, ctx))


def _combine(elems: list, weights) -> AlgebraElement:
    """The sum of elems[i] scaled by the integer weights[i]: one sum of
    products per coefficient."""
    cols = zip(*[e.coeffs for e in elems])
    return AlgebraElement(
        elems[0].parent, tuple([sum(map(mul, weights, col)) for col in cols])
    )


def _weighted_sum(table: dict, pairs) -> AlgebraElement:
    """Sum of table[rgs] scaled by the integer w over the (rgs, w) pairs,
    of which there is at least one."""
    pairs = list(pairs)
    return _combine([table[rgs] for rgs, _ in pairs], [w for _, w in pairs])


def cumulant_table(ctx: BNCContext, Z: list, mf: MomentContext, moments=None):
    """All cumulants, keyed by rgs in lattice order: the moment table (on
    Z unless given) as a vector by NC(n) slot, times the Mobius kernel."""
    if moments is None:
        moments = moment_table(ctx, Z, mf)
    members, slots, pulled = bnc_lattice(ctx)
    vec = [moments[rgs] for rgs in pulled]
    out = {}
    for pi, t in zip(members, slots):
        below, mus = nc_row(ctx.n, t)
        out[pi.rgs] = _combine([vec[u] for u in below], mus)
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


def _interval_weights(tops, ctx: BNCContext) -> dict[tuple[int, ...], int]:
    """Sum over sigma in tops of kappa(sigma), as one weight per moment:
    the weight of pi is the sum of mu(pi, sigma) over the tops above it.
    Zero weights are dropped."""
    weights: dict[tuple[int, ...], int] = {}
    for sigma in tops:
        for rgs, mu in interval_below(sigma, ctx):
            weights[rgs] = weights.get(rgs, 0) + mu
    return {rgs: w for rgs, w in weights.items() if w}


def bifree_moment_check(
    chi: ChiMap, eps: EpsilonMap, Z: list, mf: MomentContext
) -> CheckReport:
    """Both forms of the independence criterion on one word.

    The word expectation must equal the sum of the cumulants of the
    colour-refining partitions; equivalently the full-word cumulant
    vanishes for mixed colours.
    """
    ctx = build_context(chi)
    rep = CheckReport()
    lhs = mf.expect(list(Z))
    lattice = enumerate_bnc(ctx)
    moments = moment_table(ctx, Z, mf)
    colours = eps.as_partition()
    tops = [sigma for sigma in lattice if refines(sigma, colours)]
    total = _weighted_sum(moments, _interval_weights(tops, ctx).items())
    ok = (lhs - total).is_zero()
    rep.record(
        "moment-formula", ok, None if ok else {"lhs": str(lhs), "rhs": str(total)}
    )
    if len(set(eps.colours)) > 1:
        kap = kappa_pi(SetPartition.full(ctx.n), ctx, Z, mf, moments=moments)
        ok = kap.is_zero()
        rep.record("mixed-cumulant-vanishes", ok, None if ok else str(kap))
    else:
        rep.record("mixed-cumulant-vanishes", True)
    return rep


# (chi_hat.sides, chi.sides) -> (member rgs, member weights, rows below 1,
#                                 {colours rgs: colour-refining non-members})
_audit_cache: dict = {}


def _audit_lattice(fctx: FfbContext, ctx: BNCContext, lattice):
    """What the audit needs of the lattice, shared by every colour map:
    the sublattice members' rgs, the weight map summing their cumulants,
    the interval_below rows of the full partition, and a dict that
    audit_ffb_word fills with the colour-refining non-members of each
    colour map it meets."""
    key = (fctx.chi_hat.sides, fctx.chi.sides)
    hit = _audit_cache.get(key)
    if hit is None:
        members = [pi for pi in lattice if in_bnc_ffb(pi, fctx)]
        hit = _audit_cache[key] = (
            frozenset(pi.rgs for pi in members),
            tuple(_interval_weights(members, ctx).items()),
            tuple(interval_below(SetPartition.full(ctx.n), ctx)),
            {},
        )
    return hit


def audit_ffb_word(
    fctx: FfbContext, eps: EpsilonMap, Z: list, mf: MomentContext
) -> CheckReport:
    """Every word-level FFB claim off one moment table.

    Z is the expanded operand list (each boolean slot contributing its
    two factors); eps the expanded colour map.  The claims, in order:
    the word moment is the sum of the cumulants over the boolean-pair
    sublattice; the full-word cumulant restricted to that sublattice is
    unchanged; colour-refining partition moments vanish off it; and the
    full-word cumulant vanishes unless the colour map is constant.
    """
    if eps.n != fctx.n or len(Z) != fctx.n:
        raise SizeMismatch("expanded operands must match the expanded colouring")
    if any(eps.colour(j) != eps.colour(j + 1) for j in fctx.boolean_pair_starts()):
        raise ColouringError("boolean pairs must be monochromatic")
    ctx = build_context(fctx.chi)
    lattice = enumerate_bnc(ctx)
    moments = moment_table(ctx, Z, mf)
    member_rgs, member_weights, below_one, refining = _audit_lattice(
        fctx, ctx, lattice
    )
    rep = CheckReport()

    lhs = mf.expect(list(Z))
    total = _weighted_sum(moments, member_weights)
    ok = (lhs - total).is_zero()
    rep.record(
        "ffb-moment-formula", ok, None if ok else {"lhs": str(lhs), "rhs": str(total)}
    )
    kap = _weighted_sum(moments, below_one)
    restricted = _weighted_sum(
        moments, ((rgs, mu) for rgs, mu in below_one if rgs in member_rgs)
    )
    ok = (kap - restricted).is_zero()
    rep.record(
        "ffb-cumulant-restriction",
        ok,
        None if ok else {"full": str(kap), "restricted": str(restricted)},
    )

    colours = eps.as_partition()
    off = refining.get(colours.rgs)
    if off is None:
        off = refining[colours.rgs] = tuple(
            pi.rgs
            for pi in lattice
            if pi.rgs not in member_rgs and refines(pi, colours)
        )
    bad = [rgs for rgs in off if not moments[rgs].is_zero()]
    witness = [
        {"id": f"vanishes-{rgs}", "status": "fail", "witness": str(moments[rgs])}
        for rgs in bad[:5]
    ]
    rep.record(
        f"off-lattice-vanishing ({len(off)} partitions)", not bad, witness=witness
    )

    if len(set(eps.colours)) > 1:
        ok = kap.is_zero()
        rep.record("mixed-ffb-cumulant-vanishes", ok, None if ok else str(kap))
    else:
        rep.record("constant-colour-cumulant", True)
    return rep
