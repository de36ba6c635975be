"""Set partitions, two-sided colourings, and the bi-non-crossing lattice.

Partitions of {1..n} are stored as restricted-growth strings (0-based
block index of each element, blocks numbered by first appearance).  A
colouring chi assigns each position a side 'l' or 'r' ('b' in the
three-letter alphabet); the induced permutation s_chi lists the left
indices ascending then the right indices descending, and a partition is
bi-non-crossing when its relabelling through s_chi is non-crossing in
the classical sense.

Whether a partition of a line crosses depends on the line's circular
order alone, and three changes of chi keep the circular order of s_chi,
so they keep BNC(chi): flipping the side of position 1 (1 moves from the
first slot to the last), flipping the side of position n (n stays between
the last left and the last right) and exchanging l and r everywhere (the
line is reversed).  For n > 2 they make classes of eight colourings.  The
lattice tables read one line per class, BNCContext.line: the s_chi of
the class's representative, whose positions 1, 2 and n are on the left,
so 1, the interior lefts ascending, n, the interior rights descending.
BNCContext.s_chi still names the paper's s_chi.

The class also shares one reduction program (cumulants._program),
planned on the representative's sides, which line_sides reads off the
class line: the planner (bimult) makes the same choices for every
member, up to the insertion side.  Side n is read only for the singleton
{n}, a tail fold, and side 1 only in the walk keys that rank the spines
crossing a node j, since the block of 1 is collapsed last.  There
position 1's key is the largest same-side distance (0, j-1) or the
smallest far-side key (2, 1), and every other key is a smaller distance
(0, d) or a larger far-side key (2, p): both rank position 1 the same
way against each of them, so the nearest spine is the same.  Exchanging
l and r keeps every key, as same and far side flip together, and so
every collapse order and target; it exchanges only the prepend kinds,
PREPEND_LEFT and PREPEND_RIGHT, which a mirrored colouring's walk
exchanges back.  With top-gap stops the gap keys (1, gap) fall between
(0, j-1) and (2, 1), so side 1 can change the nearest spine:
bimult.reduce_blocks and the diagram replays plan on their own sides.

The lattice is therefore NC(n) seen through the class line: enumeration,
Mobius values and intervals are all computed on that line, entered by
relabelled_rgs and left by bnc_lattice's one pass, which pulls every
slot of NC(n) back once per class and keeps each member's rgs and its
blocks as position tuples, equal blocks one tuple shared across the
lattice; validated SetPartitions are built only when enumerate_bnc or
enumerate_bnc_ffb is asked for them.  Mobius values and intervals come
from one kernel per n, indexed by NC(n) slot: nc_row builds a row on
first use, finding each partition below sigma by its head labelling
(_nc_heads), with no renumbering.

A three-letter colouring's lattice is its expansion's, whose BNCContext
its FfbContext carries.  sublattice_slots is the one scan of the
boolean-pair sublattice U = [bottom, 1̂]; _refining_off_lattice counts
the colour-refining members off U by growing them on the class line,
as _grow_noncrossing grows NC(n).

Every long-lived table is the lru_cache of its builder: the per-n
tables, the kernel rows, lr_replacement (bounded), and the lattice,
_pullback, keyed by the class line.  relabelled_rgs and _mu_to_top
(whose values _nc_mus keeps) are computed, not cached.
"""

from __future__ import annotations

import os
from array import array
from bisect import bisect_left
from dataclasses import InitVar, dataclass, field
from functools import lru_cache
from itertools import chain, product
from math import prod
from operator import itemgetter

from .errors import CapExceeded, InputError

DEFAULT_CAP = 10


class AlphabetError(InputError):
    """Colouring uses letters outside the expected alphabet."""


class SizeMismatch(InputError):
    """Objects disagree on the number of positions."""


class NotBNC(InputError):
    """Partition is not bi-non-crossing for the given colouring."""


def check_cap(n: int, default: int = DEFAULT_CAP, name: str = "n"):
    """Refuse a length n above the enumeration cap: BNC_ENGINE_CAP when
    it is set, else default.  name is what the error calls n."""
    raw = os.environ.get("BNC_ENGINE_CAP")
    if raw and not raw.isdecimal():
        raise InputError(f"BNC_ENGINE_CAP must be a non-negative integer, not {raw!r}")
    cap = int(raw) if raw else default
    if n > cap:
        raise CapExceeded(f"{name}={n} exceeds cap {cap}")


def _canonical_rgs(labels) -> tuple[int, ...]:
    """Restricted-growth string of a labelling: blocks by first appearance."""
    order: dict = {}
    return tuple([order.setdefault(b, len(order)) for b in labels])


@dataclass(frozen=True)
class ChiMap:
    """Side colouring of positions 1..n over 'l','r' (or 'l','r','b').

    A colouring is its letters: three_letter only permits 'b', and is
    not kept, so every spelling of one colouring is one key.  A reader
    that needs two letters tests "b" in sides."""

    sides: tuple[str, ...]
    three_letter: InitVar[bool] = False

    def __post_init__(self, three_letter):
        object.__setattr__(self, "sides", tuple(self.sides))
        allowed = {"l", "r", "b"} if three_letter else {"l", "r"}
        bad = [s for s in self.sides if s not in allowed]
        if bad:
            raise AlphabetError(f"unexpected side letters {bad}")

    @property
    def n(self) -> int:
        return len(self.sides)

    def side(self, i: int) -> str:
        """Side of position i (1-based)."""
        return self.sides[i - 1]

    @staticmethod
    def parse(text: str) -> "ChiMap":
        return ChiMap(text, three_letter=True)

    def __str__(self):
        return "".join(self.sides)


@dataclass(frozen=True)
class EpsilonMap:
    """Colour map from positions 1..n into an integer index set."""

    colours: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.colours)

    def colour(self, i: int) -> int:
        return self.colours[i - 1]

    def as_partition(self) -> "SetPartition":
        """Partition of 1..n into colour classes."""
        return SetPartition(_canonical_rgs(self.colours))

    @staticmethod
    def parse(text: str) -> "EpsilonMap":
        try:
            return EpsilonMap(tuple(int(t) for t in text.split(",")) if text else ())
        except ValueError:
            raise InputError(f"colours must be integers, not {text!r}") from None

    def __str__(self):
        return ",".join(str(c) for c in self.colours)


@dataclass(frozen=True, order=True)
class SetPartition:
    """Partition of {1..n} as a restricted-growth string."""

    rgs: tuple[int, ...]

    def __post_init__(self):
        mx = -1
        for i, b in enumerate(self.rgs):
            if b < 0 or b > mx + 1:
                raise InputError(f"not a restricted-growth string at position {i}")
            if b > mx:
                mx = b

    @property
    def n(self) -> int:
        return len(self.rgs)

    @property
    def num_blocks(self) -> int:
        return max(self.rgs) + 1 if self.rgs else 0

    def blocks(self) -> list[tuple[int, ...]]:
        """Blocks as 1-based index tuples, ordered by first appearance."""
        out: list[list[int]] = [[] for _ in range(self.num_blocks)]
        for i, b in enumerate(self.rgs):
            out[b].append(i + 1)
        return [tuple(b) for b in out]

    @staticmethod
    def from_blocks(n: int, blocks) -> "SetPartition":
        assign = {}
        for blk in blocks:
            for i in blk:
                assign[i] = blk
        if sorted(assign) != list(range(1, n + 1)) or sum(map(len, blocks)) != n:
            raise InputError("blocks do not partition 1..n")
        keys = (tuple(sorted(assign[i])) for i in range(1, n + 1))
        return SetPartition(_canonical_rgs(keys))

    @staticmethod
    def singletons(n: int) -> "SetPartition":
        return SetPartition(tuple(range(n)))

    @staticmethod
    def full(n: int) -> "SetPartition":
        return SetPartition(tuple([0] * n))

    def pretty(self) -> str:
        return ",".join(
            "{" + ",".join(str(i) for i in blk) + "}" for blk in self.blocks()
        )

    def __str__(self):
        return self.pretty()


def is_noncrossing_rgs(rgs: tuple[int, ...]) -> bool:
    """Classical non-crossing test on a line: no a1 < b1 < a2 < b2 with
    a's matched, b's matched, across distinct blocks."""
    return _crossing_pair(rgs) is None


def _crossing_pair(labels):
    """Labels of two crossing blocks on the line, or None.

    Scans with a stack of open blocks: returning to a block closes every
    block opened above it, and a closed block met again crosses the
    block that closed it.
    """
    stack: list = []
    closer: dict = {}
    for b in labels:
        if b not in closer:
            stack.append(b)
            closer[b] = None
        elif closer[b] is not None:
            return b, closer[b]
        else:
            while stack[-1] != b:
                closer[stack.pop()] = b
    return None


@dataclass(frozen=True)
class BNCContext:
    """Colouring with its induced permutation and its class line.

    s_chi[t] is the original index at slot t of the paper's relabelled
    line (0-based list of 1-based indices).  line is the line the lattice
    tables read, the class line: the s_chi of the representative of chi's
    class (_class_representative), which orders the positions round the
    circle as s_chi does.  rank[i] is the slot of original index i on
    line, and mirrored says whether the representative exchanges chi's l
    and r.
    """

    chi: ChiMap
    s_chi: tuple[int, ...]
    line: tuple[int, ...]
    rank: tuple[int, ...]
    mirrored: bool

    @property
    def n(self) -> int:
        return self.chi.n


def _s_chi(sides) -> tuple[int, ...]:
    """The left positions ascending, then the right positions descending."""
    lefts = [i for i, s in enumerate(sides, start=1) if s == "l"]
    rights = [i for i, s in enumerate(sides, start=1) if s == "r"]
    return tuple(lefts + rights[::-1])


def _class_representative(sides) -> tuple[tuple[str, ...], bool]:
    """The member of the colouring's class with positions 1 and n on the
    left and, when n > 2, position 2 on the left too; and whether it
    exchanges l and r on the interior (the colouring is mirrored)."""
    n = len(sides)
    mirrored = n > 2 and sides[1] == "r"
    inner = [{"l": "r", "r": "l"}[s] for s in sides[1:-1]] if mirrored else sides[1:-1]
    # the slice keeps one "l" for n = 1 and none for n = 0
    return ("l", *inner, "l")[:n], mirrored


def build_context(chi: ChiMap) -> BNCContext:
    if "b" in chi.sides:
        raise AlphabetError("context requires a two-letter colouring")
    rep, mirrored = _class_representative(chi.sides)
    line = _s_chi(rep)
    rank = [0] * chi.n
    for t, i in enumerate(line):
        rank[i - 1] = t
    return BNCContext(chi, _s_chi(chi.sides), line, tuple(rank), mirrored)


def line_sides(line: tuple[int, ...]) -> dict[int, str]:
    """The class representative's sides, read off its class line: the
    positions before n are left and those after it right.  n is left
    out, since the members of the class differ there: the planner reads
    side n only for the singleton {n}, which always folds as a tail."""
    k = line.index(len(line)) if line else 0
    return dict.fromkeys(line[:k], "l") | dict.fromkeys(line[k + 1 :], "r")


def relabelled_rgs(pi: SetPartition, ctx: BNCContext) -> tuple[int, ...]:
    """Push-forward through the class line: the rgs of pi on it."""
    return _canonical_rgs(pi.rgs[p - 1] for p in ctx.line)


def is_bnc(pi: SetPartition, ctx: BNCContext) -> bool:
    if pi.n != ctx.n:
        raise SizeMismatch(f"partition of {pi.n} against colouring of {ctx.n}")
    return is_noncrossing_rgs(relabelled_rgs(pi, ctx))


@lru_cache(maxsize=None)
def _noncrossing_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All classical non-crossing partitions of a line, as rgs tuples in
    lexicographic order.

    Each element joins an open block or opens a new one; joining a block
    closes every block opened after it.
    """
    out: list[tuple[int, ...]] = []
    _grow_noncrossing(n, (), (), 0, out)
    return tuple(out)


def _grow_noncrossing(n: int, prefix: tuple, open_: tuple, used: int, out: list):
    """Append to out, in lexicographic order, every non-crossing rgs of
    length n extending prefix (its open blocks open_, its block count used)."""
    if len(prefix) == n:
        out.append(prefix)
        return
    for k, b in enumerate(open_):
        _grow_noncrossing(n, prefix + (b,), open_[: k + 1], used, out)
    _grow_noncrossing(n, prefix + (used,), open_ + (used,), used + 1, out)


def bnc_lattice(ctx: BNCContext):
    """_pullback's tables for ctx's class line, the cap checked on every
    call: one lattice object for the eight colourings of a class."""
    check_cap(ctx.n)
    return _pullback(ctx.line)


@lru_cache(maxsize=None)
def _pullback(line: tuple[int, ...]):
    """The lattice three ways, all by NC(n) slot (a member's index in
    _noncrossing_partitions(n)) on the class line: each member's blocks
    in order of their minima, as ascending position tuples; the members'
    slots in lexicographic rgs order; and the members' rgs.  Keyed by the
    class line, maxsize=None, so every colouring of a class reads one.

    One pass pulls each member of NC(n) back through the line: position
    i carries the label of its slot on the line, the rgs numbers the
    labels by first appearance, and the blocks gather the positions of
    each.  Equal blocks are one tuple, shared by every member that has
    them.
    """
    rank = sorted(range(len(line)), key=line.__getitem__)
    shared: dict = {}
    blocks, pulled = [], []
    for labels in _noncrossing_partitions(len(line)):
        order: dict = {}
        cols: list = []
        rgs = []
        for i, t in enumerate(rank, start=1):
            b = order.setdefault(labels[t], len(cols))
            if b == len(cols):
                cols.append([i])
            else:
                cols[b].append(i)
            rgs.append(b)
        pulled.append(tuple(rgs))
        blocks.append(tuple([shared.setdefault(c, c) for c in map(tuple, cols)]))
    slots = tuple(sorted(range(len(pulled)), key=pulled.__getitem__))
    return tuple(blocks), slots, tuple(pulled)


def enumerate_bnc(ctx: BNCContext) -> list[SetPartition]:
    """All bi-non-crossing partitions, lexicographic in rgs."""
    _, slots, pulled = bnc_lattice(ctx)
    return [SetPartition(pulled[t]) for t in slots]


def refines(pi: SetPartition, sigma: SetPartition) -> bool:
    """True iff every block of pi is contained in a block of sigma."""
    if pi.n != sigma.n:
        raise SizeMismatch("partition sizes differ")
    return _shared_pair(sigma.rgs, pi.rgs) is None


def meet(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Common refinement (same in the full and the bi-non-crossing lattice)."""
    if pi.n != sigma.n:
        raise SizeMismatch("partition sizes differ")
    return SetPartition(_canonical_rgs(zip(pi.rgs, sigma.rgs)))


def _shared_pair(labels: tuple[int, ...], other: tuple[int, ...]):
    """Two labels whose blocks meet one block of other, or None."""
    seen: dict[int, int] = {}
    for b, c in zip(labels, other):
        if seen.setdefault(c, b) != b:
            return seen[c], b
    return None


def mobius(pi: SetPartition, sigma: SetPartition, ctx: BNCContext) -> int:
    """Incidence-algebra inverse on the bi-non-crossing lattice.

    Zero unless pi refines sigma; otherwise mobius_fast's kernel entry.
    """
    if not is_bnc(pi, ctx):
        raise NotBNC(f"{pi} is not bi-non-crossing for {ctx.chi}")
    if not is_bnc(sigma, ctx):
        raise NotBNC(f"{sigma} is not bi-non-crossing for {ctx.chi}")
    return mobius_fast(pi, sigma, ctx)


def mobius_fast(pi: SetPartition, sigma: SetPartition, ctx: BNCContext) -> int:
    """mobius without membership validation; arguments must be in the
    lattice (as enumeration output always is).  pi's entry in sigma's row
    of the NC(n) kernel, read on the class line.  Refuses an n over
    the cap, as the lattice tables do, before any table is built."""
    check_cap(ctx.n)
    if not refines(pi, sigma):
        return 0
    below, mus = nc_row(ctx.n, _nc_slot(sigma, ctx))
    return mus[bisect_left(below, _nc_slot(pi, ctx))]


def _mu_to_top(tau: tuple[int, ...]) -> int:
    """mu(tau, 1) in NC(k), from the Kreweras complement tau^-1 gamma:
    the product over its cycles of (-1)^(c-1) Catalan(c-1), c the cycle
    length.  Blocks are read as increasing cycles, gamma = (0 1 ... k-1).
    """
    k = len(tau)
    last = {b: t for t, b in enumerate(tau)}
    before = []  # tau^-1: the previous element of each block, cyclically
    for t, b in enumerate(tau):
        before.append(last[b])
        last[b] = t
    seen = [False] * k
    val = 1
    for start in range(k):
        length, t = 0, start
        while not seen[t]:
            seen[t] = True
            length += 1
            t = before[(t + 1) % k]
        if length:
            val *= (-1) ** (length - 1) * catalan(length - 1)
    return val


def _heads(labels) -> tuple[int, ...]:
    """Position u carrying the first position of its block."""
    first: dict = {}
    return tuple([first.setdefault(b, u) for u, b in enumerate(labels)])


def _nc_slot(pi: SetPartition, ctx: BNCContext) -> int:
    """pi's NC(n) slot, by its head labelling on the class line."""
    return _nc_heads(ctx.n)[_heads([pi.rgs[p - 1] for p in ctx.line])]


@lru_cache(maxsize=None)
def _nc_heads(n: int) -> dict[tuple[int, ...], int]:
    """NC(n) by head labelling to each member's slot.  Like the rgs it
    names a partition uniquely, and a partition built block by block has
    it as it stands, with no renumbering."""
    return {_heads(rgs): t for t, rgs in enumerate(_noncrossing_partitions(n))}


@lru_cache(maxsize=None)
def _nc_mus(n: int) -> tuple[int, ...]:
    """mu(tau, 1) for every tau in NC(n), in _noncrossing_partitions order."""
    return tuple(map(_mu_to_top, _noncrossing_partitions(n)))


@lru_cache(maxsize=None)
def nc_row(n: int, t: int):
    """Row t of the NC(n) kernel: the slots of the pi <= sigma (ascending)
    and mu(pi, sigma) alongside, sigma the member at slot t.

    Each pi <= sigma takes one non-crossing partition tau_W of every
    block W of sigma, and mu(pi, sigma) is the product of their mu to
    the top.  pi's head labelling is the tau_W's head labellings, mapped
    onto their blocks' positions and read in position order, so each
    pick's slot is one lookup.
    """
    s = _noncrossing_partitions(n)[t]
    blocks = [[u for u, c in enumerate(s) if c == w] for w in range(len(set(s)))]
    heads = [
        [tuple([blk[h] for h in hd]) for hd in _nc_heads(len(blk))] for blk in blocks
    ]
    picks = map(tuple, map(chain.from_iterable, product(*heads)))
    flat = [u for blk in blocks for u in blk]
    if flat != sorted(flat):  # two blocks or more, so n >= 2
        picks = map(itemgetter(*sorted(range(n), key=flat.__getitem__)), picks)
    slots = map(_nc_heads(n).__getitem__, picks)
    mus = map(prod, product(*(_nc_mus(len(blk)) for blk in blocks)))
    pairs = sorted(zip(slots, mus))
    below = array("H" if catalan(n) <= 1 << 16 else "I", [u for u, _ in pairs])
    return below, array("q", [mu for _, mu in pairs])


@dataclass(frozen=True)
class FfbContext:
    """Three-letter colouring with its two-letter expansion.

    Each 'b' position expands to a consecutive (l, r) pair, and bottom
    is the partition pairing every expanded boolean slot with its
    successor, its blocks numbered by original position.  bottom is
    bi-non-crossing, and the members of BNC(chi) that keep every boolean
    pair together are those above it: the upper interval [bottom, 1̂],
    isomorphic to [0̂, K(bottom)] and so of size the product of
    Catalan(|B|) over the blocks B of the Kreweras complement K(bottom)
    on the relabelled line.  Membership is read through the lattice
    order alone, bottom ≤ π (sublattice_slots, the one scan of U); the
    same order tests a colour map, whose classes bottom must refine.
    boolean_pair_starts() is for the two readers that need the pairs'
    positions: ffb._pipeline_word's projections and the off-U grower
    (_refining_off_lattice, called by cumulants._off_lattice).  ctx, the
    expansion's BNCContext, is derived from chi and so takes no part in
    equality or hashing.
    """

    chi_hat: ChiMap
    chi: ChiMap
    bottom: SetPartition
    ctx: BNCContext = field(compare=False, repr=False)

    @property
    def n(self) -> int:
        return self.chi.n

    def boolean_pair_starts(self) -> list[int]:
        """Expanded positions opening a boolean pair (each pairs with +1)."""
        rgs = self.bottom.rgs
        return [p for p in range(1, len(rgs)) if rgs[p - 1] == rgs[p]]

    def expand_colours(self, eps_hat: EpsilonMap) -> EpsilonMap:
        """Each expanded position in its original's colour: bottom's block
        index is the original position."""
        if eps_hat.n != self.chi_hat.n:
            raise SizeMismatch("colour map length differs from chi-hat")
        return EpsilonMap(tuple([eps_hat.colours[i] for i in self.bottom.rgs]))


@lru_cache(maxsize=256)
def lr_replacement(chi_hat: ChiMap) -> FfbContext:
    """Expand a three-letter colouring, replacing each 'b' with (l, r),
    and build the expansion's BNCContext once, for every reader.

    Both the ChiMap and the FfbContext are frozen, so callers share one
    context per colouring: the cache keeps the 256 most recently used and
    evicts the least recently used.  That holds every shape of n̂ ≤ 4
    (120 of them), and a sweep that runs shape by shape, as every FFB
    sweep does, builds each shape's context once at any length.
    """
    sides: list[str] = []
    origin: list[int] = []  # bottom's rgs: each expanded position's original
    for i, s in enumerate(chi_hat.sides):
        letters = ("l", "r") if s == "b" else (s,)
        sides.extend(letters)
        origin.extend([i] * len(letters))
    chi = ChiMap(tuple(sides))
    return FfbContext(chi_hat, chi, SetPartition(tuple(origin)), build_context(chi))


def sublattice_slots(fctx: FfbContext) -> list[int]:
    """The NC(n) slots of the boolean-pair sublattice U = [bottom, 1̂], the
    expanded lattice's members above bottom, lexicographic in rgs."""
    _, slots, pulled = bnc_lattice(fctx.ctx)
    bottom = fctx.bottom.rgs
    return [t for t in slots if _shared_pair(pulled[t], bottom) is None]


def enumerate_bnc_ffb(fctx: FfbContext) -> list[SetPartition]:
    """Members of the expanded lattice keeping each boolean pair together,
    lexicographic in rgs: those above bottom."""
    pulled = bnc_lattice(fctx.ctx)[2]
    return [SetPartition(pulled[t]) for t in sublattice_slots(fctx)]


def _refining_off_lattice(ctx: BNCContext, classes: tuple, starts) -> int:
    """How many lattice members refine the colour classes (an rgs of
    1..n) and split a boolean pair (j, j + 1 for j in starts).

    The members are grown as NC(n) is, on the class line: each slot
    joins an open block of its own colour, closing every block opened
    after it, or opens a new one.  A block is named by its first slot.
    """
    colour = [classes[i - 1] for i in ctx.line]
    pairs = [(ctx.rank[j - 1], ctx.rank[j]) for j in starts]
    # int: for n = 0 the growth is its one leaf, whose count is a bool
    return int(_grow_refining(0, (), colour, [0] * ctx.n, pairs))


def _grow_refining(t: int, open_: tuple, colour: list, labels: list, pairs) -> int:
    """How many of _refining_off_lattice's members split a pair and agree
    with labels before slot t, open_ the first slots of the open blocks."""
    if t == len(colour):
        return any(labels[a] != labels[b] for a, b in pairs)
    count = 0
    for k, head in enumerate(open_):
        if colour[head] == colour[t]:
            labels[t] = head
            count += _grow_refining(t + 1, open_[: k + 1], colour, labels, pairs)
    labels[t] = t
    return count + _grow_refining(t + 1, (*open_, t), colour, labels, pairs)


def catalan(n: int) -> int:
    ":math:`\\binom{2n}{n}/(n+1)` (number of classical non-crossing partitions)."
    from math import comb

    return comb(2 * n, n) // (n + 1)
