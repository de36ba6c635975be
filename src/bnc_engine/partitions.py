"""Set partitions, two-sided colourings, and the bi-non-crossing lattice.

Partitions of {1..n} are stored as restricted-growth strings (0-based
block index of each element, blocks numbered by first appearance).  A
colouring chi assigns each position a side 'l' or 'r' ('b' in the
three-letter alphabet); the induced permutation lists the left indices
ascending then the right indices descending, and a partition is
bi-non-crossing when its relabelling through that permutation is
non-crossing in the classical sense.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

DEFAULT_CAP = 10


class AlphabetError(ValueError):
    """Colouring uses letters outside the expected alphabet."""


class SizeMismatch(ValueError):
    """Objects disagree on the number of positions."""


class NotBNC(ValueError):
    """Partition is not bi-non-crossing for the given colouring."""


class CapExceeded(RuntimeError):
    """Enumeration size limit exceeded; raise the cap explicitly to proceed."""


def enumeration_cap(default: int = DEFAULT_CAP) -> int:
    raw = os.environ.get("BNC_ENGINE_CAP")
    return int(raw) if raw else default


@dataclass(frozen=True)
class ChiMap:
    """Side colouring of positions 1..n over 'l','r' (or 'l','r','b')."""

    sides: tuple[str, ...]
    three_letter: bool = False

    def __post_init__(self):
        allowed = {"l", "r", "b"} if self.three_letter else {"l", "r"}
        bad = [s for s in self.sides if s not in allowed]
        if bad:
            raise AlphabetError(f"unexpected side letters {bad}")
        if not self.three_letter and "b" in self.sides:
            raise AlphabetError("'b' requires the three-letter alphabet")

    @property
    def n(self) -> int:
        return len(self.sides)

    def side(self, i: int) -> str:
        """Side of position i (1-based)."""
        return self.sides[i - 1]

    @staticmethod
    def parse(text: str) -> "ChiMap":
        sides = tuple(text)
        return ChiMap(sides, three_letter="b" in sides)

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
        seen: dict[int, int] = {}
        rgs = []
        for c in self.colours:
            rgs.append(seen.setdefault(c, len(seen)))
        return SetPartition(tuple(rgs))

    @staticmethod
    def parse(text: str) -> "EpsilonMap":
        return EpsilonMap(tuple(int(t) for t in text.split(",") if t != ""))

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
                raise ValueError(f"not a restricted-growth string at position {i}")
            mx = max(mx, b)

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

    def same_block(self, i: int, j: int) -> bool:
        return self.rgs[i - 1] == self.rgs[j - 1]

    @staticmethod
    def from_blocks(n: int, blocks) -> "SetPartition":
        assign = {}
        for blk in blocks:
            for i in blk:
                assign[i] = blk
        if sorted(assign) != list(range(1, n + 1)):
            raise ValueError("blocks do not partition 1..n")
        rgs = []
        order: dict[tuple, int] = {}
        for i in range(1, n + 1):
            key = tuple(sorted(assign[i]))
            rgs.append(order.setdefault(key, len(order)))
        return SetPartition(tuple(rgs))

    def relabel(self, positions: list[int]) -> "SetPartition":
        """Partition of the relabelled line: element at slot t is positions[t]."""
        rgs = []
        order: dict[int, int] = {}
        for p in positions:
            rgs.append(order.setdefault(self.rgs[p - 1], len(order)))
        return SetPartition(tuple(rgs))

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


def is_noncrossing_rgs(rgs: tuple[int, ...]) -> bool:
    """Classical non-crossing test on a line: no a1 < b1 < a2 < b2 with
    a's matched, b's matched, across distinct blocks."""
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for i, b in enumerate(rgs):
        first.setdefault(b, i)
        last[b] = i
    stack: list[int] = []
    for i, b in enumerate(rgs):
        if first[b] == i:
            stack.append(b)
        elif not stack or stack[-1] != b:
            return False
        if last[b] == i:
            stack.pop()
    return True


@dataclass(frozen=True)
class BNCContext:
    """Colouring with its induced permutation and total order.

    s_chi[t] is the original index at relabelled slot t (0-based list of
    1-based indices); rank[i] is the slot of original index i.
    """

    chi: ChiMap
    s_chi: tuple[int, ...]
    rank: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.chi.n

    def relabel(self, pi: SetPartition) -> SetPartition:
        return pi.relabel(list(self.s_chi))


def build_context(chi: ChiMap) -> BNCContext:
    if chi.three_letter:
        raise AlphabetError("context requires a two-letter colouring")
    lefts = [i for i in range(1, chi.n + 1) if chi.side(i) == "l"]
    rights = [i for i in range(1, chi.n + 1) if chi.side(i) == "r"]
    s = lefts + rights[::-1]
    rank = [0] * chi.n
    for t, i in enumerate(s):
        rank[i - 1] = t
    return BNCContext(chi, tuple(s), tuple(rank))


def is_bnc(pi: SetPartition, ctx: BNCContext) -> bool:
    if pi.n != ctx.n:
        raise SizeMismatch(f"partition of {pi.n} against colouring of {ctx.n}")
    return is_noncrossing_rgs(ctx.relabel(pi).rgs)


@lru_cache(maxsize=None)
def _noncrossing_partitions(n: int) -> tuple[tuple[int, ...], ...]:
    """All classical non-crossing partitions of a line, as rgs tuples.

    Recursive block insertion: the first element's block splits the rest
    into independent segments.
    """
    if n == 0:
        return ((),)
    out: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for rest in combinations(range(1, n), size - 1):
            blk = (0,) + rest
            segments = []
            prev = 0
            for x in blk[1:]:
                segments.append(x - prev - 1)
                prev = x
            segments.append(n - 1 - prev)
            pieces = [_noncrossing_partitions(s) for s in segments]

            def weave(i: int, acc: list[tuple[int, ...]]):
                if i == len(pieces):
                    rgs = [0] * n
                    used = 1
                    for seg_i, part in enumerate(acc):
                        start = blk[seg_i] + 1
                        for off, b in enumerate(part):
                            rgs[start + off] = used + b
                        used += (max(part) + 1) if part else 0
                    out.append(tuple(rgs))
                    return
                for part in pieces[i]:
                    weave(i + 1, acc + [part])

            weave(0, [])
    return tuple(out)


_bnc_cache: dict[tuple[str, ...], tuple[SetPartition, ...]] = {}


def enumerate_bnc(ctx: BNCContext, cap: int | None = None) -> list[SetPartition]:
    """All bi-non-crossing partitions, lexicographic in rgs."""
    cap = enumeration_cap() if cap is None else cap
    if ctx.n > cap:
        raise CapExceeded(f"n={ctx.n} exceeds cap {cap}")
    hit = _bnc_cache.get(ctx.chi.sides)
    if hit is None:
        out = []
        inverse = list(ctx.rank)  # slot of each original index
        for rgs in _noncrossing_partitions(ctx.n):
            # pull back through s_chi: original position i sits at slot rank[i]
            pulled = tuple(rgs[inverse[i]] for i in range(ctx.n))
            out.append(SetPartition(_canonical_rgs(pulled)))
        out.sort()
        hit = tuple(out)
        _bnc_cache[ctx.chi.sides] = hit
    return list(hit)


def _canonical_rgs(labels: tuple[int, ...]) -> tuple[int, ...]:
    order: dict[int, int] = {}
    return tuple(order.setdefault(b, len(order)) for b in labels)


def refines(pi: SetPartition, sigma: SetPartition) -> bool:
    """True iff every block of pi is contained in a block of sigma."""
    if pi.n != sigma.n:
        raise SizeMismatch("partition sizes differ")
    image: dict[int, int] = {}
    for bp, bs in zip(pi.rgs, sigma.rgs):
        if bp in image:
            if image[bp] != bs:
                return False
        else:
            image[bp] = bs
    return True


def meet(pi: SetPartition, sigma: SetPartition) -> SetPartition:
    """Common refinement (same in the full and the bi-non-crossing lattice)."""
    if pi.n != sigma.n:
        raise SizeMismatch("partition sizes differ")
    return SetPartition(
        _canonical_rgs(tuple(zip(pi.rgs, sigma.rgs)))  # type: ignore[arg-type]
    )


def join(pi: SetPartition, sigma: SetPartition, ctx: BNCContext) -> SetPartition:
    """Smallest bi-non-crossing partition above both.

    Computed in the relabelled classical lattice: take the full-lattice
    join, then merge crossing block pairs until non-crossing.
    """
    if pi.n != sigma.n or pi.n != ctx.n:
        raise SizeMismatch("partition sizes differ")
    p1 = ctx.relabel(pi)
    p2 = ctx.relabel(sigma)
    labels = _join_full(p1.rgs, p2.rgs)
    labels = _uncross(labels)
    relabelled = SetPartition(_canonical_rgs(labels))
    inverse = list(ctx.rank)
    pulled = tuple(relabelled.rgs[inverse[i]] for i in range(ctx.n))
    return SetPartition(_canonical_rgs(pulled))


def _join_full(r1: tuple[int, ...], r2: tuple[int, ...]) -> tuple[int, ...]:
    n = len(r1)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    first1: dict[int, int] = {}
    first2: dict[int, int] = {}
    for i in range(n):
        if r1[i] in first1:
            union(i, first1[r1[i]])
        else:
            first1[r1[i]] = i
        if r2[i] in first2:
            union(i, first2[r2[i]])
        else:
            first2[r2[i]] = i
    return tuple(find(i) for i in range(n))


def _uncross(labels: tuple[int, ...]) -> tuple[int, ...]:
    labels = list(labels)
    changed = True
    while changed:
        changed = False
        spans: dict[int, list[int]] = {}
        for i, b in enumerate(labels):
            spans.setdefault(b, []).append(i)
        keys = list(spans)
        for x in range(len(keys)):
            for y in range(x + 1, len(keys)):
                a, b = spans[keys[x]], spans[keys[y]]
                if _blocks_cross(a, b):
                    tgt, src = keys[x], keys[y]
                    for i, lab in enumerate(labels):
                        if lab == src:
                            labels[i] = tgt
                    changed = True
                    break
            if changed:
                break
    return tuple(labels)


def _blocks_cross(a: list[int], b: list[int]) -> bool:
    for a1 in a:
        for a2 in a:
            if a1 >= a2:
                continue
            inside = any(a1 < x < a2 for x in b)
            outside = any(x < a1 or x > a2 for x in b)
            if inside and outside:
                return True
    return False


_mu_full_cache: dict[tuple[int, ...], int] = {}
_mu_pair_cache: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}


def _rgs_refines(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    image: dict[int, int] = {}
    for a, b in zip(fine, coarse):
        prev = image.get(a)
        if prev is None:
            image[a] = b
        elif prev != b:
            return False
    return True


def _rgs_canonical(labels) -> tuple[int, ...]:
    order: dict[int, int] = {}
    return tuple(order.setdefault(b, len(order)) for b in labels)


def _rgs_restrict(rgs: tuple[int, ...], positions) -> tuple[int, ...]:
    return _rgs_canonical(rgs[p] for p in positions)


def _rgs_blocks(rgs: tuple[int, ...]) -> list[list[int]]:
    out: list[list[int]] = [[] for _ in range(max(rgs) + 1)] if rgs else []
    for i, b in enumerate(rgs):
        out[b].append(i)
    return out


_relabel_cache: dict = {}


def relabelled_rgs(pi: SetPartition, ctx: BNCContext) -> tuple[int, ...]:
    key = (ctx.chi.sides, pi.rgs)
    hit = _relabel_cache.get(key)
    if hit is None:
        hit = _canonical_rgs(tuple(pi.rgs[p - 1] for p in ctx.s_chi))
        _relabel_cache[key] = hit
    return hit


def mobius(pi: SetPartition, sigma: SetPartition, ctx: BNCContext) -> int:
    """Incidence-algebra inverse on the bi-non-crossing lattice.

    Zero unless pi refines sigma; computed by the defining recursion
    over the relabelled classical interval, memoized on interval shape.
    """
    if not is_bnc(pi, ctx):
        raise NotBNC(f"{pi} is not bi-non-crossing for {ctx.chi}")
    if not is_bnc(sigma, ctx):
        raise NotBNC(f"{sigma} is not bi-non-crossing for {ctx.chi}")
    return mobius_fast(pi, sigma, ctx)


def mobius_fast(pi: SetPartition, sigma: SetPartition, ctx: BNCContext) -> int:
    """mobius without membership validation; arguments must be in the
    lattice (as enumeration output always is)."""
    if not refines(pi, sigma):
        return 0
    return _mobius_nc(relabelled_rgs(pi, ctx), relabelled_rgs(sigma, ctx))


def _mobius_nc(pi: tuple[int, ...], sigma: tuple[int, ...]) -> int:
    """Mobius value on a classical interval; factors over coarse blocks."""
    key = (pi, sigma)
    hit = _mu_pair_cache.get(key)
    if hit is not None:
        return hit
    val = 1
    for blk in _rgs_blocks(sigma):
        val *= _mobius_nc_to_full(_rgs_restrict(pi, blk))
        if val == 0:
            break
    _mu_pair_cache[key] = val
    return val


def _mobius_nc_to_full(tau: tuple[int, ...]) -> int:
    hit = _mu_full_cache.get(tau)
    if hit is not None:
        return hit
    if not tau or max(tau) == 0:
        _mu_full_cache[tau] = 1
        return 1
    total = 0
    n = len(tau)
    for rho in _noncrossing_partitions(n):
        if max(rho) == 0:
            continue
        if _rgs_refines(tau, rho):
            total += _mobius_nc(tau, rho)
    val = -total
    _mu_full_cache[tau] = val
    return val


@dataclass(frozen=True)
class FfbContext:
    """Three-letter colouring with its two-letter expansion.

    Each 'b' position expands to a consecutive (l, r) pair; f maps
    original positions to expanded ones, and bottom is the partition
    pairing every expanded boolean slot with its successor.
    """

    chi_hat: ChiMap
    chi: ChiMap
    f: tuple[int, ...]
    bottom: SetPartition

    @property
    def n_hat(self) -> int:
        return self.chi_hat.n

    @property
    def n(self) -> int:
        return self.chi.n

    def boolean_pair_starts(self) -> list[int]:
        """Expanded positions opening a boolean pair (each pairs with +1)."""
        return [
            self.f[i - 1]
            for i in range(1, self.n_hat + 1)
            if self.chi_hat.side(i) == "b"
        ]

    def expand_colours(self, eps_hat: EpsilonMap) -> EpsilonMap:
        if eps_hat.n != self.n_hat:
            raise SizeMismatch("colour map length differs from chi-hat")
        colours = []
        for i in range(1, self.n_hat + 1):
            colours.append(eps_hat.colour(i))
            if self.chi_hat.side(i) == "b":
                colours.append(eps_hat.colour(i))
        return EpsilonMap(tuple(colours))


def lr_replacement(chi_hat: ChiMap) -> FfbContext:
    """Expand a three-letter colouring, replacing each 'b' with (l, r)."""
    sides: list[str] = []
    f: list[int] = []
    for i in range(1, chi_hat.n + 1):
        f.append(len(sides) + 1)
        s = chi_hat.side(i)
        if s == "b":
            sides.extend(("l", "r"))
        else:
            sides.append(s)
    n = len(sides)
    blocks: list[list[int]] = []
    for i in range(1, chi_hat.n + 1):
        if chi_hat.side(i) == "b":
            blocks.append([f[i - 1], f[i - 1] + 1])
        else:
            blocks.append([f[i - 1]])
    bottom = SetPartition.from_blocks(n, blocks)
    return FfbContext(chi_hat, ChiMap(tuple(sides)), tuple(f), bottom)


def in_bnc_ffb(pi: SetPartition, fctx: FfbContext) -> bool:
    if pi.n != fctx.n:
        raise SizeMismatch("partition size differs from expanded colouring")
    return all(pi.same_block(j, j + 1) for j in fctx.boolean_pair_starts())


def enumerate_bnc_ffb(fctx: FfbContext, cap: int | None = None) -> list[SetPartition]:
    """Members of the expanded lattice keeping each boolean pair together."""
    ctx = build_context(fctx.chi)
    return [pi for pi in enumerate_bnc(ctx, cap=cap) if in_bnc_ffb(pi, fctx)]


def catalan(n: int) -> int:
    ":math:`\\binom{2n}{n}/(n+1)` (number of classical non-crossing partitions)."
    from math import comb

    return comb(2 * n, n) // (n + 1)
