"""Shaded two-sided string diagrams and their lateral-refinement calculus.

A diagram on n nodes assigns each node to exactly one string; strings
are monochromatic, and some of them reach the top gap, in a definite
left-to-right spine order.  Diagrams are built by a node-by-node
recursion that prepends node i to the diagrams on nodes i+1..n:

  * a left node joins the leftmost top string when that string carries
    the node's shade, otherwise it opens a fresh leftmost string; right
    nodes do the same at the right end;
  * either way the affected string then either extends to the new top
    gap or is closed off (two diagrams per predecessor, so the plain
    family has exactly 2^n members).

Cutting a string between two adjacent ribs splits it in two, the upper
part keeping any top flag; the closure of a family under such cuts is
its lateral closure.  One frontier loop closes a family under the cuts
whose upper rib lies above a given node: every cut for the lateral
closure, the cuts above the suffix start for chi_extensions.
Structural identity is (sides, shades, string node-sets, top flags,
spine order); geometric placement never enters.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

from .bimult import crosses, walk_key
from .errors import InputError
from .partitions import ChiMap, EpsilonMap, SizeMismatch, check_cap

LR_CAP = 8


class SuffixMismatch(InputError):
    """Family's colouring is not the expected restriction."""


@dataclass(frozen=True)
class LRDiagram:
    """Structural diagram: monochromatic strings over a two-sided word.

    strings: tuple of (nodes, reaches_top) sorted by smallest node;
    spine_order: node-sets of top strings, leftmost first.
    """

    chi: ChiMap
    eps: EpsilonMap
    strings: tuple[tuple[tuple[int, ...], bool], ...]
    spine_order: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return self.chi.n

    def key(self):
        return (self.chi.sides, self.eps.colours, self.strings, self.spine_order)

    def shade(self, nodes: tuple[int, ...]) -> int:
        return self.eps.colour(nodes[0])

    def top_count(self) -> int:
        return len(self.spine_order)

    def top_shades(self) -> tuple[int, ...]:
        return tuple(self.shade(s) for s in self.spine_order)

    def to_json(self) -> dict:
        return {
            "chi": str(self.chi),
            "eps": list(self.eps.colours),
            "strings": [
                {"nodes": list(nodes), "top": top} for nodes, top in self.strings
            ],
            "spine_order": [list(nodes) for nodes in self.spine_order],
        }

    @staticmethod
    def from_json(data) -> "LRDiagram":
        """Inverse of to_json.  Raises InputError unless data is a diagram:
        monochromatic strings that partition 1..n, with spine_order
        listing exactly the strings that reach the top gap."""
        if not (
            isinstance(data, dict)
            and set(data) == {"chi", "eps", "strings", "spine_order"}
            and isinstance(data["chi"], str)
            and _ints(data["eps"])
            and isinstance(data["strings"], list)
            and all(
                isinstance(s, dict) and set(s) == {"nodes", "top"}
                and _ints(s["nodes"]) and isinstance(s["top"], bool)
                for s in data["strings"]
            )
            and isinstance(data["spine_order"], list)
            and all(_ints(nodes) for nodes in data["spine_order"])
        ):
            raise InputError(
                "a diagram is {chi: string, eps: [integers], strings: [{nodes:"
                " [integers], top: boolean}], spine_order: [[integers]]}"
            )
        chi, eps = ChiMap.parse(data["chi"]), EpsilonMap(tuple(data["eps"]))
        _check_lengths(chi, eps)
        d = make_diagram(
            chi,
            eps,
            [(tuple(s["nodes"]), s["top"]) for s in data["strings"]],
            [tuple(sorted(nodes)) for nodes in data["spine_order"]],
        )
        covered = sorted(j for nodes, _ in d.strings for j in nodes)
        if covered != list(range(1, d.n + 1)) or not all(s for s, _ in d.strings):
            raise InputError(f"diagram strings must partition the nodes 1..{d.n}")
        if any(len({eps.colour(j) for j in nodes}) > 1 for nodes, _ in d.strings):
            raise InputError("diagram strings must be monochromatic")
        if sorted(d.spine_order) != [nodes for nodes, top in d.strings if top]:
            raise InputError("diagram spine_order must list exactly the top strings")
        return d


def _ints(x) -> bool:
    return isinstance(x, list) and all(type(v) is int for v in x)


def make_diagram(chi, eps, strings, spine_order) -> LRDiagram:
    strings = tuple(
        sorted((tuple(sorted(nodes)), bool(top)) for nodes, top in strings)
    )
    return LRDiagram(chi, eps, strings, tuple(tuple(s) for s in spine_order))


@dataclass(frozen=True)
class DiagramFamily:
    chi: ChiMap
    eps: EpsilonMap
    diagrams: tuple[LRDiagram, ...]
    closure_flag: str = "plain"  # plain | lateral

    def __len__(self):
        return len(self.diagrams)

    def keys(self) -> set:
        return {d.key() for d in self.diagrams}

    def with_diagrams(self, diagrams, flag=None) -> "DiagramFamily":
        ordered = tuple(sorted(diagrams, key=lambda d: d.key()))
        return DiagramFamily(self.chi, self.eps, ordered, flag or self.closure_flag)


def _check_lengths(chi: ChiMap, eps: EpsilonMap):
    if chi.n != eps.n:
        raise SizeMismatch("colourings disagree on length")
    if "b" in chi.sides:
        raise SizeMismatch("diagrams need the two-letter alphabet")


def enumerate_lr(chi: ChiMap, eps: EpsilonMap) -> DiagramFamily:
    """The plain recursive family; exactly 2^n diagrams.

    One step per node i, from n down to 1: its string is the side's end
    top string with i prepended when that string carries i's shade, else
    the fresh (i,), and rest is the top strings beside it.  The step
    then keeps the string at rest's end on i's side, or closes it off."""
    _check_lengths(chi, eps)
    check_cap(chi.n, LR_CAP)
    n = chi.n
    # state: (completed strings tuple, top list tuple of node-tuples)
    states = [((), ())]
    for i in range(n, 0, -1):
        left = chi.side(i) == "l"
        shade = eps.colour(i)
        new_states = []
        for completed, top in states:
            end = 0 if left else len(top) - 1
            if top and eps.colour(top[end][0]) == shade:
                string, rest = (i,) + top[end], top[:end] + top[end + 1 :]
            else:
                string, rest = (i,), top
            at = 0 if left else len(rest)
            new_states.append((completed, rest[:at] + (string,) + rest[at:]))
            new_states.append((completed + ((string, False),), rest))
        states = new_states
    diagrams = []
    for completed, top in states:
        strings = list(completed) + [(nodes, True) for nodes in top]
        diagrams.append(make_diagram(chi, eps, strings, top))
    fam = DiagramFamily(chi, eps, (), "plain")
    return fam.with_diagrams(diagrams, "plain")


def lr_k(fam: DiagramFamily, k: int) -> DiagramFamily:
    """Sub-family with exactly k strings reaching the top gap."""
    return fam.with_diagrams([d for d in fam.diagrams if d.top_count() == k])


def single_cuts(diagram: LRDiagram):
    """All diagrams obtained by one cut between adjacent ribs, each with
    the node of the rib just above the cut.

    Cutting between ribs c-1 and c of a string keeps the upper part in
    place (with any top flag) and closes off the lower part.
    """
    for nodes, top in diagram.strings:
        if len(nodes) < 2:
            continue
        for c in range(1, len(nodes)):
            upper, lower = nodes[:c], nodes[c:]
            others = [(s, t) for s, t in diagram.strings if s != nodes]
            new_strings = others + [(upper, top), (lower, False)]
            order = tuple(upper if s == nodes else s for s in diagram.spine_order)
            yield make_diagram(diagram.chi, diagram.eps, new_strings, order), upper[-1]


def _cut_closure(diagrams, i: int):
    """The diagrams and every diagram that follows from one of them by
    single cuts whose upper rib lies strictly above node i; i = n + 1
    lets every cut through."""
    seen = {d.key(): d for d in diagrams}
    frontier = list(seen.values())
    while frontier:
        for cut, upper in single_cuts(frontier.pop()):
            if upper < i and cut.key() not in seen:
                seen[cut.key()] = cut
                frontier.append(cut)
    return seen.values()


def lateral_closure(fam: DiagramFamily) -> DiagramFamily:
    """Closure under single cuts; idempotent and containing the input."""
    return fam.with_diagrams(_cut_closure(fam.diagrams, fam.chi.n + 1), "lateral")


def filter_boolean(fam: DiagramFamily, k: int):
    """Split by the top-gap colour rule that the boolean projection P_k
    applies (TruncatedFreeProduct.bool_proj): keep diagrams whose top
    shades are () or (k,), that is no top string or one of colour k."""
    kept, removed = [], []
    for d in fam.diagrams:
        if d.top_shades() in ((), (k,)):
            kept.append(d)
        else:
            removed.append(d)
    return fam.with_diagrams(kept), fam.with_diagrams(removed)


def _restriction(d: LRDiagram, i: int, side: dict[int, str]):
    """The strings and spine order of d's restriction to nodes i..n, in
    d's own node labels, sorted as make_diagram sorts them; side maps
    d's nodes to their sides.

    A string's piece is its nodes from i on.  The piece reaches the
    restricted top gap when the string's spine crosses the boundary
    above node i: the string reaches the full top gap or has a node
    above i.  The pieces are ordered by where their spines cross the
    boundary, on the walk from node i.
    """
    strings = []
    crossing = []
    for nodes, top in d.strings:
        if nodes[-1] < i:
            continue
        piece = nodes[bisect_left(nodes, i) :]
        reaches = crosses(nodes, top, i)
        strings.append((piece, reaches))
        if reaches:
            rank = d.spine_order.index(nodes) + 1 if top else None
            crossing.append((walk_key(nodes, rank, i, side, True), piece))
    order = tuple(piece for _, piece in sorted(crossing, key=lambda e: e[0]))
    return tuple(sorted(strings)), order


def _relabelled(strings, order, shift: int):
    """Strings and a spine order with every node label moved by shift."""
    return (
        tuple((tuple(j + shift for j in nodes), top) for nodes, top in strings),
        tuple(tuple(j + shift for j in nodes) for nodes in order),
    )


@lru_cache(maxsize=16)
def _full_closure(chi: ChiMap, eps: EpsilonMap) -> DiagramFamily:
    """The lateral closure of the word's plain family, which every suffix
    family of the word extends into.  Kept for the 16 most recently used
    (χ, ε): a new one evicts the least recently used.  Families are
    immutable, so a reader shares the kept one.  At n = 8, the default
    diagram cap, a closure holds about 300 diagrams (about 0.3 MiB), so
    the cache holds at most about 5 MiB."""
    return lateral_closure(enumerate_lr(chi, eps))


def chi_extensions(
    suffix_family: DiagramFamily, chi: ChiMap, eps: EpsilonMap
) -> DiagramFamily:
    """Diagrams of the full word reachable from the suffix family.

    D qualifies when some D' in the full lateral closure restricts to a
    family member and D follows from D' by cuts whose upper rib lies
    strictly above the suffix start.  D' is matched by the strings and
    spine order of its restriction (_restriction) against the members'
    own, moved to the full word's node labels, so no restricted diagram
    is made.  The full closure comes from _full_closure's LRU; the
    diagram cap is checked on every call.
    """
    _check_lengths(chi, eps)
    i = chi.n - suffix_family.chi.n + 1
    if (
        chi.sides[i - 1 :] != suffix_family.chi.sides
        or eps.colours[i - 1 :] != suffix_family.eps.colours
    ):
        raise SuffixMismatch("suffix colourings do not match the full word")
    check_cap(chi.n, LR_CAP)
    full = _full_closure(chi, eps)
    side = dict(enumerate(chi.sides, start=1))
    wanted = {
        _relabelled(d.strings, d.spine_order, i - 1) for d in suffix_family.diagrams
    }
    seeds = [d for d in full.diagrams if _restriction(d, i, side) in wanted]
    if i == 1:
        return full.with_diagrams(seeds, "lateral")
    return full.with_diagrams(_cut_closure(seeds, i), "lateral")

