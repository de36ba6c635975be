"""Reduction engine for partition-indexed moments.

The recursion collapses one block at a time, always the closed block
with the largest minimum element.  A closed block that forms the tail
of the surviving positions folds its value onto the preceding operator
from the right; otherwise its value is inserted, on the side named by
its minimum's colour, onto the first later element of the adjacent
block: the block whose spine runs next to the collapsed one in the
two-column picture.  Blocks whose string reaches the top gap are never
collapsed; once only those remain, the caller takes over.

Spine adjacency is computed from the picture's geometry: a spine
crosses height j when it has a rib below j and either a rib above j or
a segment running to the top gap; among the crossing spines, a left
node attaches to the one nearest the left column and a right node to
the one nearest the right column.  Nearness is read off along the
boundary walk from the node's column through the top gap (ribs just
above on the same side first, then top-gap spines in their left-right
order, then ribs just above on the far side).

Evaluation contexts supply the algebra: ordered-word expectation and
one insertion, MomentContext.insert(kind, value, elem), whose kind is
the collapse kind collapse_step returns: APPEND_LEFT for elem·L_value,
PREPEND_LEFT for L_value·elem and PREPEND_RIGHT for R_value·elem.  The
engine never multiplies elements itself.

The collapse order, each insertion's kind and its target depend only on
the blocks and the side colouring, never on the operands.  collapse_step
is the one rule that decides a step's insertion, read off position
tuples, and plans is the one planner that calls it, in the one order
above.  The plan of a member collapses its closed block with the largest
minimum and then follows the plan of the blocks left, so every state a
plan passes through is "the blocks whose minimum is below m", named by
the state below it and its last block.  A diagram's top-gap blocks are
stops in its plan: they survive every step, and reduce_blocks replays
that plan and leaves the tops' operands to its caller.  A partition is
a diagram with no tops, so reduce_blocks replays one partition's plan
too.  A Program takes each partition's blocks in order of their minima,
as partitions.bnc_lattice yields them, and holds the plans of a whole
lattice as a root table with one group per last block.  The plans
below a root group are worked out the first time a walk enters that
group, each distinct state's step once per walk, and compile_plans
merges them into one flat program over their shared step prefixes.
run_program walks the root table and the compiled subtrees depth first
on any operands: each distinct prefix ending in an expectation is
evaluated once, however many plans share it.

run_program skips every subtree below a vanishing expectation: when a
group's value vanishes in its context's algebra (MomentContext.vanishes)
and the group has insertions below it, the walk jumps over each child's
extent, which the program records; a root group's subtree is then never
planned.  The leaves in the skipped subtrees are left unset, and the
walk returns the zero it met, which is the value of every one of them.
This is exact: L_b and R_b are linear in b, the expectation is
multilinear in its operands, and every collapse but the last inserts
its value into an operand that survives it, so a zero insertion reaches
the final moment of every leaf below it.
"""

from __future__ import annotations

from array import array
from bisect import bisect
from typing import Optional


class ReductionError(RuntimeError):
    """Block structure admits no legal collapse step."""


class MomentContext:
    """Interface for moment evaluation; subclasses define the algebra.

    A walk of a program evaluates through for_walk(), called once per
    walk and dropped when it returns.  cumulants.AlgebraMomentContext
    gives a fresh memoizing view there, which computes each distinct
    expectation (keyed by its operands' coefficient tuples, in order) and
    each distinct insertion (keyed by kind, value and operand
    coefficients) once per walk; every other context walks as itself.
    """

    def expect(self, elems: list) -> object:
        """Expectation of the ordered product; B element."""
        raise NotImplementedError

    def insert(self, kind: int, value, elem):
        """The operand elem after taking value by kind: elem·L_value for
        APPEND_LEFT, L_value·elem for PREPEND_LEFT, R_value·elem for
        PREPEND_RIGHT."""
        raise NotImplementedError

    def vanishes(self, value) -> bool:
        """Whether value is zero, so that every moment reached by
        inserting it is zero too; a context that cannot tell says no."""
        return False

    def for_walk(self) -> "MomentContext":
        """The context one walk of a program evaluates through, dropped
        when the walk returns: this context itself, or a fresh view over
        the same algebra that keeps per-walk state (such as a memo of the
        values it has computed) off the context its caller holds."""
        return self

    def verify_side(self, elem, side: str) -> bool:
        """Whether elem lies in the commutant of its side ('l' or 'r'); a
        context that cannot tell says yes."""
        return True


def crosses(positions: tuple[int, ...], top: bool, j: int) -> bool:
    """Whether a string's spine crosses the boundary just above node j.

    It does when the string has a node at or below j and either a node
    above j or a segment running to the top gap.  positions ascend.
    """
    return positions[-1] >= j and (top or positions[0] < j)


def walk_key(
    positions: tuple[int, ...],
    gap_rank: Optional[int],
    j: int,
    side: dict[int, str],
    from_left: bool,
):
    """Position of a string's nearest presence on the walk from node j.

    The walk starts at the node's column just above j, runs up that
    column, across the top gap (where the string sits at gap_rank, or
    not at all when it is None), and down the far column.  positions
    ascend.
    """
    same = "l" if from_left else "r"
    keys = []
    for p in positions:
        if p >= j:
            break
        keys.append((0, j - p) if side[p] == same else (2, p))
    if gap_rank is not None:
        keys.append((1, gap_rank if from_left else -gap_rank))
    return min(keys)


def _case3_target(j: int, rest, side: dict[int, str], gaps):
    """The first element after j of the spine nearest j among the blocks
    of rest whose spine crosses j, or None when none does."""
    crossing = [w for w in rest if crosses(w, w in gaps, j)]
    if not crossing:
        return None
    w = crossing[0]
    if len(crossing) > 1:
        from_left = side[j] == "l"
        w = min(crossing, key=lambda o: walk_key(o, gaps.get(o), j, side, from_left))
    return w[bisect(w, j)]


APPEND_LEFT, PREPEND_LEFT, PREPEND_RIGHT = range(3)


def collapse_step(
    v: tuple[int, ...], rest, last: int, side: dict[int, str], gaps=None
) -> Optional[tuple[int, int]]:
    """How the value of the collapsed block v enters the blocks rest that
    survive it: (kind, target), the operand at position target taking
    the value by kind; None when nothing survives, since the value is
    then the moment.

    Blocks are ascending position tuples, last is the largest position
    in rest, and gaps maps each block of rest that runs to the top gap
    to its gap rank (1 = leftmost); None when no block does.  A v after
    every surviving position folds onto the last of them from the right;
    any other v is inserted, on the side of its minimum's colour, onto
    the first later element of the adjacent spine.
    """
    if not rest:
        return None
    j = v[0]
    if last < j:
        return APPEND_LEFT, last
    target = _case3_target(j, rest, side, gaps or {})
    if target is None:
        raise ReductionError(f"block {v} is neither a tail nor next to a spine")
    return (PREPEND_LEFT if side[j] == "l" else PREPEND_RIGHT), target


def plans(members, side: dict[int, str], memo: dict, gaps=None):
    """The plan of each member, in order: the steps (block, insertion)
    that collapse its closed blocks, largest minimum first, each
    insertion as collapse_step gives it.

    A member is a tuple of closed blocks in order of their minima, and
    gaps maps each top-gap block to its gap rank (1 = leftmost), or is
    None when there are none.  Tops are stops: never collapsed, they
    survive every step, so no insertion of a member with tops is None.
    A plan collapses a member's blocks from the last down, so the states
    it passes through are its first k blocks for each k, and a state is
    keyed by the state one block shorter and its last block: (id of the
    step memo holds for that state, block).  memo holds the step of every
    state already planned, for one side map and one gaps.  The largest
    position below is carried along each member, so a tail fold needs no
    scan.
    """
    tops = tuple(gaps or ())
    top_last = max([w[-1] for w in tops], default=0)
    for member in members:
        plan = []
        below, last = None, top_last
        for k, blk in enumerate(member):
            step = memo.get((below, blk))
            if step is None:
                insertion = collapse_step(blk, tops + member[:k], last, side, gaps)
                step = memo[below, blk] = (blk, insertion)
            plan.append(step)
            below = id(step)
            if blk[-1] > last:
                last = blk[-1]
        plan.reverse()
        yield plan


def reduce_blocks(closed: tuple, gaps: dict, ops: list, side: dict[int, str], ctx):
    """Replay the plan of one member, closed, with the top-gap blocks of
    gaps as stops (see plans), on the operands ops[p] at each position
    p, which it updates in place.

    Returns the moment when nothing is left, or None when tops remain:
    ops then holds the operands the tops carry.  The empty word's plan
    is empty, and its moment the expectation of the empty product.
    """
    (plan,) = plans([closed], side, {}, gaps)
    for positions, insertion in plan:
        value = ctx.expect([ops[p] for p in positions])
        if insertion is None:
            return value
        kind, target = insertion
        ops[target] = ctx.insert(kind, value, ops[target])
    return None if gaps else ctx.expect([])


class Program:
    """The reduction plans of a lattice's closed partitions of 1..n,
    planned on demand: blocks[leaf] is the tuple of the blocks of the partition whose
    moment leaf i holds, in order of their minima, as ascending position
    tuples.

    Every plan starts by collapsing its last block, the one with the
    largest minimum, so roots lists one group per last block: its
    positions, the leaves whose plan ends there (the one-block partition)
    and the leaves whose plan goes on, in leaf order by first appearance.
    The empty word's one member, with no blocks, is the group ().
    subtree plans a group's leaves with plans and compiles them with
    compile_plans, once.  Its caller owns the planning memo, so a walk
    that compiles several groups works out each distinct reduction
    state's step once, and a program keeps only its root table and the
    code compiled so far.
    """

    def __init__(self, blocks, side: dict[int, str]):
        groups: dict = {}
        for leaf, member in enumerate(blocks):
            ends, goes_on = groups.setdefault((member or ((),))[-1], ([], []))
            (goes_on if len(member) > 1 else ends).append(leaf)
        self.roots = [
            (positions, tuple(ends), array("I", goes_on))
            for positions, (ends, goes_on) in groups.items()
        ]
        self.codes: list = [None] * len(self.roots)
        self._blocks = blocks
        self._side = side

    def subtree(self, g: int, memo: dict) -> array:
        """Root group g's leaves' plans, compiled on first call; memo is
        plans' planning memo, shared by the groups one walk compiles."""
        code = self.codes[g]
        if code is not None:
            return code
        _, ends, goes_on = self.roots[g]
        leaves = (*ends, *goes_on)
        members = map(self._blocks.__getitem__, leaves)
        code = self.codes[g] = compile_plans(
            zip(leaves, plans(members, self._side, memo))
        )
        return code


def compile_plans(plans) -> array:
    """Recorded plans merged over their shared step prefixes, as one flat
    depth-first program; plans lists (leaf, plan) pairs, and plan
    computes the moment stored at leaf.

        node  := g  group*g
        group := k p1..pk  m leaf*m  c child*c    (one expectation)
        child := kind target size node            (one insertion)

    size is the length of the child's encoded node, so a walk can step
    over it.  Plans that agree up to a step share the operands it sees,
    so the steps after a common prefix start from one node.  The
    typecode is the narrowest that holds the largest entry.
    """
    root: dict = {}
    for leaf, plan in plans:
        node = root
        for positions, insertion in plan:
            leaves, children = node.setdefault(positions, ([], {}))
            if insertion is None:
                leaves.append(leaf)
            else:
                node = children.setdefault(insertion, {})
    prog: list[int] = []

    def emit(node):
        prog.append(len(node))
        for positions, (leaves, children) in node.items():
            prog.append(len(positions))
            prog.extend(positions)
            prog.append(len(leaves))
            prog.extend(leaves)
            prog.append(len(children))
            for insertion, child in children.items():
                prog.extend(insertion)
                prog.append(0)
                at = len(prog)
                emit(child)
                prog[at - 1] = len(prog) - at

    try:
        emit(root)
    finally:
        del emit  # the closure refers to itself through its cell
    return array("H" if max(prog) < 1 << 16 else "I", prog)


def run_program(prog: Program, ops: list, ctx: MomentContext, out):
    """Evaluate a program depth first: the empty dict out receives, at
    each leaf the walk reaches, the moment of that leaf's plan, in the
    order the walk reaches them.  ops[p] is the operand at position p
    (ops[0] is unused); an insertion is undone once its subtree is done,
    so every child starts from its parent's operands.  A root group is
    compiled when the walk first enters it with a value that does not
    vanish.  The children of a group whose value vanishes are stepped
    over, and their leaves are left unset; the return value is the last
    vanishing value met, the one zero of B that every such leaf holds, or
    None when nothing vanished.

    The walk applies each insertion by the kind the program records,
    through ctx.insert.  A program planned on one side map serves the
    mirror image of that map too, l and r exchanged, when ctx exchanges
    PREPEND_LEFT and PREPEND_RIGHT (cumulants._Mirrored): the mirror keeps
    every collapse order and target.
    """
    expect = ctx.expect
    insert = ctx.insert
    vanishes = ctx.vanishes
    zero = None
    memo: dict = {}  # Program.subtree's, shared by the groups this walk compiles

    def walk(code, i, c, value):
        """Walk the c children at code[i] of a group of the given value;
        the index past them."""
        nonlocal zero
        for _ in range(c):
            t = code[i + 1]
            old = ops[t]
            ops[t] = insert(code[i], value, old)
            groups = code[i + 3]
            i += 4
            for _ in range(groups):
                k = code[i]
                i += 1 + k
                v = expect([ops[p] for p in code[i - k : i]])
                m = code[i]
                for leaf in code[i + 1 : i + 1 + m]:
                    out[leaf] = v
                i += 2 + m
                cc = code[i - 1]
                if not cc:
                    continue
                if vanishes(v):
                    zero = v
                    for _ in range(cc):
                        i += 3 + code[i + 2]
                else:
                    i = walk(code, i, cc, v)
            ops[t] = old
        return i

    try:
        for g, (positions, ends, goes_on) in enumerate(prog.roots):
            value = expect([ops[p] for p in positions])
            for leaf in ends:
                out[leaf] = value
            if not goes_on:
                continue
            if vanishes(value):
                zero = value
                continue
            code = prog.subtree(g, memo)
            i = 3 + len(positions) + len(ends)  # the group's child count
            walk(code, i + 1, code[i], value)
    finally:
        # walk refers to itself through its cell, and through its bound
        # expect to the context: dropped here, not by the cycle collector
        del walk
    return zero
