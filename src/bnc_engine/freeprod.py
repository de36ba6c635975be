"""Bimodules with a designated base-algebra summand and their free products.

Module coordinates always start with the base-algebra block: a module of
dimension d over B stores B's coefficients in coordinates 0..dim(B)-1
and the complement in the rest, so the projection onto B is coordinate
truncation.  The truncated free product resolves tensor words over B by
explicit quotients of plain tensor spaces, one per colour sequence, each
built the first time it is read and then kept (space(seq)), and exposes
the left/right regular representations, the per-colour boolean
projections, diagram-indexed vectors, and the decomposition of operator
words into diagram contributions.

Tensor-word layout.  A plain word of colours (k1, ..., km) has one leg
per colour, each leg a coordinate of that module's complement, and
plain index ((i1·d2 + i2)·d3 + ...)·dm + im: row-major, first leg most
significant.  Where B ≠ ℚ the word space is the quotient of that plain
space by the relations x·b ⊗ y = x ⊗ b·y between adjacent legs; its
coordinate q is the plain index quotient.coords[q] (the non-pivot
indices of the row-reduced relations), so lifting a coordinate is a
relabelling and projecting is one sparse row reduction of the plain
word's nonzero entries, never a dense vector of the full width.  The
relations are built prefix first: W(s) starts from the reduced rows of
W(s[:-1]), each lifted by the new last leg (row r with pivot p becomes
r ⊗ e_c with pivot p·d + c, still in reduced echelon form), and adds
only its last joint's relations, under the non-pivot indices of the
legs before that joint; reading W(s) first builds W(s[:-1]) and
W(s[:-2]) if they are not built yet, so the order of reads changes no
pivot or coordinate.  WordSpace owns the layout:
split/join take the first or last leg off a plain index and put it
back, grow adds an edge leg, pair_rows places a relation on two
adjacent legs as sparse rows, and to_plain/from_plain pass between
plain indices and coordinates, to_plain through the quotient's section.

Left representations act through the first tensor leg, right ones
through the last; a new leg deeper than the configured depth raises
DepthExceeded rather than truncating silently.

Word decomposition.  lr_decompose expands a word applied to the unit
as the LR diagrams are built, each top string carrying its own module
vector: per node one step, a join (merge, or cut at the B part) or an
open, whose string is then kept at the top or closed into the string
beside it.  Only live branches are built (lr_decompose says why that is
exact for any B).  The terms are summed per diagram, keyed by its
sorted closed strings and its top strings; each diagram is made once
and kept by that key, so a group's residual part and its total share
it, and make_diagram runs only for what is read: without coefficients,
only the diagrams with a residual part.  A term's tensor word is added
as a plain word (tensor_plain, the one leg-growing loop, which
tensor_embed also reads) to plain sums per colour sequence, and each
sum (the direct word, the projected word, each residual part or total)
is projected to coordinates once, which is exact since from_plain is
linear.

Operator words.  A word is a chain of atoms, applied last atom first.
A λ/ρ atom is the triple (side, colour, operator), side 'l' for the
left representation λ and 'r' for the right one ρ; the other atoms act
by B on the left or right ('lb'/'rb', b) or project onto a colour
('proj', k, None).  One word object serves apply_chain, the moment
context and lr_decompose.  Each atom is defined once, on one basis
word (TruncatedFreeProduct.image), and acts on a vector only as the
linear extension of those images (linear_extension), read from one
table per colour sequence (basis index -> image, each computed on
first use): the free product's act passes fresh tables that the call
drops, a moment context's act keeps its tables for its own life.  The
extension returns its sum as built, with no cleaning copy, unless an
entry cancelled to zero.  An image reads linalg Kernels, each built
once: a ModuleOperator keeps its own, whose complement columns hold its
complement block and its complement-to-base rows, and a module keeps
one per B basis action and side (left_kernels, right_kernels), so every
colour built on it shares them; an edge leg reads them on the
complement and lr_decompose's folds whole.  A B value acts as the
combination of its basis kernels (linalg.combine), so no call builds a
dense matrix; the commutant check of a ModuleOperator, too, compares
T·K with K·T column by column through those kernels.

Moments.  FreeMomentContext is the free product's one moment context:
the checkers read every chain's vector and expectation from one, and
apply chains to their probe vectors through it; lr_decompose builds
one per word, shared by the rule vectors of all its diagrams
(e_d_vector), whose operands are the word's own atoms.  Its
insert(kind, value, elem) adds one B-action atom for the value to the
chain elem: ('rb', b) in front for PREPEND_RIGHT, ('lb', b) in front
for PREPEND_LEFT, and ('lb', b) at the end, acting first, for
APPEND_LEFT.  apply_chain is the one chain walker: it calls act on the
free product or on a context, which keeps each image it computes.  A
chain whose suffix vector vanishes is zero, since every atom acts
linearly: apply_chain stops at the first vector that vanishes, and the
context's suffix trie ends every such suffix in one shared zero node,
so a chain that reaches it applies and interns none of the atoms in
front of it.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Iterable, NamedTuple, Optional, Sequence

from .algebra import (
    AlgebraElement,
    BBProbSpace,
    SideMismatch,
    StructuredAlgebra,
)
from .bimult import APPEND_LEFT, PREPEND_RIGHT, MomentContext, reduce_blocks
from .diagrams import LRDiagram, make_diagram
from .errors import InputError
from .linalg import (
    Kernel,
    Mat,
    ONE,
    Quotient,
    RowSpace,
    Scalar,
    Vec,
    ZERO,
    block_matrix,
    combine,
    div,
    frac,
    kernel,
    mat_combination,
    nullspace,
    sparse,
    zeros,
)
from .partitions import ChiMap, EpsilonMap

FpVec = dict[tuple[int, ...], dict[int, Scalar]]


class DepthExceeded(InputError):
    """A word would exceed the truncation depth; nothing is truncated."""


@dataclass
class BimoduleWithProjection:
    """B-B-bimodule whose first dim(B) coordinates are the B summand.  Its
    action kernels are built from the actions on first use and kept."""

    B: StructuredAlgebra
    dim: int
    left_action: tuple[Mat, ...]  # per B basis element
    right_action: tuple[Mat, ...]

    @property
    def osc_dim(self) -> int:
        return self.dim - self.B.dim

    def embed_b(self, b: AlgebraElement) -> Vec:
        return list(b.coeffs) + zeros(self.osc_dim)

    def unit_vector(self) -> Vec:
        return self.embed_b(self.B.one())

    def p(self, vec: Vec) -> AlgebraElement:
        return AlgebraElement(self.B, tuple(vec[: self.B.dim]))

    def osc_left(self, i: int) -> Mat:
        d = self.B.dim
        return [row[d:] for row in self.left_action[i][d:]]

    def osc_right(self, i: int) -> Mat:
        d = self.B.dim
        return [row[d:] for row in self.right_action[i][d:]]

    @cached_property
    def left_kernels(self) -> tuple[Kernel, ...]:
        """The left action of each B basis element as a Kernel."""
        return tuple(kernel(zip(*m)) for m in self.left_action)

    @cached_property
    def right_kernels(self) -> tuple[Kernel, ...]:
        """The right action of each B basis element as a Kernel."""
        return tuple(kernel(zip(*m)) for m in self.right_action)


@dataclass(frozen=True)
class ModuleOperator:
    """A matrix on a module.  It keeps its sparse columns (columns) and
    its image of the unit, each built on first use; column dim(B) + c is
    where it sends complement coordinate c, its rows below dim(B) the
    base part, the others the complement block."""

    mod: BimoduleWithProjection
    matrix: tuple[tuple[Scalar, ...], ...]

    @cached_property
    def columns(self) -> Kernel:
        return kernel(zip(*self.matrix))

    def apply(self, vec: Sequence[Scalar]) -> Vec:
        """The operator on a module vector, or on the vector of B
        coefficients vec embedded in the B summand."""
        return combine((ONE,), (self.columns,), vec, self.mod.dim)

    @cached_property
    def unit_image(self) -> Vec:
        """The operator on the module's unit, computed once; callers must
        not mutate it."""
        return self.apply(self.mod.unit_vector())

    def commutes_with_side(self, side: str) -> bool:
        """'l' operators commute with right actions, 'r' with left ones:
        T·(K e_c) = K·(T e_c) for each B basis action K and column c, both
        read through sparse columns (columns and the module's kernels)."""
        cols = self.columns
        kers = self.mod.right_kernels if side == "l" else self.mod.left_kernels
        for ker in kers:
            for k_c, t_c in zip(ker, cols):
                diff: dict[int, Scalar] = {}
                for r, v in k_c:
                    for s, x in cols[r]:
                        diff[s] = diff.get(s, ZERO) + v * x
                for r, v in t_c:
                    for s, x in ker[r]:
                        diff[s] = diff.get(s, ZERO) - v * x
                if any(diff.values()):
                    return False
        return True


def module_operator(mod, matrix, side=None) -> ModuleOperator:
    """matrix on mod; with a side, refused outside that side's commutant."""
    op = ModuleOperator(mod, tuple(tuple(map(frac, r)) for r in matrix))
    if side is not None and not op.commutes_with_side(side):
        raise SideMismatch(f"operator does not satisfy the side-{side} commutant")
    return op


class Theta:
    """Representation of an algebra on its associated module."""

    def __init__(self, mod: BimoduleWithProjection, basis_mats):
        self.mod = mod
        self._basis = basis_mats

    def matrix(self, elem: AlgebraElement) -> Mat:
        return mat_combination(elem.coeffs, self._basis)

    def operator(self, elem: AlgebraElement, side=None) -> ModuleOperator:
        return module_operator(self.mod, self.matrix(elem), side)


def build_bimodule_from_space(space: BBProbSpace):
    """Quotient model of the space acting on itself.

    The module is B plus the kernel of the expectation modulo the span
    of T L_b - T R_b; the representation sends T to the operator acting
    by multiplication followed by the quotient map.
    """
    A, B = space.A, space.B
    ker_rows, free = nullspace([list(r) for r in space.expectation], A.dim)

    def ker_coords(elem: AlgebraElement) -> Vec | None:
        """Coordinates over ker_rows, or None outside the kernel of E."""
        if not space.expect(elem).is_zero():
            return None
        return [elem.coeffs[f] for f in free]

    rel = RowSpace(len(ker_rows))
    for t in range(A.dim):
        et = A.basis_element(t)
        for i in range(B.dim):
            bi = B.basis_element(i)
            d = et * space.embed_left(bi) - et * space.embed_right(bi)
            coords = ker_coords(d)
            if coords is None:
                raise ValueError("difference element escapes the kernel")
            rel.add(sparse(coords))
    quotient = Quotient(rel)
    osc = quotient.dim
    dim = B.dim + osc

    def q_of(elem: AlgebraElement) -> Vec:
        coords = ker_coords(elem)
        if coords is None:
            raise ValueError("element not in the expectation kernel")
        proj = quotient.project(sparse(coords))
        return [proj.get(q, ZERO) for q in range(osc)]

    def column(T: AlgebraElement, x: AlgebraElement) -> Vec:
        tx = T * x
        e = space.expect(tx)
        rest = tx - space.embed_left(e)
        return list(e.coeffs) + q_of(rest)

    # quotient coordinate j lifts to kernel vector quotient.coords[j]
    sections = [A.element(ker_rows[j]) for j in quotient.coords]

    basis_mats = []
    for t in range(A.dim):
        et = A.basis_element(t)
        cols = [column(et, space.embed_left(B.basis_element(i))) for i in range(B.dim)]
        cols += [column(et, sec) for sec in sections]
        basis_mats.append([[cols[c][r] for c in range(dim)] for r in range(dim)])

    def action(embed) -> tuple[Mat, ...]:
        return tuple(
            tuple(tuple(row) for row in mat_combination(embed(b).coeffs, basis_mats))
            for b in map(B.basis_element, range(B.dim))
        )

    mod = BimoduleWithProjection(
        B, dim, action(space.embed_left), action(space.embed_right)
    )
    theta = Theta(mod, [tuple(tuple(r) for r in m) for m in basis_mats])
    return mod, theta


def doubled_bimodule(x: BimoduleWithProjection) -> BimoduleWithProjection:
    """Direct sum of the module with itself; only the first copy's base
    block stays designated, so the complement grows by a full copy."""
    d = x.dim
    # the second copy's coordinates follow the whole first copy, so the
    # base block stays at the front
    left, right = (
        tuple(tuple(map(tuple, block_matrix(d, {(0, 0): m, (1, 1): m}))) for m in mats)
        for mats in (x.left_action, x.right_action)
    )
    return BimoduleWithProjection(x.B, 2 * d, left, right)


@dataclass
class WordSpace:
    """Tensor words of one colour sequence: plain indices and coordinates.

    The only code that knows the row-major leg layout (see the module
    docstring); everything else splits and joins through it.  Words are
    sparse {index: scalar} dicts on both sides of the quotient, which
    holds the reduced relations seeded from the prefix word space.
    """

    osc_dims: tuple[int, ...]
    quotient: Optional[Quotient] = None  # None = relations vanish
    strides: tuple[int, ...] = field(init=False)
    plain_dim: int = field(init=False)

    def __post_init__(self):
        strides = [1]
        for dcur in reversed(self.osc_dims[1:]):
            strides.append(strides[-1] * dcur)
        self.strides = tuple(reversed(strides))
        self.plain_dim = self.strides[0] * self.osc_dims[0]

    @property
    def dim(self) -> int:
        return self.quotient.dim if self.quotient else self.plain_dim

    def split(self, idx: int, first: bool) -> tuple[int, int]:
        """(edge leg, plain index of the other legs) of a plain index,
        for the first leg or the last one."""
        if first:
            return divmod(idx, self.strides[0])
        rest, leg = divmod(idx, self.osc_dims[-1])
        return leg, rest

    def join(self, leg: int, rest: int, first: bool) -> int:
        """The plain index that split() takes apart."""
        return leg * self.strides[0] + rest if first else rest * self.osc_dims[-1] + leg

    def grow(self, plain: dict[int, Scalar], leg_vec: Vec, first: bool):
        """Plain word of this space from a plain word without its edge leg
        and the edge leg's complement coordinates."""
        out: dict[int, Scalar] = {}
        for rest, c in plain.items():
            for leg, v in enumerate(leg_vec):
                if v:
                    out[self.join(leg, rest, first)] = c * v
        return out

    def pair_rows(self, leg: int, pair: dict[tuple[int, int], Scalar], heads=None):
        """Sparse rows of a relation on legs (leg, leg + 1), given as
        {(a, c): nonzero coefficient}, one per setting of the other legs;
        heads, when given, are the plain indices of the legs before leg
        to use instead of all of them.  The two legs are adjacent digits,
        so (a, c) is the one digit a·d' + c of place value strides[leg + 1]."""
        d1, d2 = self.osc_dims[leg], self.osc_dims[leg + 1]
        inner = self.strides[leg + 1]
        digits = [(a * d2 + c, v) for (a, c), v in pair.items()]
        if heads is None:
            heads = range(self.plain_dim // (d1 * d2 * inner))
        for hi in heads:
            for lo in range(inner):
                base = hi * d1 * d2 * inner + lo
                yield {base + dig * inner: v for dig, v in digits}

    def to_plain(self, coords: dict[int, Scalar]) -> dict[int, Scalar]:
        return coords if self.quotient is None else self.quotient.section(coords)

    def from_plain(self, plain: dict[int, Scalar]) -> dict[int, Scalar]:
        if self.quotient is None or not plain:
            return {k: v for k, v in plain.items() if v}
        return self.quotient.project(plain)


class TruncatedFreeProduct:
    """Depth-bounded free product of modules sharing a base algebra.

    Word spaces are built on demand: a new free product holds none, and
    W(s) is built when something first reads it (an operator growing a
    word to s, a vector on s, space(s)).  sequences() lists the colour
    sequences and builds nothing; only describe() builds every space."""

    def __init__(self, components: dict[int, BimoduleWithProjection], depth: int):
        if not components:
            raise ValueError("free product needs at least one component")
        bs = {id(c.B) for c in components.values()}
        if len(bs) > 1:
            raise ValueError("components must share the base algebra")
        self.components = dict(components)
        self.B = next(iter(components.values())).B
        self.depth = depth
        self._built: dict[tuple[int, ...], WordSpace] = {}

    def space(self, seq: tuple[int, ...]) -> WordSpace:
        """W(seq), built on first use from W(seq[:-1]) and W(seq[:-2]),
        which are built first if need be, and kept; KeyError for a
        sequence that is not an alternating word within the depth."""
        ws = self._built.get(seq)
        if ws is None:
            if not (
                type(seq) is tuple
                and 0 < len(seq) <= self.depth
                and all(map(self.components.__contains__, seq))
                and all(map(operator.ne, seq, seq[1:]))
            ):
                raise KeyError(seq)
            ws = self._built[seq] = self._build_wordspace(seq)
        return ws

    def sequences(self):
        """Every alternating colour sequence of length 1..depth, shorter
        first; it builds no word space."""
        colours = sorted(self.components)
        frontier = [()]
        for _ in range(self.depth):
            frontier = [
                s + (k,) for s in frontier for k in colours if not s or s[-1] != k
            ]
            yield from frontier

    def _build_wordspace(self, seq: tuple[int, ...]) -> WordSpace:
        """W(s) seeded from its prefix W(s[:-1]): the prefix's reduced
        relations, lifted by the new last leg, are the relations of every
        joint but the last, already in reduced echelon form.  Only the
        last joint's relations are added, and only under the non-pivot
        indices of the legs before it: under a pivot index the relation
        is, modulo W(s[:-2])'s relations (already among the lifted rows),
        a combination of those."""
        ws = WordSpace(tuple(self.components[k].osc_dim for k in seq))
        if self.B.dim == 1 or len(seq) < 2:
            return ws
        prefix = self.space(seq[:-1]).quotient
        rel = prefix.sub.lifted(ws.osc_dims[-1]) if prefix else RowSpace(ws.plain_dim)
        leg = len(seq) - 2
        head = self.space(seq[:leg]).quotient if leg else None
        for pair in self.joint_relations(seq, leg):
            for row in ws.pair_rows(leg, pair, head.coords if head else None):
                rel.add(row)
        if rel.rank:
            ws.quotient = Quotient(rel)
        return ws

    def joint_relations(self, seq: tuple[int, ...], leg: int):
        """The relations x·b ⊗ y - x ⊗ b·y on legs (leg, leg + 1) of seq,
        one {(a, c): nonzero coefficient} per basis b and basis legs x = a,
        y = c, skipping those that vanish."""
        xmod, ymod = self.components[seq[leg]], self.components[seq[leg + 1]]
        d1, d2 = xmod.osc_dim, ymod.osc_dim
        for bi in range(self.B.dim):
            right, left = xmod.osc_right(bi), ymod.osc_left(bi)
            for a in range(d1):
                for c in range(d2):
                    pair = {(a2, c): right[a2][a] for a2 in range(d1) if right[a2][a]}
                    for c2 in range(d2):
                        if left[c2][c]:
                            pair[(a, c2)] = pair.get((a, c2), ZERO) - left[c2][c]
                    pair = {ac: v for ac, v in pair.items() if v}
                    if pair:
                        yield pair

    # --- vectors ---------------------------------------------------------

    def unit(self) -> FpVec:
        return self.embed_b(self.B.one())

    def embed_b(self, b: AlgebraElement) -> FpVec:
        comp = {i: c for i, c in enumerate(b.coeffs) if c}
        return {(): comp} if comp else {}

    def p(self, vec: FpVec) -> AlgebraElement:
        comp = vec.get((), {})
        coeffs = tuple(comp.get(i, ZERO) for i in range(self.B.dim))
        return AlgebraElement(self.B, coeffs)

    def add(self, *vecs: FpVec) -> FpVec:
        out: FpVec = {}
        for v in vecs:
            _acc_vec(out, v)
        return _clean(out)

    def scale(self, c, vec: FpVec) -> FpVec:
        c = frac(c)
        if not c:
            return {}
        return {seq: {i: c * v for i, v in comp.items()} for seq, comp in vec.items()}

    def is_zero(self, vec: FpVec) -> bool:
        return not _clean(vec)

    def equal(self, u: FpVec, v: FpVec) -> bool:
        return _clean(u) == _clean(v)

    def describe(self) -> dict:
        """Word-basis summary: component dims per colour sequence."""
        return {
            "base_dim": self.B.dim,
            "depth": self.depth,
            "words": {
                "".join(str(k) for k in seq): self.space(seq).dim
                for seq in sorted(self.sequences())
            },
        }

    # --- operator actions -------------------------------------------------

    def image(self, atom: Atom, seq: tuple[int, ...], i: int) -> tuple:
        """The atom on basis word i of W(seq), or on B's i-th basis element
        when seq is (), as (sequence, index, value) triples, one per
        nonzero entry.  This is the one definition of every atom; act and
        FreeMomentContext.act are its linear extension."""
        kind = atom[0]
        if kind == "proj":
            return ((seq, i, ONE),) if seq in ((), (atom[1],)) else ()
        first = kind in ("l", "lb")
        if seq:
            ws = self.space(seq)
            [idx] = ws.to_plain({i: ONE})
        if kind in ("lb", "rb"):
            b = atom[1]
            if seq:
                return _triples({seq: self._edge(seq, b.coeffs, idx, first)})
            e = self.B.basis_element(i)
            return _triples({(): dict(enumerate((b * e if first else e * b).coeffs))})
        if kind not in ("l", "r"):
            raise ValueError(f"unknown atom {atom!r}")
        k, op = atom[1], atom[2]
        nb = self.B.dim
        out: FpVec = {}
        if seq and (seq[0] if first else seq[-1]) == k:
            # op consumes the edge leg: the complement part of its image
            # stays there, and the base part acts on the rest of the word
            leg, rest = ws.split(idx, first)
            stay, base = {}, [ZERO] * nb
            for r, v in op.columns[nb + leg]:
                if r < nb:
                    base[r] = v
                else:
                    stay[ws.join(r - nb, rest, first)] = v
            out[seq] = ws.from_plain(stay)
            seq, osc = (seq[1:] if first else seq[:-1]), ()
        else:
            # the word beside the unit of module k, or B's element i in it:
            # op's base part acts on the word, its complement part is a new
            # edge leg
            x = op.unit_image if seq else op.apply(self.B.basis_element(i).coeffs)
            rest = idx if seq else 0  # the base summand is plain index 0
            base, osc = x[:nb], x[nb:]
        if any(base):
            out[seq] = self._edge(seq, base, rest, first) if seq else dict(enumerate(base))
        if any(osc):
            nseq = (k,) + seq if first else seq + (k,)
            if len(nseq) > self.depth:
                raise DepthExceeded(f"word {seq} cannot grow beyond depth {self.depth}")
            nws = self.space(nseq)
            out[nseq] = nws.from_plain(nws.grow({rest: ONE}, osc, first))
        return _triples(out)

    def _edge(self, seq, b: Sequence[Scalar], idx: int, first: bool):
        """Coordinates of plain index idx of seq with B coefficients b acting
        on its first leg (from the left) or its last (from the right).  B
        maps the complement to itself, so complement coordinate c, module
        coordinate dim(B) + c, goes to the module coordinates of its
        kernel columns, all past dim(B)."""
        ws = self.space(seq)
        nb = self.B.dim
        comp = self.components[seq[0] if first else seq[-1]]
        leg, rest = ws.split(idx, first)
        kers = comp.left_kernels if first else comp.right_kernels
        col = combine(b, kers, [ZERO] * (nb + leg) + [ONE], comp.dim)
        return ws.from_plain(
            {ws.join(r, rest, first): v for r, v in enumerate(col[nb:]) if v}
        )

    def act(self, atom: Atom, vec: FpVec) -> FpVec:
        """The atom on vec, from its images computed afresh into tables
        that the call drops."""
        return linear_extension(partial(self.image, atom), {}, vec)

    def lambda_apply(self, op: ModuleOperator, k: int, vec: FpVec) -> FpVec:
        return self.act(("l", k, op), vec)

    def rho_apply(self, op: ModuleOperator, k: int, vec: FpVec) -> FpVec:
        return self.act(("r", k, op), vec)

    def bool_proj(self, k: int, vec: FpVec) -> FpVec:
        return self.act(("proj", k, None), vec)

    def tensor_embed(self, factors: list[tuple[int, Vec]]) -> FpVec:
        """Word vector from per-leg complement coordinates."""
        if not factors:
            return self.unit()
        seq, plain = self.tensor_plain(factors)
        return _project(self, {seq: plain} if plain else {})

    def tensor_plain(self, factors):
        """(colour sequence, plain word) of per-leg complement coordinates,
        grown one leg at a time; the word is {} from the first leg that
        vanishes, and no longer word space is read."""
        seq = tuple(k for k, _ in factors)
        if len(seq) > self.depth:
            raise DepthExceeded(f"word of length {len(seq)} exceeds the depth")
        plain = {0: ONE}
        for j, (_, osc) in enumerate(factors):
            plain = self.space(seq[: j + 1]).grow(plain, osc, first=False)
            if not plain:
                break
        return seq, plain


def _triples(vec: FpVec) -> tuple:
    """vec's nonzero entries as (sequence, index, value) triples."""
    return tuple((s, j, v) for s, comp in vec.items() for j, v in comp.items() if v)


def linear_extension(image, tables: dict, vec: FpVec) -> FpVec:
    """The linear map with the given images of basis words on vec: the sum
    of the images of vec's entries, each scaled by its entry.  image(seq,
    i) gives the image of basis word i of W(seq) as (sequence, index,
    value) triples with nonzero values; tables[seq][i] keeps it, computed
    on first use, for as long as the caller keeps tables.  The sum is a
    new vector, returned as it is built when it is clean, which is the
    usual case; only when an entry cancelled to zero is it cleaned
    (_clean), so the result never holds a zero entry or an empty
    component."""
    out: FpVec = {}
    for seq, comp in vec.items():
        table = tables.setdefault(seq, {})
        for i, c in comp.items():
            got = table.get(i)
            if got is None:
                got = table[i] = image(seq, i)
            for s, j, v in got:
                tgt = out.get(s)
                if tgt is None:
                    tgt = out[s] = {}
                tgt[j] = tgt.get(j, ZERO) + c * v
    for comp in out.values():
        if not all(comp.values()):
            return _clean(out)
    return out


def _clean(vec: FpVec) -> FpVec:
    out = {}
    for seq, comp in vec.items():
        comp = {i: c for i, c in comp.items() if c}
        if comp:
            out[seq] = comp
    return out


def reduced_free_product(
    components: dict[int, BimoduleWithProjection], depth: int
) -> TruncatedFreeProduct:
    return TruncatedFreeProduct(components, depth)


# --- operator chains ------------------------------------------------------

Atom = tuple  # ('l'|'r', k, ModuleOperator) | ('lb'|'rb', b) | ('proj', k, None)


def apply_chain(on, chain: Iterable[Atom], vec: FpVec, trail=None) -> FpVec:
    """The chain applied to vec, its last atom first, through on.act: on
    the free product each atom's images are computed afresh, on a
    FreeMomentContext they are read from its memo.  trail, when given,
    receives the vector after each atom.  Every atom acts linearly, so a
    vector that vanishes stays zero: the walk stops at the first one, and
    trail ends with it."""
    for atom in reversed(list(chain)):
        vec = on.act(atom, vec)
        if trail is not None:
            trail.append(vec)
        if not vec:
            break
    return vec


class _Suffix:
    """Trie node: a chain suffix's vector on the unit, its expectation
    once asked for, and the longer suffixes keyed by their front atom."""

    __slots__ = ("vec", "value", "children")

    def __init__(self, vec: FpVec):
        self.vec = vec
        self.value = None
        self.children: dict[int, "_Suffix"] | None = None


class FreeMomentContext(MomentContext):
    """Moments of operator chains acting on the free product.

    Atoms are interned as small ids: λ/ρ atoms by colour and operator
    identity, B-action atoms by coefficients, projections by colour.
    Each atom object is pinned when first seen, so no later object can
    reuse its id; chains are not pinned.  Chains apply from the right to
    the unit, so vectors and expectations are read off one suffix trie
    walked from a chain's last atom.  Each node holds its suffix's vector
    and, once asked for, its expectation; a miss applies only the atoms
    in front of the deepest node reached.  Every suffix whose vector
    vanishes is the one zero node, which has no children: a walk that
    reaches it returns it, so the atoms in front are neither applied nor
    interned, and a miss makes no node past the first vector that
    vanishes.  vector() returns a node's vector itself, shared with the
    trie, so callers must not mutate it.

    Every atom acts through the context's tables of basis images (act).
    A table holds one atom's images of the basis words of one colour
    sequence (the base summand is the sequence ()), kept under the atom
    id and the sequence; it maps a coordinate i to the image of basis
    word i as one tuple of (sequence, index, value) triples, computed
    once by TruncatedFreeProduct.image on first use.  An atom on a
    vector is linear_extension of its tables, the rule the free
    product's own act follows with fresh tables: exact, since every atom
    is linear and scalars are exact.  The trie's misses and apply, a
    chain on any vector, both act this way, and every vector they
    return is clean.  The tables live as long as the context, which is
    built per checker call or sweep, so none outlives it.
    """

    def __init__(self, fp: TruncatedFreeProduct):
        self.fp = fp
        self._ids: dict = {}  # (kind, colour or coefficients or op id) -> atom id
        self._seen: dict[int, int] = {}  # id(atom object) -> atom id
        self._pinned: list[Atom] = []  # every atom object in _seen
        self._b_atoms = {"lb": {}, "rb": {}}  # kind -> id(B value) -> its atom
        self._root = _Suffix(fp.unit())
        self._zero = _Suffix({})  # every suffix whose vector vanishes
        self._tables: dict = {}  # atom id -> sequence -> index -> image triples

    def intern(self, atom: Atom) -> int:
        """The atom's id; equal atoms share one."""
        aid = self._seen.get(id(atom))
        if aid is None:
            kind = atom[0]
            if kind in ("l", "r"):
                key = (kind, atom[1], id(atom[2]))
            elif kind in ("lb", "rb"):
                key = (kind, atom[1].coeffs)
            else:
                key = (kind, atom[1])
            aid = self._ids.setdefault(key, len(self._ids))
            self._seen[id(atom)] = aid
            self._pinned.append(atom)
        return aid

    def _b_atom(self, kind: str, value) -> Atom:
        """One interned atom per B value object: values recur as the same
        objects (expectations are cached), so they are found by identity.
        The pinned atom keeps its value alive."""
        memo = self._b_atoms[kind]
        atom = memo.get(id(value))
        if atom is None:
            atom = memo[id(value)] = (kind, value)
            self.intern(atom)
        return atom

    def act(self, atom: Atom, vec: FpVec) -> FpVec:
        """The atom on vec, from the atom's kept tables of basis images,
        one per colour sequence, each image computed on first use."""
        tables = self._tables.setdefault(self.intern(atom), {})
        return linear_extension(partial(self.fp.image, atom), tables, vec)

    def apply(self, chain: Iterable[Atom], vec: FpVec) -> FpVec:
        """The chain applied to any vector through the basis images."""
        return apply_chain(self, chain, vec)

    def _node(self, elems) -> _Suffix:
        """The trie node of the chain of elems, grown on a miss."""
        chain = tuple(itertools.chain.from_iterable(elems))
        seen = self._seen
        node = self._root
        depth = 0
        for atom in reversed(chain):
            aid = seen.get(id(atom))
            if aid is None:
                aid = self.intern(atom)
            nxt = node.children.get(aid) if node.children else None
            if nxt is None:
                break
            if nxt is self._zero:
                return nxt
            node = nxt
            depth += 1
        if depth < len(chain):
            node = self._grow(node, chain[: len(chain) - depth])
        return node

    def expect(self, elems):
        node = self._node(elems)
        if node.value is None:
            node.value = self.fp.p(node.vec)
        return node.value

    def vector(self, elems) -> FpVec:
        """The chain's vector on the unit: the trie node's own vector,
        which the caller must not mutate."""
        return self._node(elems).vec

    def _grow(self, node: _Suffix, front: tuple) -> _Suffix:
        """Apply front to node's vector, one new node per atom up to the
        first vector that vanishes, which becomes the shared zero node;
        the node of the whole chain."""
        trail: list[FpVec] = []
        apply_chain(self, front, node.vec, trail)
        intern = self.intern
        for atom, vec in zip(reversed(front), trail):
            if node.children is None:
                node.children = {}
            child = node.children[intern(atom)] = _Suffix(vec) if vec else self._zero
            node = child
        return node

    def insert(self, kind, value, elem):
        b = self._b_atom("rb" if kind == PREPEND_RIGHT else "lb", value)
        return (*elem, b) if kind == APPEND_LEFT else (b, *elem)

    def vanishes(self, value) -> bool:
        return value.is_zero()


def e_d_vector(diagram: LRDiagram, word: list[Atom], mf: FreeMomentContext) -> FpVec:
    """Vector contribution of one diagram to an operator word, read from
    the word's context on the free product.

    word lists the positions' λ/ρ atoms, whose sides and colours must be
    the diagram's; each position's operand is its atom.  The closed
    strings collapse through bimult.reduce_blocks, the replay of their
    plan with the top strings (in spine_order) as stops; each top string
    then contributes the complement leg of its chain on the unit,
    tensored in spine order.  A string has one colour, so its chain acts
    on the free product as its word does on that component module.
    """
    if [atom[:2] for atom in word] != list(zip(diagram.chi.sides, diagram.eps.colours)):
        raise ValueError("the word's sides and colours must be the diagram's")
    fp = mf.fp
    side = dict(enumerate(diagram.chi.sides, start=1))
    ops = [None, *((atom,) for atom in word)]
    gaps = {nodes: r + 1 for r, nodes in enumerate(diagram.spine_order)}
    closed = tuple(nodes for nodes, _ in diagram.strings if nodes not in gaps)
    moment = reduce_blocks(closed, gaps, ops, side, mf)
    if moment is not None:
        return fp.embed_b(moment)
    factors = []
    for nodes in diagram.spine_order:
        k = diagram.eps.colour(nodes[0])
        leg = mf.vector([ops[pos] for pos in nodes]).get((k,), {})
        factors.append((k, [leg.get(i, ZERO) for i in range(fp.components[k].osc_dim)]))
    return fp.tensor_embed(factors)


# --- word decomposition ---------------------------------------------------


class _Term(NamedTuple):
    """One live branch of the expansion: a signed diagram in progress.

    top holds the strings at the top gap, leftmost first, each as
    (nodes, colour, module vector); with no top string left, bval holds
    the collapsed B coefficients instead.  No top string's vector and no
    bval is ever the zero vector (see lr_decompose).
    """

    coeff: int
    done: tuple[tuple[int, ...], ...]  # closed strings, in closing order
    top: tuple[tuple[tuple[int, ...], int, Vec], ...]
    bval: Optional[Sequence[Scalar]]
    primed: bool


@dataclass
class Decomposition:
    """Word vector split into diagram contributions.

    contributions lists (diagram, coefficient, rule vector), made on the
    coefficient route only; primed is the projected word (equal to direct
    when nothing was projected) and residual the killed contributions,
    mirroring the split direct = primed + sum of residual vectors.
    Without coefficients residual lists (diagram, None, part).
    """

    fp: TruncatedFreeProduct
    direct: FpVec
    primed: FpVec
    residual: list[tuple[LRDiagram, Optional[Scalar], FpVec]]
    contributions: list[tuple[LRDiagram, Scalar, FpVec]] = field(default_factory=list)

    def reconstruction(self) -> FpVec:
        parts = [self.fp.scale(c, v) for _, c, v in self.contributions]
        return self.fp.add(*parts) if parts else {}


def lr_decompose(
    ops: list[Atom],
    fp: TruncatedFreeProduct,
    projected_positions: Iterable[int] = (),
    coefficients: bool = True,
) -> Decomposition:
    """Expand an operator word applied to the unit into diagram terms.

    ops is the word, one λ/ρ atom (side, colour, operator) per position.
    The expansion replays the construction, node n first.  Each node
    picks its branches and the top strings rest beside its string: a
    join (the side's end string has the node's colour) gives the merge
    ((i,) + nodes, op·u) and, when u has a B part, the cut (-coeff, the
    consumed string closed, (i,), op·u_B), with rest the top strings
    without the end one; an open gives ((i,), op·unit), or op·bval when
    no top string is left, with rest all of them.  _keep_or_close then
    keeps each branch's string at the top or closes it.

    Only live branches are built.  A branch whose new or folded string
    vector is the zero module vector, or whose collapsed B value is
    zero, is never made: every later step maps that vector linearly (a
    merge, a cut through its B part, a fold, or a close reading its B
    part), so it stays zero, and so does the tensor word the branch ends
    in, for any B.  The test reads the whole module vector: a vector
    whose complement part is zero is live, since its B part feeds later
    cut branches.  Terms are grouped by their diagram, that is by their
    sorted closed strings and their top strings.  DepthExceeded is
    decided before the expansion, from the sides and colours alone, so
    it does not depend on pruning.

    With coefficients, each diagram's part is divided by its rule vector
    (e_d_vector, read from one FreeMomentContext that every diagram of
    the word shares) into a scalar coefficient.  That route is tested
    over B = ℚ and, over B = D2, on the proof pipeline's split words of
    the doubled-diag2 system.  Over B ≠ ℚ a part need not be a scalar
    multiple of its rule vector unless every operator lies in its side's
    commutant, so such a word is refused with SideMismatch, naming
    the first offending position, before the expansion.  Without
    coefficients no contributions are made and no operator is refused:
    direct, primed and residual are the result.
    """
    n = len(ops)
    projected = set(projected_positions)
    chi = ChiMap(tuple(s for s, _, _ in ops))
    eps = EpsilonMap(tuple(k for _, k, _ in ops))
    _check_depth(ops, fp.depth)
    if coefficients and fp.B.dim > 1:
        for i, (side, _, op) in enumerate(ops, start=1):
            if not op.commutes_with_side(side):
                raise SideMismatch(
                    f"position {i}: operator is not in the side-{side} commutant, "
                    "so its diagram parts have no scalar coefficients"
                )
    nb = fp.B.dim
    terms = [_Term(1, (), (), fp.B.one().coeffs, True)]
    for i in range(n, 0, -1):
        side, colour, op = ops[i - 1]
        left = side == "l"
        new: list[_Term] = []
        for coeff, done, top, bval, primed in terms:
            end = 0 if left else len(top) - 1
            if top and top[end][1] == colour:
                # join the end string (merge), or cut it at its B part
                nodes, _, u = top[end]
                rest = top[:end] + top[end + 1 :]
                branches = [(coeff, done, (i,) + nodes, op.apply(u))]
                if any(u[:nb]):
                    branches.append((-coeff, done + (nodes,), (i,), op.apply(u[:nb])))
            else:
                # open a string at the end
                x = op.unit_image if top else op.apply(bval)
                rest, branches = top, [(coeff, done, (i,), x)]
            for branch in branches:
                _keep_or_close(new, fp, branch, rest, colour, left, primed)
        if i in projected:
            new = [
                t._replace(primed=False)
                if t.primed and not _survives(t.top, colour)
                else t
                for t in new
            ]
        terms = new
    return _collect(fp, chi, eps, ops, terms, coefficients)


def _check_depth(ops, depth: int):
    """Raise DepthExceeded if some branch of the expansion of ops would
    hold more than depth top strings.  Walks, with no vectors, the top
    strings' colours on the keep branch of lr_decompose's one step, for
    every node: a node joins its side's end string when the colours
    match, else opens one there, and the string stays at the top.  By
    induction every branch's tuple is a subsequence of that one: a close
    drops an entry, and where a branch opens colour c and this one joins,
    its end entry is c, so the branch's tuple embeds without it."""
    tops: list[int] = []
    for side, colour, _ in reversed(ops):
        if not tops or tops[0 if side == "l" else -1] != colour:
            tops.insert(0 if side == "l" else len(tops), colour)
    if len(tops) > depth:
        raise DepthExceeded("decomposition word exceeds the depth")


def _keep_or_close(new, fp, branch, rest, colour, left, primed):
    """The one step of the expansion: append the two terms of a branch
    (coeff, done, nodes, vec), whose string of the node's colour carries
    vec, beside the top strings rest.  Kept, the string goes at rest's
    end on the node's side (index 0 or len(rest)); closed, its B part
    folds into rest's end string on that side through the module's
    kernels, or becomes the term's bval when rest is empty.  Nothing is
    appended for a zero vec, a zero B part or a zero fold."""
    coeff, done, nodes, vec = branch
    if not any(vec):
        return
    at = 0 if left else len(rest)
    kept = rest[:at] + ((nodes, colour, vec),) + rest[at:]
    new.append(_Term(coeff, done, kept, None, primed))
    b = vec[: fp.B.dim]
    if not any(b):
        return
    done += (nodes,)
    if not rest:
        new.append(_Term(coeff, done, (), b, primed))
        return
    end = 0 if left else len(rest) - 1
    end_nodes, k, u = rest[end]
    comp = fp.components[k]
    folded = combine(b, comp.left_kernels if left else comp.right_kernels, u, len(u))
    if any(folded):
        closed = rest[:end] + ((end_nodes, k, folded),) + rest[end + 1 :]
        new.append(_Term(coeff, done, closed, None, primed))


def _survives(top, colour: int) -> bool:
    """Whether the boolean projection onto colour keeps a term's words."""
    return not top or (len(top) == 1 and top[0][1] == colour)


def _collect(fp, chi, eps, ops, terms: list[_Term], coefficients) -> Decomposition:
    """Sum the terms into the direct word, and the terms that are not
    primed per diagram into residual parts; the projected word is the
    direct one less the residual parts.  Each term's signed tensor word
    is added as a plain word (tensor_plain) to plain sums per colour
    sequence, and each sum is projected to coordinates once (_project):
    exact, since from_plain is linear.  A diagram is its sorted closed
    strings and its top strings, so terms are grouped by that key, and
    make_diagram runs once per group that is read: the diagrams are kept
    by key, so a group's residual part and its total share one.  Without
    coefficients only the groups with a residual part are built, and no
    total is summed.  With coefficients every group's total is divided
    by its rule vector, so a part that is no multiple of it raises
    here."""
    direct: dict = {}  # sequence -> plain sum
    resid_parts: dict = {}  # diagram key -> sequence -> plain sum
    totals: dict = {}  # diagram key -> sequence -> plain sum, with coefficients
    nb = fp.B.dim
    for t in terms:
        if t.top:
            seq, plain = fp.tensor_plain([(k, u[nb:]) for _, k, u in t.top])
            if not plain:
                continue
        else:
            seq, plain = (), dict(enumerate(t.bval))
        word = {seq: plain}
        _acc_vec(direct, word, t.coeff)
        if not t.primed:
            _acc_vec(resid_parts.setdefault(_diagram_key(t), {}), word, t.coeff)
        if coefficients:
            _acc_vec(totals.setdefault(_diagram_key(t), {}), word, t.coeff)
    # the projected word is the direct one less the residual parts
    primed = {seq: dict(comp) for seq, comp in direct.items()} if resid_parts else {}
    for part in resid_parts.values():
        _acc_vec(primed, part, -1)
    direct = _project(fp, direct)
    primed = _project(fp, primed) if resid_parts else direct
    built: dict = {}  # diagram key -> diagram

    def diagram(key) -> LRDiagram:
        if key not in built:
            done, top = key
            strings = [(s, False) for s in done] + [(s, True) for s in top]
            built[key] = make_diagram(chi, eps, strings, top)
        return built[key]

    def by_diagram(parts: dict) -> list[tuple[LRDiagram, FpVec]]:
        """The nonzero parts with their diagrams, in diagram-key order."""
        kept = ((key, _project(fp, part)) for key, part in parts.items())
        return sorted(
            ((diagram(key), part) for key, part in kept if part),
            key=lambda g: g[0].key(),
        )

    residual = by_diagram(resid_parts)
    if not coefficients:
        residual = [(d, None, part) for d, part in residual]
        return Decomposition(fp, direct, primed, residual)
    totals = by_diagram(totals)
    mf = FreeMomentContext(fp)
    read = {d.key(): d for d, _ in totals + residual}
    rule = {key: e_d_vector(d, ops, mf) for key, d in read.items()}
    contributions = []
    for d, total in totals:
        coeff = _ratio(fp, total, rule[d.key()])
        if coeff is not None and coeff != 0:
            contributions.append((d, coeff, rule[d.key()]))
    residual = [(d, _ratio(fp, part, rule[d.key()]), part) for d, part in residual]
    return Decomposition(fp, direct, primed, residual, contributions)


def _diagram_key(t: _Term):
    """The key of a term's diagram: its sorted closed strings and its top
    strings."""
    return tuple(sorted(t.done)), tuple([s[0] for s in t.top])


def _acc_vec(out: FpVec, vec: FpVec, sign: int = 1):
    """out += sign·vec, in place; zero entries are left for the caller to
    clean."""
    for seq, comp in vec.items():
        tgt = out.setdefault(seq, {})
        for i, c in comp.items():
            tgt[i] = tgt.get(i, ZERO) + sign * c


def _project(fp, sums: FpVec) -> FpVec:
    """Plain sums per colour sequence as a clean vector: each projected to
    its word space's coordinates, the base summand's, under (), already
    in them."""
    return _clean({s: fp.space(s).from_plain(p) if s else p for s, p in sums.items()})


def _ratio(fp, total: FpVec, rule: FpVec) -> Optional[Scalar]:
    """The scalar c with total = c·rule, both clean, or None for a
    vanishing rule and total; raises when there is none."""
    if not rule:
        if total:
            raise ValueError("nonzero total against a vanishing rule vector")
        return None
    seq, comp = min(rule.items())
    idx, v = min(comp.items())
    c = div(total.get(seq, {}).get(idx, ZERO), v)
    if total != fp.scale(c, rule):
        raise ValueError("diagram contribution is not proportional to its rule value")
    return c
