"""Bimodules with a designated base-algebra summand and their free products.

Module coordinates always start with the base-algebra block: a module of
dimension d over B stores B's coefficients in coordinates 0..dim(B)-1
and the complement in the rest, so the projection onto B is coordinate
truncation.  The truncated free product resolves tensor words over B by
explicit quotients of plain tensor spaces (cached per colour sequence)
and exposes the left/right regular representations, the per-colour
boolean projections, diagram-indexed vectors, and the decomposition of
operator words into diagram contributions.

Left representations act through the first tensor leg, right ones
through the last; a new leg deeper than the configured depth raises
DepthExceeded rather than truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .algebra import AlgebraElement, BBProbSpace, CheckReport, StructuredAlgebra
from .bimult import MomentContext, ReduceBlock, reduce_blocks
from .diagrams import LRDiagram, make_diagram
from .linalg import (
    Basis,
    Mat,
    ONE,
    Quotient,
    RowSpace,
    Vec,
    ZERO,
    block_matrix,
    identity,
    mat_combination,
    mat_mul,
    mat_vec,
    nullspace,
    unit_vec,
    zeros,
)
from .partitions import ChiMap, EpsilonMap

FpVec = dict[tuple[int, ...], dict[int, Fraction]]


class DepthExceeded(RuntimeError):
    """A word would exceed the truncation depth; nothing is truncated."""


@dataclass
class BimoduleWithProjection:
    """B-B-bimodule whose first dim(B) coordinates are the B summand."""

    B: StructuredAlgebra
    dim: int
    labels: tuple[str, ...]
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
        return self.B.element(vec[: self.B.dim])

    def osc_part(self, vec: Vec) -> Vec:
        return vec[self.B.dim :]

    def left_matrix(self, b: AlgebraElement) -> Mat:
        return mat_combination(b.coeffs, self.left_action)

    def right_matrix(self, b: AlgebraElement) -> Mat:
        return mat_combination(b.coeffs, self.right_action)

    def osc_left(self, i: int) -> Mat:
        d = self.B.dim
        return [row[d:] for row in self.left_action[i][d:]]

    def osc_right(self, i: int) -> Mat:
        d = self.B.dim
        return [row[d:] for row in self.right_action[i][d:]]

    def check(self) -> CheckReport:
        rep = CheckReport()
        B, d = self.B, self.dim
        one = B.one()
        rep.record(
            "left-action-unital",
            self.left_matrix(one) == identity(d),
        )
        rep.record(
            "right-action-unital",
            self.right_matrix(one) == identity(d),
        )
        ok_l = ok_r = ok_c = True
        for i in range(B.dim):
            for j in range(B.dim):
                bi, bj = B.basis_element(i), B.basis_element(j)
                if self.left_matrix(bi * bj) != mat_mul(
                    self.left_action[i], self.left_action[j]
                ):
                    ok_l = False
                if self.right_matrix(bi * bj) != mat_mul(
                    self.right_action[j], self.right_action[i]
                ):
                    ok_r = False
                if mat_mul(self.left_action[i], self.right_action[j]) != mat_mul(
                    self.right_action[j], self.left_action[i]
                ):
                    ok_c = False
        rep.record("left-action-multiplicative", ok_l)
        rep.record("right-action-antimultiplicative", ok_r)
        rep.record("actions-commute", ok_c)
        ok_block = True
        nb = B.dim
        for m in list(self.left_action) + list(self.right_action):
            for r in range(nb):
                if any(m[r][c] for c in range(nb, d)):
                    ok_block = False
            for r in range(nb, d):
                if any(m[r][c] for c in range(nb)):
                    ok_block = False
        rep.record("summands-invariant", ok_block)
        ok_b = True
        for i in range(B.dim):
            bi = B.basis_element(i)
            lm, rm = self.left_matrix(bi), self.right_matrix(bi)
            for j in range(B.dim):
                bj = B.basis_element(j)
                lhs = self.p([lm[r][j] for r in range(d)])
                if (lhs - bi * bj).coeffs != tuple(zeros(B.dim)):
                    ok_b = False
                lhs = self.p([rm[r][j] for r in range(d)])
                if (lhs - bj * bi).coeffs != tuple(zeros(B.dim)):
                    ok_b = False
        rep.record("base-block-multiplies", ok_b)
        return rep


@dataclass(frozen=True)
class ModuleOperator:
    mod: BimoduleWithProjection
    matrix: tuple[tuple[Fraction, ...], ...]
    side: Optional[str] = None  # 'l' | 'r' | None

    def apply(self, vec: Vec) -> Vec:
        return mat_vec(self.matrix, vec)

    def commutes_with_side(self, side: str) -> bool:
        """'l' operators commute with right actions, 'r' with left ones."""
        B = self.mod.B
        m = [list(r) for r in self.matrix]
        for i in range(B.dim):
            other = (
                self.mod.right_action[i] if side == "l" else self.mod.left_action[i]
            )
            if mat_mul(m, other) != mat_mul(other, m):
                return False
        return True


def module_operator(mod, matrix, side=None) -> ModuleOperator:
    op = ModuleOperator(mod, tuple(tuple(r) for r in matrix), side)
    if side is not None and not op.commutes_with_side(side):
        raise ValueError(f"operator does not satisfy the side-{side} commutant")
    return op


class Theta:
    """Representation of an algebra on its associated module."""

    def __init__(self, space: BBProbSpace, mod: BimoduleWithProjection, basis_mats):
        self.space = space
        self.mod = mod
        self._basis = basis_mats

    def matrix(self, elem: AlgebraElement) -> Mat:
        return mat_combination(elem.coeffs, self._basis)

    def operator(self, elem: AlgebraElement, side=None) -> ModuleOperator:
        return module_operator(self.mod, self.matrix(elem), side)

    def expect(self, elem: AlgebraElement) -> AlgebraElement:
        vec = mat_vec(self.matrix(elem), self.mod.unit_vector())
        return self.mod.p(vec)


def build_bimodule_from_space(space: BBProbSpace):
    """Quotient model of the space acting on itself.

    The module is B plus the kernel of the expectation modulo the span
    of T L_b - T R_b; the representation sends T to the operator acting
    by multiplication followed by the quotient map.
    """
    A, B = space.A, space.B
    ker_rows = nullspace([list(r) for r in space.expectation], A.dim)
    ker = Basis(A.dim)
    for row in ker_rows:
        ker.add(row)
    rel = RowSpace(ker.rank)
    for t in range(A.dim):
        et = A.basis_element(t)
        for i in range(B.dim):
            bi = B.basis_element(i)
            d = et * space.embed_left(bi) - et * space.embed_right(bi)
            coords = ker.express(list(d.coeffs))
            if coords is None:
                raise ValueError("difference element escapes the kernel")
            rel.add(coords)
    quotient = Quotient(rel)
    osc = quotient.dim
    dim = B.dim + osc

    def q_of(elem: AlgebraElement) -> Vec:
        coords = ker.express(list(elem.coeffs))
        if coords is None:
            raise ValueError("element not in the expectation kernel")
        return quotient.project(coords)

    def column(T: AlgebraElement, x: AlgebraElement) -> Vec:
        tx = T * x
        e = space.expect(tx)
        rest = tx - space.embed_left(e)
        return list(e.coeffs) + q_of(rest)

    sections = []
    for j in range(osc):
        amb = zeros(A.dim)
        kcoords = quotient.section(unit_vec(osc, j))
        for ci, c in enumerate(kcoords):
            if c:
                for ai, a in enumerate(ker.vectors[ci]):
                    amb[ai] += c * a
        sections.append(A.element(amb))

    basis_mats = []
    for t in range(A.dim):
        et = A.basis_element(t)
        cols = [column(et, space.embed_left(B.basis_element(i))) for i in range(B.dim)]
        cols += [column(et, sec) for sec in sections]
        basis_mats.append([[cols[c][r] for c in range(dim)] for r in range(dim)])

    labels = tuple(f"b{i}" for i in range(B.dim)) + tuple(
        f"q{j}" for j in range(osc)
    )

    def action(embed) -> tuple[Mat, ...]:
        return tuple(
            tuple(tuple(row) for row in mat_combination(embed(b).coeffs, basis_mats))
            for b in map(B.basis_element, range(B.dim))
        )

    mod = BimoduleWithProjection(
        B, dim, labels, action(space.embed_left), action(space.embed_right)
    )
    theta = Theta(space, mod, [tuple(tuple(r) for r in m) for m in basis_mats])
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
    labels = tuple(f"1:{s}" for s in x.labels) + tuple(f"2:{s}" for s in x.labels)
    return BimoduleWithProjection(x.B, 2 * d, labels, left, right)


@dataclass
class WordSpace:
    seq: tuple[int, ...]
    osc_dims: tuple[int, ...]
    plain_dim: int
    quotient: Optional[Quotient]  # None = relations vanish

    @property
    def dim(self) -> int:
        return self.quotient.dim if self.quotient else self.plain_dim

    def strides(self) -> list[int]:
        out = []
        acc = 1
        for dcur in reversed(self.osc_dims):
            out.append(acc)
            acc *= dcur
        return list(reversed(out))

    def to_plain(self, coords: dict[int, Fraction]) -> dict[int, Fraction]:
        if self.quotient is None:
            return coords
        out: dict[int, Fraction] = {}
        for qi, c in coords.items():
            for pi, v in enumerate(self.quotient.section(unit_vec(self.dim, qi))):
                if v:
                    out[pi] = out.get(pi, ZERO) + c * v
        return {k: v for k, v in out.items() if v}

    def from_plain(self, plain: dict[int, Fraction]) -> dict[int, Fraction]:
        if self.quotient is None:
            return {k: v for k, v in plain.items() if v}
        dense = zeros(self.plain_dim)
        for pi, c in plain.items():
            dense[pi] = c
        proj = self.quotient.project(dense)
        return {i: c for i, c in enumerate(proj) if c}


class TruncatedFreeProduct:
    """Depth-bounded free product of modules sharing a base algebra."""

    def __init__(self, components: dict[int, BimoduleWithProjection], depth: int):
        if not components:
            raise ValueError("free product needs at least one component")
        bs = {id(c.B) for c in components.values()}
        if len(bs) > 1:
            raise ValueError("components must share the base algebra")
        self.components = dict(components)
        self.B = next(iter(components.values())).B
        self.depth = depth
        self.wordspaces: dict[tuple[int, ...], WordSpace] = {}
        for seq in self._alternating_sequences():
            self.wordspaces[seq] = self._build_wordspace(seq)

    def _alternating_sequences(self):
        colours = sorted(self.components)
        frontier: list[tuple[int, ...]] = [()]
        for _ in range(self.depth):
            nxt = []
            for seq in frontier:
                for k in colours:
                    if seq and seq[-1] == k:
                        continue
                    nxt.append(seq + (k,))
            frontier = nxt
            yield from frontier

    def _build_wordspace(self, seq: tuple[int, ...]) -> WordSpace:
        osc_dims = tuple(self.components[k].osc_dim for k in seq)
        plain = 1
        for dcur in osc_dims:
            plain *= dcur
        if self.B.dim == 1 or len(seq) < 2:
            return WordSpace(seq, osc_dims, plain, None)
        rel = RowSpace(plain)
        strides = WordSpace(seq, osc_dims, plain, None).strides()
        for leg in range(len(seq) - 1):
            right_mats = [self.components[seq[leg]].osc_right(i) for i in range(self.B.dim)]
            left_mats = [
                self.components[seq[leg + 1]].osc_left(i) for i in range(self.B.dim)
            ]
            d1, d2 = osc_dims[leg], osc_dims[leg + 1]
            outer = plain // (d1 * d2)
            for bi in range(self.B.dim):
                for a in range(d1):
                    for c in range(d2):
                        base_rel = {}
                        for a2 in range(d1):
                            v = right_mats[bi][a2][a]
                            if v:
                                base_rel[(a2, c)] = base_rel.get((a2, c), ZERO) + v
                        for c2 in range(d2):
                            v = left_mats[bi][c2][c]
                            if v:
                                base_rel[(a, c2)] = base_rel.get((a, c2), ZERO) - v
                        if not base_rel:
                            continue
                        for other in range(outer):
                            vec = zeros(plain)
                            for (a2, c2), v in base_rel.items():
                                idx = _weave_index(
                                    other, a2, c2, leg, osc_dims, strides
                                )
                                vec[idx] += v
                            rel.add(vec)
        if rel.rank == 0:
            return WordSpace(seq, osc_dims, plain, None)
        return WordSpace(seq, osc_dims, plain, Quotient(rel))

    # --- vectors ---------------------------------------------------------

    def zero(self) -> FpVec:
        return {}

    def unit(self) -> FpVec:
        return self.embed_b(self.B.one())

    def embed_b(self, b: AlgebraElement) -> FpVec:
        comp = {i: c for i, c in enumerate(b.coeffs) if c}
        return {(): comp} if comp else {}

    def p(self, vec: FpVec) -> AlgebraElement:
        comp = vec.get((), {})
        return self.B.element(
            [comp.get(i, ZERO) for i in range(self.B.dim)]
        )

    def add(self, *vecs: FpVec) -> FpVec:
        out: FpVec = {}
        for v in vecs:
            for seq, comp in v.items():
                tgt = out.setdefault(seq, {})
                for i, c in comp.items():
                    tgt[i] = tgt.get(i, ZERO) + c
        return _clean(out)

    def scale(self, c, vec: FpVec) -> FpVec:
        c = Fraction(c)
        if not c:
            return {}
        return {seq: {i: c * v for i, v in comp.items()} for seq, comp in vec.items()}

    def sub(self, u: FpVec, v: FpVec) -> FpVec:
        return self.add(u, self.scale(-1, v))

    def is_zero(self, vec: FpVec) -> bool:
        return not _clean(vec)

    def equal(self, u: FpVec, v: FpVec) -> bool:
        return self.is_zero(self.sub(u, v))

    def word_label(self, seq: tuple[int, ...], idx: int) -> str:
        if not seq:
            return "B"
        ws = self.wordspaces[seq]
        parts = []
        rem = idx
        for stride, k in zip(ws.strides(), seq):
            leg, rem = divmod(rem, stride)
            parts.append(f"{k}:{leg}")
        return "(" + ")(".join(parts) + ")"

    def vector_to_json(self, vec: FpVec) -> dict:
        """Serialize as {word-label: rational-string} for debugging."""
        out = {}
        for seq in sorted(vec):
            for idx in sorted(vec[seq]):
                c = vec[seq][idx]
                label = self.word_label(seq, idx) if seq else f"B[{idx}]"
                out[label] = str(c)
        return out

    def describe(self) -> dict:
        """Word-basis summary: component dims per colour sequence."""
        return {
            "base_dim": self.B.dim,
            "depth": self.depth,
            "words": {
                "".join(str(k) for k in seq): ws.dim
                for seq, ws in sorted(self.wordspaces.items())
            },
        }

    # --- operator actions -------------------------------------------------

    def act_left_b(self, b: AlgebraElement, vec: FpVec) -> FpVec:
        out: FpVec = {}
        for seq, comp in vec.items():
            if not seq:
                prod_elem = b * self.B.element(
                    [comp.get(i, ZERO) for i in range(self.B.dim)]
                )
                _acc_b(out, prod_elem)
                continue
            ws = self.wordspaces[seq]
            plain = ws.to_plain(comp)
            moved = self._plain_edge_mult(seq, b, plain, first=True, left=True)
            _acc(out, seq, ws.from_plain(moved))
        return _clean(out)

    def act_right_b(self, b: AlgebraElement, vec: FpVec) -> FpVec:
        out: FpVec = {}
        for seq, comp in vec.items():
            if not seq:
                prod_elem = self.B.element(
                    [comp.get(i, ZERO) for i in range(self.B.dim)]
                ) * b
                _acc_b(out, prod_elem)
                continue
            ws = self.wordspaces[seq]
            plain = ws.to_plain(comp)
            moved = self._plain_edge_mult(seq, b, plain, first=False, left=False)
            _acc(out, seq, ws.from_plain(moved))
        return _clean(out)

    def _plain_edge_mult(self, seq, b, plain, first: bool, left: bool):
        """Multiply a plain word by b through its first or last leg."""
        k = seq[0] if first else seq[-1]
        comp = self.components[k]
        osc = comp.osc_left if left else comp.osc_right
        mat = mat_combination(b.coeffs, [osc(i) for i in range(self.B.dim)])
        ws = self.wordspaces[seq]
        d_edge = ws.osc_dims[0] if first else ws.osc_dims[-1]
        stride = ws.strides()[0] if first else 1
        out: dict[int, Fraction] = {}
        for idx, c in plain.items():
            if first:
                leg, rest = divmod(idx, stride)
            else:
                rest, leg = divmod(idx, d_edge)
            for leg2 in range(d_edge):
                v = mat[leg2][leg]
                if v:
                    nidx = leg2 * stride + rest if first else rest * d_edge + leg2
                    out[nidx] = out.get(nidx, ZERO) + c * v
        return out

    def lambda_apply(self, op: ModuleOperator, k: int, vec: FpVec) -> FpVec:
        return self._rep_apply(op, k, vec, from_left=True)

    def rho_apply(self, op: ModuleOperator, k: int, vec: FpVec) -> FpVec:
        return self._rep_apply(op, k, vec, from_left=False)

    def _rep_apply(self, op: ModuleOperator, k: int, vec: FpVec, from_left: bool):
        comp_k = self.components[k]
        nb = self.B.dim
        cols = [
            [op.matrix[r][c] for r in range(comp_k.dim)] for c in range(comp_k.dim)
        ]
        out: FpVec = {}
        for seq, comp in vec.items():
            if not seq:
                b = self.B.element([comp.get(i, ZERO) for i in range(nb)])
                x = op.apply(comp_k.embed_b(b))
                _acc_b(out, comp_k.p(x))
                osc = comp_k.osc_part(x)
                if any(osc):
                    ws = self.wordspaces[(k,)]
                    _acc(out, (k,), ws.from_plain(
                        {i: c for i, c in enumerate(osc) if c}
                    ))
                continue
            edge = seq[0] if from_left else seq[-1]
            ws = self.wordspaces[seq]
            plain = ws.to_plain(comp)
            if edge == k:
                self._rep_apply_edge(out, seq, plain, cols, comp_k, from_left)
            else:
                if len(seq) + 1 > self.depth:
                    raise DepthExceeded(
                        f"word {seq} cannot grow beyond depth {self.depth}"
                    )
                x = op.apply(comp_k.unit_vector())
                bpart = comp_k.p(x)
                if not bpart.is_zero():
                    moved = self._plain_edge_mult(
                        seq, bpart, plain, first=from_left, left=from_left
                    )
                    _acc(out, seq, ws.from_plain(moved))
                osc = comp_k.osc_part(x)
                if any(osc):
                    nseq = (k,) + seq if from_left else seq + (k,)
                    nws = self.wordspaces[nseq]
                    grown: dict[int, Fraction] = {}
                    for idx, c in plain.items():
                        for i, v in enumerate(osc):
                            if v:
                                nidx = (
                                    i * ws.plain_dim + idx
                                    if from_left
                                    else idx * len(osc) + i
                                )
                                grown[nidx] = grown.get(nidx, ZERO) + c * v
                    _acc(out, nseq, nws.from_plain(grown))
        return _clean(out)

    def _rep_apply_edge(self, out, seq, plain, cols, comp_k, from_left):
        """Operator consuming the edge leg of matching colour."""
        nb = self.B.dim
        ws = self.wordspaces[seq]
        d_edge = ws.osc_dims[0] if from_left else ws.osc_dims[-1]
        stride = ws.strides()[0] if from_left else 1
        tail_seq = seq[1:] if from_left else seq[:-1]
        stay: dict[int, Fraction] = {}
        collapse: dict[int, dict[int, Fraction]] = {}
        for idx, c in plain.items():
            if from_left:
                leg, rest = divmod(idx, stride)
            else:
                rest, leg = divmod(idx, d_edge)
            col = cols[nb + leg]
            for r in range(nb):
                if col[r]:
                    collapse.setdefault(rest, {})[r] = (
                        collapse.get(rest, {}).get(r, ZERO) + c * col[r]
                    )
            for r in range(nb, comp_k.dim):
                if col[r]:
                    leg2 = r - nb
                    nidx = leg2 * stride + rest if from_left else rest * d_edge + leg2
                    stay[nidx] = stay.get(nidx, ZERO) + c * col[r]
        if stay:
            _acc(out, seq, ws.from_plain(stay))
        if collapse:
            if not tail_seq:
                for rest, bcomp in collapse.items():
                    _acc_b(out, self.B.element(
                        [bcomp.get(i, ZERO) for i in range(nb)]
                    ))
            else:
                tws = self.wordspaces[tail_seq]
                for i in range(nb):
                    bvecs = {
                        rest: bc[i] for rest, bc in collapse.items() if bc.get(i)
                    }
                    if not bvecs:
                        continue
                    moved = self._plain_edge_mult(
                        tail_seq,
                        self.B.basis_element(i),
                        bvecs,
                        first=from_left,
                        left=from_left,
                    )
                    _acc(out, tail_seq, tws.from_plain(moved))

    def bool_proj(self, k: int, vec: FpVec) -> FpVec:
        return _clean(
            {seq: dict(comp) for seq, comp in vec.items() if seq in ((), (k,))}
        )

    def tensor_embed(self, factors: list[tuple[int, Vec]]) -> FpVec:
        """Word vector from per-leg complement coordinates."""
        if not factors:
            return self.unit()
        seq = tuple(k for k, _ in factors)
        if len(seq) > self.depth:
            raise DepthExceeded(f"word of length {len(seq)} exceeds the depth")
        ws = self.wordspaces[seq]
        plain: dict[int, Fraction] = {0: ONE}
        for (k, osc), stride in zip(factors, ws.strides()):
            nxt: dict[int, Fraction] = {}
            for idx, c in plain.items():
                for i, v in enumerate(osc):
                    if v:
                        nxt[idx + i * stride] = c * v
            plain = nxt
            if not plain:
                return {}
        coords = ws.from_plain(plain)
        return _clean({seq: coords})


def _acc(out: FpVec, seq, comp: dict[int, Fraction]):
    tgt = out.setdefault(seq, {})
    for i, c in comp.items():
        tgt[i] = tgt.get(i, ZERO) + c


def _acc_b(out: FpVec, b: AlgebraElement):
    tgt = out.setdefault((), {})
    for i, c in enumerate(b.coeffs):
        if c:
            tgt[i] = tgt.get(i, ZERO) + c


def _clean(vec: FpVec) -> FpVec:
    out = {}
    for seq, comp in vec.items():
        comp = {i: c for i, c in comp.items() if c}
        if comp:
            out[seq] = comp
    return out


def _weave_index(other, a2, c2, leg, osc_dims, strides):
    """Plain index with legs (leg, leg+1) set and the rest unpacked."""
    idx = a2 * strides[leg] + c2 * strides[leg + 1]
    rem = other
    for pos in range(len(osc_dims) - 1, -1, -1):
        if pos in (leg, leg + 1):
            continue
        rem, digit = divmod(rem, osc_dims[pos])
        idx += digit * strides[pos]
    return idx


def reduced_free_product(
    components: dict[int, BimoduleWithProjection], depth: int
) -> TruncatedFreeProduct:
    return TruncatedFreeProduct(components, depth)


# --- operator chains ------------------------------------------------------

Atom = tuple  # ('lam'|'rho', k, ModuleOperator) | ('lb'|'rb', b) | ('proj', k, None)


def apply_atom(fp: TruncatedFreeProduct, atom: Atom, vec: FpVec) -> FpVec:
    kind = atom[0]
    if kind == "lam":
        return fp.lambda_apply(atom[2], atom[1], vec)
    if kind == "rho":
        return fp.rho_apply(atom[2], atom[1], vec)
    if kind == "lb":
        return fp.act_left_b(atom[1], vec)
    if kind == "rb":
        return fp.act_right_b(atom[1], vec)
    if kind == "proj":
        return fp.bool_proj(atom[1], vec)
    raise ValueError(f"unknown atom {atom!r}")


def apply_chain(fp: TruncatedFreeProduct, chain: Iterable[Atom], vec: FpVec) -> FpVec:
    for atom in reversed(list(chain)):
        vec = apply_atom(fp, atom, vec)
    return vec


class FreeMomentContext(MomentContext):
    """Moments of operator chains acting on the free product.

    Word expectations are cached; keys use operator identity, so reuse
    the same ModuleOperator objects across calls.
    """

    def __init__(self, fp: TruncatedFreeProduct):
        self.fp = fp
        self._cache: dict = {}

    @staticmethod
    def _atom_key(atom):
        kind = atom[0]
        if kind in ("lam", "rho"):
            return (kind, atom[1], id(atom[2]))
        if kind in ("lb", "rb"):
            return (kind, atom[1].coeffs)
        return (kind, atom[1])

    def expect(self, elems):
        chain = tuple(atom for elem in elems for atom in elem)
        key = tuple(self._atom_key(a) for a in chain)
        hit = self._cache.get(key)
        if hit is None:
            value = self.fp.p(apply_chain(self.fp, chain, self.fp.unit()))
            # the chain is pinned so no later object can reuse the ids
            hit = (value, chain)
            self._cache[key] = hit
        return hit[0]

    def unit_b(self):
        return self.fp.B.one()

    def prepend_left(self, value, elem):
        return (("lb", value),) + tuple(elem)

    def prepend_right(self, value, elem):
        return (("rb", value),) + tuple(elem)

    def append_left(self, elem, value):
        return tuple(elem) + (("lb", value),)


class ModuleWordContext(MomentContext):
    """Moments of single-colour operator words on one component module."""

    def __init__(self, components: dict[int, BimoduleWithProjection]):
        self.components = components

    def expect(self, elems):
        k = elems[0][0]
        comp = self.components[k]
        vec = comp.unit_vector()
        for _, mats in reversed(elems):
            for m in reversed(mats):
                vec = mat_vec(m, vec)
        return comp.p(vec)

    def unit_b(self):
        k = next(iter(self.components))
        return self.components[k].B.one()

    def prepend_left(self, value, elem):
        k, mats = elem
        return (k, (self.components[k].left_matrix(value),) + tuple(mats))

    def prepend_right(self, value, elem):
        k, mats = elem
        return (k, (self.components[k].right_matrix(value),) + tuple(mats))

    def append_left(self, elem, value):
        k, mats = elem
        return (k, tuple(mats) + (self.components[k].left_matrix(value),))


def e_d_vector(
    diagram: LRDiagram, ops: list[ModuleOperator], fp: TruncatedFreeProduct
) -> FpVec:
    """Vector contribution of one diagram to an operator word.

    Closed strings collapse through the moment recursion; each top
    string contributes the complement part of its word applied to the
    component unit, tensored in spine order.
    """
    n = diagram.n
    if len(ops) != n:
        raise ValueError("operator list must match the diagram size")
    ctx = ModuleWordContext(fp.components)
    elems = {
        i: (diagram.eps.colour(i), (ops[i - 1].matrix,)) for i in range(1, n + 1)
    }
    gap = {nodes: r + 1 for r, nodes in enumerate(diagram.spine_order)}
    blocks = [
        ReduceBlock(nodes, top=nodes in gap, gap_rank=gap.get(nodes))
        for nodes, _ in diagram.strings
    ]
    side = {i: diagram.chi.side(i) for i in range(1, n + 1)}
    result = reduce_blocks(blocks, elems, side, ctx)
    if result[0] == "scalar":
        return fp.embed_b(result[1])
    _, tops, final = result
    factors = []
    for blk in tops:
        k = final[blk.positions[0]][0]
        comp = fp.components[k]
        vec = comp.unit_vector()
        for pos in reversed(blk.positions):
            _, mats = final[pos]
            for m in reversed(mats):
                vec = mat_vec(m, vec)
        factors.append((k, comp.osc_part(vec)))
    return fp.tensor_embed(factors)


# --- word decomposition ---------------------------------------------------


@dataclass
class Term:
    coeff: int
    completed: tuple[tuple[int, ...], ...]
    top: tuple[tuple[int, ...], ...]
    factors: tuple[tuple[int, Vec], ...]  # aligned with top: (colour, X_k vector)
    bval: Optional[AlgebraElement]
    primed: bool = True


@dataclass
class Decomposition:
    """Word vector split into diagram contributions.

    contributions lists (diagram, coefficient, rule vector); primed is
    the projected word (equal to direct when nothing was projected) and
    residual the killed contributions, mirroring the split
    direct = primed + sum of residual vectors.
    """

    fp: TruncatedFreeProduct
    direct: FpVec
    contributions: list[tuple[LRDiagram, Fraction, FpVec]]
    primed: FpVec = field(default_factory=dict)
    residual: list[tuple[LRDiagram, Fraction, FpVec]] = field(default_factory=list)

    def reconstruction(self) -> FpVec:
        parts = [
            v if c is None else self.fp.scale(c, v)
            for _, c, v in self.contributions
        ]
        return self.fp.add(*parts) if parts else {}


def lr_decompose(
    ops: list[tuple[str, int, ModuleOperator]],
    fp: TruncatedFreeProduct,
    projected_positions: Iterable[int] = (),
    coefficients: bool = True,
) -> Decomposition:
    """Expand an operator word applied to the unit into diagram terms.

    ops lists (side, colour, operator) per position.  The expansion
    replays the construction: each application branches on joining or
    opening a string, keeping it at the top or closing it, and on the
    split of a consumed string into its pure word and its collapsed
    value (the latter with a sign, accounting for cut diagrams).
    """
    n = len(ops)
    projected = set(projected_positions)
    chi = ChiMap(tuple(s for s, _, _ in ops))
    eps = EpsilonMap(tuple(k for _, k, _ in ops))
    B = fp.B
    terms = [Term(1, (), (), (), B.one())]
    for i in range(n, 0, -1):
        side, colour, op = ops[i - 1]
        comp = fp.components[colour]
        new_terms: list[Term] = []
        for t in terms:
            end = 0 if side == "l" else len(t.factors) - 1
            if t.factors and t.factors[end][0] == colour:
                tnodes = t.top[end]
                u0 = t.factors[end][1]
                raw_merge = mat_vec(op.matrix, u0)
                raw_cut = mat_vec(op.matrix, comp.embed_b(comp.p(u0)))
                for raw, sign, is_cut in ((raw_merge, 1, False), (raw_cut, -1, True)):
                    nodes = (i,) if is_cut else (i,) + tnodes
                    done = t.completed + ((tnodes,) if is_cut else ())
                    new_terms.append(
                        _branch_keep(t, end, raw, sign, nodes, done, colour)
                    )
                    new_terms.append(
                        _branch_close(
                            fp, t, end, raw, sign, nodes, done, colour, side
                        )
                    )
            else:
                if t.factors:
                    x = mat_vec(op.matrix, comp.unit_vector())
                else:
                    x = mat_vec(op.matrix, comp.embed_b(t.bval))
                at = 0 if side == "l" else len(t.factors)
                if len(t.top) + 1 > fp.depth:
                    raise DepthExceeded("decomposition word exceeds the depth")
                keep = Term(
                    t.coeff,
                    t.completed,
                    t.top[:at] + ((i,),) + t.top[at:],
                    t.factors[:at] + ((colour, x),) + t.factors[at:],
                    None,
                    t.primed,
                )
                new_terms.append(keep)
                b = comp.p(x)
                if t.factors:
                    fold_at = 0 if side == "l" else len(t.factors) - 1
                    folded = _fold(fp, t.factors, fold_at, b, from_left=(side == "l"))
                    new_terms.append(
                        Term(
                            t.coeff,
                            t.completed + ((i,),),
                            t.top,
                            folded,
                            None,
                            t.primed,
                        )
                    )
                else:
                    new_terms.append(
                        Term(
                            t.coeff,
                            t.completed + ((i,),),
                            t.top,
                            (),
                            b,
                            t.primed,
                        )
                    )
        if i in projected:
            k = eps.colour(i)
            for t in new_terms:
                if not t.primed:
                    continue
                survives = len(t.factors) == 0 or (
                    len(t.factors) == 1 and t.factors[0][0] == k
                )
                if not survives:
                    t.primed = False
        terms = [t for t in new_terms if t.bval is None or not t.bval.is_zero()]
    return _collect(fp, chi, eps, ops, terms, bool(projected), coefficients)


def _branch_keep(t: Term, end, raw, sign, nodes, done, colour) -> Term:
    factors = t.factors[:end] + ((colour, raw),) + t.factors[end + 1 :]
    top = t.top[:end] + (nodes,) + t.top[end + 1 :]
    return Term(t.coeff * sign, done, top, factors, None, t.primed)


def _branch_close(fp, t: Term, end, raw, sign, nodes, done, colour, side) -> Term:
    comp = fp.components[colour]
    b = comp.p(raw)
    rest_factors = t.factors[:end] + t.factors[end + 1 :]
    rest_top = t.top[:end] + t.top[end + 1 :]
    done = done + (nodes,)
    if rest_factors:
        fold_at = 0 if side == "l" else len(rest_factors) - 1
        folded = _fold(fp, rest_factors, fold_at, b, from_left=(side == "l"))
        return Term(t.coeff * sign, done, rest_top, folded, None, t.primed)
    return Term(t.coeff * sign, done, rest_top, (), b, t.primed)


def _fold(fp, factors, at, b, from_left: bool):
    k, u = factors[at]
    comp = fp.components[k]
    mat = comp.left_matrix(b) if from_left else comp.right_matrix(b)
    return factors[:at] + ((k, mat_vec(mat, u)),) + factors[at + 1 :]


def _assemble(fp: TruncatedFreeProduct, t: Term) -> FpVec:
    if not t.factors:
        return fp.scale(t.coeff, fp.embed_b(t.bval))
    factors = [
        (k, fp.components[k].osc_part(u)) for k, u in t.factors
    ]
    return fp.scale(t.coeff, fp.tensor_embed(factors))


def _collect(
    fp, chi, eps, ops, terms: list[Term], projected: bool, coefficients: bool
) -> Decomposition:
    mod_ops = [op for _, _, op in ops]
    direct = fp.add(*(_assemble(fp, t) for t in terms)) if terms else {}
    groups: dict = {}
    for t in terms:
        d = make_diagram(
            chi, eps, [(s, False) for s in t.completed] + [(s, True) for s in t.top],
            t.top,
        )
        entry = groups.setdefault(d.key(), [d, {}, {}])
        bucket = 1 if t.primed else 2
        entry[bucket] = fp.add(entry[bucket] or {}, _assemble(fp, t))
    contributions = []
    residual = []
    primed_vec: FpVec = {}
    for key in sorted(groups):
        d, primed_part, residual_part = groups[key]
        total = fp.add(primed_part, residual_part)
        if coefficients:
            rule = e_d_vector(d, mod_ops, fp)
            coeff = _ratio(fp, total, rule)
            if coeff is not None and coeff != 0:
                contributions.append((d, coeff, rule))
        elif not fp.is_zero(total):
            contributions.append((d, None, total))
        primed_vec = fp.add(primed_vec, primed_part)
        if residual_part and not fp.is_zero(residual_part):
            rcoeff = _ratio(fp, residual_part, e_d_vector(d, mod_ops, fp)) if (
                coefficients
            ) else None
            residual.append((d, rcoeff, residual_part))
    return Decomposition(
        fp,
        direct,
        contributions,
        primed=primed_vec,
        residual=residual,
    )


def _ratio(fp, total: FpVec, rule: FpVec) -> Optional[Fraction]:
    total = _clean(total)
    rule = _clean(rule)
    if not rule:
        if total:
            raise ValueError("nonzero total against a vanishing rule vector")
        return None
    seq, comp = next(iter(sorted(rule.items())))
    idx, v = next(iter(sorted(comp.items())))
    c = total.get(seq, {}).get(idx, ZERO) / v
    if not fp.is_zero(fp.sub(total, fp.scale(c, rule))):
        raise ValueError("diagram contribution is not proportional to its rule value")
    return c
