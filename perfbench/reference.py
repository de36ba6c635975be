"""Independent exact routes the benchmark checks engine results against.

Nothing here calls into the engine's lattice, reduction or diagram code:
lattices are enumerated from the definition, partition moments come from
block products of plain expectations, word-space dimensions from an
idempotent path count, diagram family sizes and checker claim counts
from closed-form counts.  Word vectors are rebuilt by applying operators
one at a time (the free product's own action, not its diagram
expansion).  Results are compared exactly.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct


def digest(obj) -> str:
    """Short stable hash of a JSON-able exact result."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def frac_str(c: Fraction) -> str:
    return f"{c.numerator}/{c.denominator}"


# --- lattices ---------------------------------------------------------------


def _canonical(labels) -> tuple[int, ...]:
    order: dict[int, int] = {}
    return tuple(order.setdefault(b, len(order)) for b in labels)


@lru_cache(maxsize=None)
def noncrossing(n: int) -> tuple[tuple[int, ...], ...]:
    """NC(n) as restricted-growth strings, by filtering all set partitions."""
    out = []

    def rec(prefix: list[int], top: int):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for b in range(top + 2):
            rec(prefix + [b], max(top, b))

    rec([], -1)

    def crossing(rgs) -> bool:
        for a in range(n):
            for b in range(a + 1, n):
                if rgs[b] == rgs[a]:
                    continue
                for c in range(b + 1, n):
                    if rgs[c] != rgs[a]:
                        continue
                    for d in range(c + 1, n):
                        if rgs[d] == rgs[b]:
                            return True
        return False

    return tuple(r for r in out if not crossing(r))


def s_chi_rank(sides: tuple[str, ...]) -> list[int]:
    """Slot of each position under s_chi: lefts in order, then rights reversed."""
    n = len(sides)
    order = [i for i in range(n) if sides[i] == "l"]
    order += [i for i in range(n) if sides[i] == "r"][::-1]
    rank = [0] * n
    for slot, i in enumerate(order):
        rank[i] = slot
    return rank


@lru_cache(maxsize=None)
def bnc(sides: tuple[str, ...]) -> frozenset:
    """Bi-non-crossing partitions of a two-letter colouring (rgs set)."""
    rank = s_chi_rank(sides)
    return frozenset(
        _canonical(tuple(rgs[rank[i]] for i in range(len(sides))))
        for rgs in noncrossing(len(sides))
    )


def refines(fine, coarse) -> bool:
    image: dict[int, int] = {}
    for a, b in zip(fine, coarse):
        if image.setdefault(a, b) != b:
            return False
    return True


def down_set(pi: tuple[int, ...], sides: tuple[str, ...]):
    """Every bi-non-crossing sigma <= pi.

    [0, pi] is the product over the blocks of pi of NC(|V|) in the
    s_chi order, so the down-set is built block by block.
    """
    rank = s_chi_rank(sides)
    blocks: dict[int, list[int]] = {}
    for i, b in enumerate(pi):
        blocks.setdefault(b, []).append(i)
    per_block = []
    for members in blocks.values():
        members = sorted(members, key=lambda i: rank[i])
        per_block.append([(members, nc) for nc in noncrossing(len(members))])
    for choice in iproduct(*per_block):
        labels = [0] * len(pi)
        used = 0
        for members, nc in choice:
            for pos, b in zip(members, nc):
                labels[pos] = used + b
            used += max(nc) + 1
        yield _canonical(labels)


# --- cumulant tables -------------------------------------------------------


def zeta_check(kappas: dict, moments: dict, sides: tuple[str, ...], top_moment):
    """Sum of the cumulants below each pi against the moment table.

    Returns None when every partition matches, else a witness.  The key
    sets must both equal the lattice, and the full partition's moment
    must equal the plain expectation of the word.
    """
    lattice = bnc(sides)
    if set(kappas) != lattice:
        return {"stage": "cumulant-keys", "size": len(kappas), "expected": len(lattice)}
    if set(moments) != lattice:
        return {"stage": "moment-keys", "size": len(moments), "expected": len(lattice)}
    full = (0,) * len(sides)
    if moments[full].coeffs != top_moment.coeffs:
        return {"stage": "top-moment", "table": str(moments[full]), "word": str(top_moment)}
    coeffs = {k: v.coeffs for k, v in kappas.items()}
    for pi in sorted(lattice):
        total = [Fraction(0)] * len(moments[pi].coeffs)
        for sigma in down_set(pi, sides):
            for j, c in enumerate(coeffs[sigma]):
                total[j] += c
        if total != list(moments[pi].coeffs):
            return {
                "stage": "zeta-sum",
                "pi": pi,
                "sum": [frac_str(c) for c in total],
                "moment": [frac_str(c) for c in moments[pi].coeffs],
            }
    return None


def multiplicative_moments(space, Z: list, sides: tuple[str, ...]) -> dict:
    """Partition moments as the product over blocks of the expectation of
    each block's word, in index order.

    This is the partition moment when the base is the scalars (bi-
    multiplicativity), and also when every operand lies in a commutative
    base, embedded alike on both sides: then Z_i = L_{b_i} = R_{b_i} and
    every nesting of conditional expectations gives b_1 ... b_n.  Raises
    ValueError for operands outside those cases.
    """
    B = space.B
    if B.dim > 1:
        basis = [B.basis_element(i) for i in range(B.dim)]
        if any((x * y).coeffs != (y * x).coeffs for x in basis for y in basis):
            raise ValueError("base algebra is not commutative")
        for z in Z:
            b = space.expect(z)
            if z.coeffs != space.embed_left(b).coeffs or z.coeffs != space.embed_right(b).coeffs:
                raise ValueError("operand does not lie in the base")
    block_moments: dict[tuple[int, ...], object] = {}  # NC(n) shares its blocks
    out = {}
    for pi in bnc(sides):
        blocks: dict[int, list[int]] = {}
        for i, b in enumerate(pi):
            blocks.setdefault(b, []).append(i)
        value = B.one()
        for members in blocks.values():
            key = tuple(members)
            if key not in block_moments:
                word = Z[members[0]]
                for i in members[1:]:
                    word = word * Z[i]
                block_moments[key] = space.expect(word)
            value = value * block_moments[key]
        out[pi] = value
    return out


def table_digest(table: dict) -> str:
    return digest({"".join(map(str, k)): [frac_str(c) for c in v.coeffs] for k, v in table.items()})


# --- word decompositions ---------------------------------------------------


def vec_json(vec: dict) -> dict:
    """Canonical exact form of a free-product vector {word: {index: c}}."""
    out = {}
    for seq, comp in vec.items():
        entries = {str(i): frac_str(c) for i, c in sorted(comp.items()) if c}
        if entries:
            out[".".join(map(str, seq))] = entries
    return out


def vec_sum(vecs: list[dict]) -> dict:
    """Sum of vectors in vec_json form, in vec_json form."""
    acc: dict[str, dict[str, Fraction]] = {}
    for v in vecs:
        for word, entries in v.items():
            tgt = acc.setdefault(word, {})
            for i, c in entries.items():
                tgt[i] = tgt.get(i, Fraction(0)) + Fraction(c)
    out = {}
    for word, entries in acc.items():
        kept = {i: frac_str(c) for i, c in sorted(entries.items(), key=lambda kv: int(kv[0])) if c}
        if kept:
            out[word] = kept
    return out


def word_vectors(fp, ops, projected) -> tuple[dict, dict]:
    """(direct, primed) vectors of an operator word applied to the unit,
    one operator at a time, primed with the boolean projection of the
    operator's colour after each projected position."""
    direct = primed = fp.unit()
    for i in range(len(ops), 0, -1):
        side, k, op = ops[i - 1]
        apply = fp.lambda_apply if side == "l" else fp.rho_apply
        direct = apply(op, k, direct)
        primed = apply(op, k, primed)
        if i in projected:
            primed = fp.bool_proj(k, primed)
    return vec_json(direct), vec_json(primed)


# --- word audits -----------------------------------------------------------


def expanded(shape: tuple[str, ...], colours: tuple[int, ...]):
    """Two-letter sides, expanded colours and boolean pair starts (0-based)."""
    sides, cols, starts = [], [], []
    for s, k in zip(shape, colours):
        if s == "b":
            starts.append(len(sides))
            sides += ["l", "r"]
            cols += [k, k]
        else:
            sides.append(s)
            cols.append(k)
    return tuple(sides), tuple(cols), starts


def off_lattice_count(shape, colours) -> int:
    """Colour-refining bi-non-crossing partitions that split a boolean pair."""
    sides, cols, starts = expanded(shape, colours)
    colour_rgs = _canonical(cols)
    return sum(
        1
        for pi in bnc(sides)
        if refines(pi, colour_rgs) and any(pi[j] != pi[j + 1] for j in starts)
    )


def audit_expectation(shape, colours) -> list[str]:
    """Claim ids an audit of this word must report, all passing."""
    last = "mixed-ffb-cumulant-vanishes" if len(set(colours)) > 1 else "constant-colour-cumulant"
    return [
        "ffb-moment-formula",
        "ffb-cumulant-restriction",
        f"off-lattice-vanishing ({off_lattice_count(shape, colours)} partitions)",
        last,
    ]


# --- checker reports -------------------------------------------------------

def checker_expectation(checker: str, pools: dict, cap: int) -> list[str]:
    """Claim ids a passing report must carry, with their word counts.

    pools maps colour -> {"l": n_l, "r": n_r, "b": n_b, "c": n_c, "d": n_d}
    generator counts (c and d are the primed boolean factors).
    """
    colours = sorted(pools)
    if checker == "check_ffb_system":
        return [
            f"{prop}-{k}"
            for k in colours
            for prop in ("annihilation-c", "annihilation-d", "moments-c", "moments-d")
        ]
    if checker == "check_single_colour_moments":
        out = []
        for k in colours:
            per = sum(pools[k][s] for s in "lrb")
            out.append(
                f"single-colour-moments-{k} ({sum(per ** n for n in range(1, cap + 1))} words)"
            )
        return out
    if checker == "check_ffb_independence":
        per = sum(pools[k][s] for k in colours for s in "lrb")
        words = sum(per ** n for n in range(1, cap + 1))
        return [f"ffb-independence ({words} words, 0 failures)"]
    if checker == "verify_system_gives_ffb":
        slots = sum(1 for k in colours for s in "lrb" if pools[k][s])
        shapes = sum(slots ** n for n in range(1, cap + 1))
        mixed = "mixed-cumulants (vacuous: one colour)"
        if len(colours) > 1:
            checked = 0
            for n in range(2, min(cap, 4) + 1):
                for sh in iproduct("lr", repeat=n):
                    for eps in iproduct(colours, repeat=n):
                        if len(set(eps)) < 2:
                            continue
                        if all(pools[k]["l" if s == "l" else "r"] + pools[k]["c" if s == "l" else "d"]
                               for s, k in zip(sh, eps)):
                            checked += 1
            mixed = f"mixed-cumulants-vanish ({checked} words, 0 failures)"
        return [f"proof-pipeline ({shapes} word shapes, 0 failures)", mixed]
    raise KeyError(checker)


def report_witness(report) -> object:
    """First failing claim with a witness, or None."""
    for c in report.claims:
        if c["status"] == "fail" and c.get("witness"):
            return {"id": c["id"], "witness": c["witness"]}
    return None


# --- amalgamated word spaces ----------------------------------------------


def _mat_trace_product(a, b) -> Fraction:
    n = len(a)
    return sum((a[i][k] * b[k][i] for i in range(n) for k in range(n)), Fraction(0))


def idempotent_blocks(module, base_dim: int):
    """d[i][j] = dim e_i X e_j on the complement, for a diagonal base.

    The left and right actions of the base's orthogonal idempotents
    commute, so the rank of their product is its trace.
    """
    return [
        [_mat_trace_product(module.osc_left(i), module.osc_right(j)) for j in range(base_dim)]
        for i in range(base_dim)
    ]


def word_dims(blocks: dict, base_dim: int, depth: int) -> dict[str, int]:
    """Dimensions of the alternating word spaces X_{k1} (x)_B ... (x)_B X_{kn}.

    Over a commutative semisimple base the balanced tensor product splits
    along idempotents, so the dimension is 1^T D_{k1} ... D_{kn} 1.
    """
    colours = sorted(blocks)
    out: dict[str, int] = {}
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(depth):
        nxt = []
        for seq in frontier:
            for k in colours:
                if seq and seq[-1] == k:
                    continue
                nxt.append(seq + (k,))
        frontier = nxt
        for seq in frontier:
            row = [Fraction(1)] * base_dim
            for k in seq:
                d = blocks[k]
                row = [
                    sum((row[i] * d[i][j] for i in range(base_dim)), Fraction(0))
                    for j in range(base_dim)
                ]
            out["".join(map(str, seq))] = int(sum(row))
    return out

