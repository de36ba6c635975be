"""The four benchmark workloads.

Each workload builds its fixtures from a seed, yields a closed-loop
schedule of ops (one call into the engine's public API each), and checks
every op's result by an independent exact route plus, where one is
stored, a golden digest.  Engine functions are always reached through
their module (``cumulants.cumulant_table``) so the tracer's rebinding
covers the benchmark's own calls.

Op mixes are fixed per round and only their contents and order come from
the seed, so every seed exercises the same cost profile.  Each round is
laid out so that the 50th and 90th latency percentiles fall inside a
block of ops of one cost class, away from a class boundary.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product
from typing import Callable

from bnc_engine import algebra, cumulants, diagrams, ffb, fixtures, freeprod, partitions
from bnc_engine.partitions import ChiMap, EpsilonMap

import reference as ref

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


@dataclass
class Op:
    """One engine call: key identifies its inputs, kind its cost class."""

    key: str
    kind: str
    run: Callable[[], object]
    reduce: Callable[[object], object]
    digest: Callable[[object], str]
    verify: Callable[[object], object]  # exact check: None or a witness
    boundary: bool = True


def load_golden(workload: str) -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh).get(workload, {})


def _shuffled(rng: random.Random, items: list) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def _rounds(make_round: Callable[[], list[Op]]):
    """Cycle rounds forever, marking the last op of each as a boundary."""
    while True:
        ops = make_round()
        for i, op in enumerate(ops):
            op.boundary = i == len(ops) - 1
            yield op


def commutant_basis(space, side: str):
    """Basis elements of the ambient algebra in the one-sided commutant."""
    A, B = space.A, space.B
    other = space.embed_right if side == "l" else space.embed_left
    out = []
    for t in range(A.dim):
        e = A.basis_element(t)
        if all(
            (e * other(B.basis_element(i))).coeffs == (other(B.basis_element(i)) * e).coeffs
            for i in range(B.dim)
        ):
            out.append(e)
    return out


def sample_element(basis, rng: random.Random, span: int = 3):
    """Random combination of the given basis elements, every coefficient a
    nonzero integer in [-span, span], so that operands of one size cost
    about the same whatever the seed."""
    coeffs = [rng.choice([c for c in range(-span, span + 1) if c]) for _ in basis]
    out = basis[0].scale(coeffs[0])
    for e, c in zip(basis[1:], coeffs[1:]):
        out = out + e.scale(c)
    return out


def _coeff_key(elems) -> list:
    return [[ref.frac_str(c) for c in e.coeffs] for e in elems]


def _report_check(report_json, expected_ids: list[str]):
    """Witness when a passing report lacks exactly the expected claims."""
    if not report_json["ok"]:
        bad = [c for c in report_json["claims"] if c["status"] != "pass"]
        return {"stage": "report-failed", "claims": bad[:3]}
    ids = [c["id"] for c in report_json["claims"]]
    if ids != expected_ids:
        return {"stage": "claim-counts", "got": ids, "expected": expected_ids}
    return None


class Workload:
    """Setup happens in __init__; ops() yields the timed schedule."""

    name = ""
    # nominal seconds per round on a 2-vCPU Intel Xeon VM (Python 3.11);
    # converts --seconds into a fixed number of rounds
    ROUND_S = 1.0

    def __init__(self, seed: int):
        self.seed = seed
        self.golden = load_golden(self.name)

    def warm_ops(self) -> list[Op]:
        """Set-up ops, run untimed: one per distinct lattice size or word width."""
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def tail_ops(self) -> list[Op]:
        """Ops run once after the timed loop: checked and counted, and in
        peak RSS and the trace, but outside the latency statistics."""
        return []

    def negative_control(self):
        """Witness the engine (or the exact gate) produced, None if unflagged."""
        raise NotImplementedError


# --- cumulant-tables ---------------------------------------------------------


class CumulantTables(Workload):
    """cumulant_table over m2-scalar and diag2 at n = 5, 6, 7."""

    name = "cumulant-tables"
    ROUND_S = 3.2
    # sorted by cost: 6 x n5, then p50 (entries 10-11) inside the n6 block
    # and p90 (entries 18-19) inside the n7 block, two from its edges
    ROUND = (5,) * 6 + (6,) * 10 + (7,) * 4

    def __init__(self, seed: int):
        super().__init__(seed)
        self.spaces = {
            "m2-scalar": fixtures.space_m2_scalar(),
            "diag2": fixtures.space_diag2(),
        }
        self.contexts = {k: cumulants.AlgebraMomentContext(sp) for k, sp in self.spaces.items()}
        self.bases = {
            (k, side): commutant_basis(sp, side)
            for k, sp in self.spaces.items()
            for side in "lr"
        }

    def make_op(self, rng: random.Random, space: str, n: int) -> Op:
        sides = tuple(rng.choice("lr") for _ in range(n))
        Z = [sample_element(self.bases[(space, s)], rng, span=2) for s in sides]
        mf = self.contexts[space]
        key = ref.digest([space, "".join(sides), _coeff_key(Z)])

        def run():
            ctx = partitions.build_context(ChiMap(sides))
            return cumulants.cumulant_table(ctx, Z, mf)

        def verify(table):
            sp = self.spaces[space]
            moments = ref.multiplicative_moments(sp, Z, sides)
            return ref.zeta_check(table, moments, sides, sp.expect(algebra.product(Z)))

        return Op(key, f"n{n}", run, lambda t: t, ref.table_digest, verify)

    def warm_ops(self):
        rng = random.Random(f"{self.seed}:warm")
        return [self.make_op(rng, "diag2", n) for n in sorted(set(self.ROUND))]

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        names = sorted(self.spaces)

        def make_round():
            plan = [(names[i % 2], n) for i, n in enumerate(self.ROUND)]
            return [self.make_op(rng, sp, n) for sp, n in _shuffled(rng, plan)]

        return _rounds(make_round)

    def negative_control(self):
        """Cumulants from a moment table with one perturbed entry must fail
        the zeta-sum gate against the true table."""
        rng = random.Random(f"{self.seed}:control")
        sides = tuple(rng.choice("lr") for _ in range(5))
        space = self.spaces["diag2"]
        Z = [sample_element(self.bases[("diag2", s)], rng) for s in sides]
        mf = self.contexts["diag2"]
        ctx = partitions.build_context(ChiMap(sides))
        moments = ref.multiplicative_moments(space, Z, sides)
        bottom = tuple(range(len(sides)))
        perturbed = dict(moments)
        perturbed[bottom] = moments[bottom] + space.B.one()
        kappas = {
            pi.rgs: cumulants.kappa_pi(pi, ctx, Z, mf, moments=perturbed)
            for pi in partitions.enumerate_bnc(ctx)
        }
        top = space.expect(algebra.product(Z))
        wit = ref.zeta_check(kappas, moments, sides, top)
        return wit if wit and wit["stage"] == "zeta-sum" else None


# --- ffb-audit ---------------------------------------------------------------


class FfbAudit(Workload):
    """audit_ffb_word over the criteria 9/10 sweep, one context per pass."""

    name = "ffb-audit"
    BLOCK = 100  # ops per round; the interleave keeps each block's length mix
    ROUND_S = 1.5
    SWEEPS = (("doubled-dual", 4), ("doubled-m2", 3))
    SUBSET = 0.75

    def __init__(self, seed: int):
        super().__init__(seed)
        self.systems = {
            "doubled-dual": fixtures.system_doubled_dual(8),
            "doubled-m2": fixtures.system_doubled_m2(8),
        }
        self.words = []
        for name, nmax in self.SWEEPS:
            colours = self.systems[name].colours()
            for n in range(1, nmax + 1):
                for shape in product("lrb", repeat=n):
                    for eps_hat in product(colours, repeat=n):
                        self.words.append((name, shape, eps_hat))

    def operands(self, name, shape, colours):
        system = self.systems[name]
        Z = []
        for s, k in zip(shape, colours):
            if s == "l":
                Z.append(system.faces_l[k][0].chain)
            elif s == "r":
                Z.append(system.faces_r[k][0].chain)
            else:
                Z.append(system.cprime[k][0].chain)
                Z.append(system.dprime[k][0].chain)
        return Z

    def audit(self, word, mf, operand_colours=None):
        name, shape, eps_hat = word
        fctx = partitions.lr_replacement(ChiMap(shape, three_letter="b" in shape))
        eps = fctx.expand_colours(EpsilonMap(eps_hat))
        Z = self.operands(name, shape, operand_colours or eps_hat)
        return cumulants.audit_ffb_word(fctx, eps, Z, mf)

    def make_op(self, word, contexts) -> Op:
        name, shape, eps_hat = word
        key = f"{name}|{''.join(shape)}|{','.join(map(str, eps_hat))}"

        return Op(
            key,
            f"n{self._expanded_len(word)}",
            lambda: self.audit(word, contexts[name]),
            lambda rep: rep.to_json(),
            ref.digest,
            lambda rep_json: _report_check(rep_json, ref.audit_expectation(shape, eps_hat)),
        )

    def _expanded_len(self, word) -> int:
        return len(ref.expanded(word[1], word[2])[0])

    def schedule(self, rng: random.Random) -> list:
        """A seeded subset, stratified by expanded length and interleaved
        so every prefix keeps the sweep's length mix."""
        by_len: dict[int, list] = {}
        for w in self.words:
            by_len.setdefault(self._expanded_len(w), []).append(w)
        keyed = []
        for n, ws in sorted(by_len.items()):
            chosen = _shuffled(rng, ws)[: max(1, round(len(ws) * self.SUBSET))]
            for i, w in enumerate(chosen):
                keyed.append(((i + rng.random()) / len(chosen), w))
        keyed.sort(key=lambda kw: kw[0])
        return [w for _, w in keyed]

    def warm_ops(self):
        rng = random.Random(f"{self.seed}:warm")
        contexts = {k: freeprod.FreeMomentContext(s.fp) for k, s in self.systems.items()}
        firsts: dict[int, tuple] = {}
        for w in _shuffled(rng, self.words):
            firsts.setdefault(self._expanded_len(w), w)
        return [self.make_op(w, contexts) for _, w in sorted(firsts.items())]

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        order = self.schedule(rng)
        done = 0
        while True:
            contexts = {k: freeprod.FreeMomentContext(s.fp) for k, s in self.systems.items()}
            for w in order:
                op = self.make_op(w, contexts)
                done += 1
                op.boundary = done % self.BLOCK == 0
                yield op

    def negative_control(self):
        """Colour-1 operands audited as a two-colour word: the mixed
        cumulant must be flagged."""
        system = self.systems["doubled-m2"]
        mf = freeprod.FreeMomentContext(system.fp)
        rep = self.audit(("doubled-m2", ("l", "r"), (1, 2)), mf, operand_colours=(1, 1))
        return ref.report_witness(rep)


# --- checker workloads -------------------------------------------------------


def _pools(system) -> dict:
    return {
        k: {
            "l": len(system.faces_l[k]),
            "r": len(system.faces_r[k]),
            "b": len(system.bool_handles[k]),
            "c": len(system.cprime[k]),
            "d": len(system.dprime[k]),
        }
        for k in system.colours()
    }


def tampered(system):
    """The criterion-11 control: boolean handles paired with a wrong source."""
    out = replace(system)
    wrong = system.base.A.basis_element(2)
    out.bool_handles = {
        k: [
            ffb.OperatorHandle(h.label, h.colour, h.chain, h.module_op, wrong)
            for h in system.bool_handles[k]
        ]
        for k in system.colours()
    }
    return out


def _family_key(fam) -> str:
    return ref.digest(
        {
            str(k): {s: _coeff_key(gens) for s, gens in sorted(slots.items())}
            for k, slots in sorted(fam.faces.items())
        }
    )


def checker_op(label: str, system, checker: str, cap: int, build=None) -> Op:
    """One FFB checker on a system; build, when given, constructs the
    system (with the same generator counts) inside the timed op."""

    def run():
        return getattr(ffb, checker)(build() if build else system, cap)

    expected = ref.checker_expectation(checker, _pools(system), cap)
    return Op(
        f"{label}|{checker}|{cap}",
        f"{checker}@{cap}",
        run,
        lambda rep: rep.to_json(),
        ref.digest,
        lambda rep_json: _report_check(rep_json, expected),
    )


SHORT = {
    "sys": "check_ffb_system",
    "scm": "check_single_colour_moments",
    "ind": "check_ffb_independence",
    "ver": "verify_system_gives_ffb",
}


LR_LEN = 6  # length of the decomposed words; the diagram cap is 8


class FfbVerify(Workload):
    """The four FFB checkers at word caps 2-4 on systems over the scalars,
    and word decompositions with their removed-diagram families."""

    name = "ffb-verify"
    ROUND_S = 3.3
    # (family, checker, cap), cheapest first.  With k whole rounds the
    # 50th percentile interpolates between the 10th and 11th entries and
    # the 90th between the 18th and 19th, so each pair is one op repeated.
    ROUND = (
        ("doubled-dual", "scm", 2),
        ("doubled-m2", "scm", 2),
        ("doubled-dual", "ind", 2),
        ("doubled-dual", "scm", 3),
        ("doubled-m2", "ind", 2),
        ("doubled-m2", "ver", 2),
        ("doubled-dual", "ver", 2),
        ("doubled-m2", "scm", 4),
        ("doubled-dual", "sys", 2),
        ("doubled-m2", "sys", 2),
        ("doubled-m2", "sys", 2),
        ("doubled-dual", "ind", 3),
        ("sampled-m2", "sys", 2),
        ("doubled-m2", "ind", 3),
        ("rich-m2", "ver", 2),
        ("m2-words", "lr", LR_LEN),
        ("doubled-m2", "sys", 3),
        ("doubled-dual", "ver", 3),
        ("doubled-m2", "ver", 3),
        ("doubled-m2", "ver", 3),
    )
    LR_WORDS = 5

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = random.Random(f"{seed}:family")
        self.families = {
            "doubled-m2": fixtures.family_m2(),
            "rich-m2": fixtures.family_m2(rich=True),
            "doubled-dual": fixtures.family_dual(),
            "sampled-m2": self.sampled_family(rng),
        }
        self.labels = {
            name: (name if name != "sampled-m2" else f"sampled-m2:{_family_key(fam)}")
            for name, fam in self.families.items()
        }
        self.systems = {
            (name, cap): ffb.embed_ffb_family(self.families[name], 2 * cap)
            for name, short, cap in self.ROUND
            if short != "lr"
        }
        module, _ = freeprod.build_bimodule_from_space(fixtures.space_m2_scalar())
        self.lr_fp = freeprod.reduced_free_product({1: module, 2: module}, LR_LEN)
        wrng = random.Random(f"{seed}:words")
        self.lr_words = [sample_word(module, wrng, LR_LEN) for _ in range(self.LR_WORDS)]

    @staticmethod
    def sampled_family(rng: random.Random):
        space = fixtures.space_m2_scalar()
        basis = [space.A.basis_element(t) for t in range(space.A.dim)]
        faces = {
            k: {s: [sample_element(basis, rng, span=2)] for s in "lrb"} for k in (1, 2)
        }
        return ffb.FfbFamily(space, faces)

    def make_op(self, family: str, short: str, cap: int) -> Op:
        if short == "lr":
            return lr_op(self.lr_fp, self.lr_words)
        label = f"{self.labels[family]}@{2 * cap}"
        return checker_op(label, self.systems[(family, cap)], SHORT[short], cap)

    def warm_ops(self):
        firsts = {}
        for item in self.ROUND:
            firsts.setdefault(item[2], item)
        return [self.make_op(*item) for _, item in sorted(firsts.items())]

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        return _rounds(lambda: [self.make_op(*item) for item in _shuffled(rng, self.ROUND)])

    def negative_control(self):
        rep = ffb.check_ffb_independence(tampered(self.systems[("doubled-m2", 2)]), 2)
        return None if rep.ok else ref.report_witness(rep)


def sample_word(module, rng: random.Random, n: int):
    """(operators, projected positions): n operators with random integer
    matrices on the module, sides and colours drawn; position 1 is always
    projected (so its suffix family is the full one), each other position
    with probability one half."""
    ops = []
    for _ in range(n):
        m = [[Fraction(rng.randint(-2, 2)) for _ in range(module.dim)] for _ in range(module.dim)]
        ops.append((rng.choice("lr"), rng.choice((1, 2)), freeprod.module_operator(module, m)))
    projected = [1] + [j for j in range(2, n + 1) if rng.random() < 0.5]
    return ops, projected


def lr_op(fp, words) -> Op:
    """lr_decompose of each word with projections, and the union of the
    removed-diagram families at its projected positions: the residual
    terms of the split direct = primed + residual must lie in it."""

    def run():
        out = []
        for ops, projected in words:
            dec = freeprod.lr_decompose(ops, fp, projected_positions=projected)
            chi = ChiMap(tuple(s for s, _, _ in ops))
            eps = EpsilonMap(tuple(k for _, k, _ in ops))
            sizes, union = [], set()
            for j in projected:
                plain = diagrams.enumerate_lr(
                    ChiMap(chi.sides[j - 1 :]), EpsilonMap(eps.colours[j - 1 :])
                )
                _, removed = diagrams.filter_boolean(diagrams.lateral_closure(plain), eps.colour(j))
                union |= diagrams.chi_extensions(removed, chi, eps).keys()
                sizes.append(len(plain))
            out.append((dec, sizes, union))
        return out

    def reduce(result):
        return [
            {
                "direct": ref.vec_json(dec.direct),
                "primed": ref.vec_json(dec.primed),
                "residual": [[json.dumps(d.key()), ref.vec_json(v)] for d, _, v in dec.residual],
                "sizes": sizes,
                "union": sorted(json.dumps(k) for k in union),
            }
            for dec, sizes, union in result
        ]

    def verify(data):
        for w, ((ops, projected), got) in enumerate(zip(words, data)):
            direct, primed = ref.word_vectors(fp, ops, set(projected))
            if got["direct"] != direct or got["primed"] != primed:
                return {"stage": "word-vectors", "word": w}
            if ref.vec_sum([got["primed"]] + [v for _, v in got["residual"]]) != direct:
                return {"stage": "split", "word": w}
            want = [2 ** (len(ops) - j + 1) for j in projected]
            if got["sizes"] != want:
                return {"stage": "family-size", "word": w, "got": got["sizes"], "want": want}
            union = set(got["union"])
            outside = [k for k, _ in got["residual"] if k not in union]
            if outside:
                return {"stage": "residual-family", "word": w, "diagram": outside[0]}
        return None

    key = ref.digest(
        [[[[s, k, _coeff_rows(op.matrix)] for s, k, op in ops], projected] for ops, projected in words]
    )
    return Op(f"lr|{key}", "lr", run, reduce, ref.digest, verify)


def _coeff_rows(matrix) -> list:
    return [[ref.frac_str(c) for c in row] for row in matrix]


# --- amalgamated -------------------------------------------------------------


class Amalgamated(Workload):
    """Free products over B = D2: builds checked against word-space
    dimensions, and embedded systems checked by the FFB checkers."""

    name = "amalgamated"
    ROUND_S = 2.0
    # ("build", left, right, depth) with p = diag2 module, d = its double;
    # ("system", depth, checker, cap) embeds the seeded family first.
    # Cheapest first: p50 falls in the depth-2 independence block (entries
    # 9-11), p90 among the width-144/216 builds and depth-3 checks.
    ROUND = (
        ("build", "p", "p", 3),
        ("build", "p", "p", 4),
        ("build", "d", "d", 2),
        ("build", "p", "p", 5),
        ("build", "p", "d", 3),
        ("build", "d", "p", 3),
        ("system", 2, "scm", 2),
        ("system", 2, "ver", 1),
        ("system", 2, "ind", 2),
        ("system", 2, "ind", 2),
        ("system", 2, "ind", 2),
        ("build", "p", "p", 6),
        ("system", 3, "scm", 2),
        ("system", 3, "ind", 2),
        ("system", 3, "ver", 2),
        ("build", "p", "d", 4),
        ("build", "d", "p", 4),
        ("build", "d", "d", 3),
        ("system", 3, "ind", 1),
        ("system", 2, "sys", 1),
    )
    # once per run, after the timed loop: the doubled depth-4 system
    # (width 1296), which alone would take most of a run's time
    TAIL = (("system", 4, "scm", 1),)

    def __init__(self, seed: int):
        super().__init__(seed)
        self.space = fixtures.space_diag2()
        plain, _ = freeprod.build_bimodule_from_space(self.space)
        self.modules = {"p": plain, "d": freeprod.doubled_bimodule(plain)}
        base_dim = self.space.B.dim
        self.blocks = {k: ref.idempotent_blocks(m, base_dim) for k, m in self.modules.items()}
        self.family = self.sampled_family(random.Random(f"{seed}:family"))
        self.family_label = f"diag2:{_family_key(self.family)}"
        self.small_system = ffb.embed_ffb_family(self.family, 2)

    def sampled_family(self, rng: random.Random):
        diag = commutant_basis(self.space, "l")
        faces = {}
        for k in (1, 2):
            while True:
                b = [sample_element(diag, rng) for _ in range(2)]
                if b[0].coeffs[0] * b[1].coeffs[3] != b[0].coeffs[3] * b[1].coeffs[0]:
                    break
            faces[k] = {
                "l": [sample_element(diag, rng)],
                "r": [sample_element(diag, rng)],
                "b": b,
            }
        return ffb.FfbFamily(self.space, faces)

    def width(self, item) -> int:
        if item[0] == "build":
            _, x, y, depth = item
            dims = [self.modules[x].osc_dim, self.modules[y].osc_dim]
            return max(math.prod(dims[(i + s) % 2] for i in range(depth)) for s in (0, 1))
        return self.modules["d"].osc_dim ** item[1]

    def make_op(self, item) -> Op:
        if item[0] == "system":
            _, depth, short, cap = item

            def build():
                return ffb.embed_ffb_family(self.family, depth)

            # claim counts depend only on generator counts, not on depth
            return checker_op(
                f"{self.family_label}@{depth}", self.small_system, SHORT[short], cap, build
            )
        _, x, y, depth = item
        expected = ref.word_dims(
            {1: self.blocks[x], 2: self.blocks[y]}, self.space.B.dim, depth
        )

        def verify(desc):
            if desc["words"] != expected:
                return {"stage": "word-dims", "got": desc["words"], "expected": expected}
            return None

        return Op(
            f"build|{x}{y}|{depth}",
            f"build@{self.width(item)}",
            lambda: freeprod.reduced_free_product({1: self.modules[x], 2: self.modules[y]}, depth),
            lambda fp: fp.describe(),
            ref.digest,
            verify,
        )

    def warm_ops(self):
        """One op per distinct width of the round; the tail is not warmed."""
        firsts = {}
        for item in self.ROUND:
            firsts.setdefault(self.width(item), item)
        return [self.make_op(item) for _, item in sorted(firsts.items())]

    def ops(self):
        rng = random.Random(f"{self.seed}:ops")
        return _rounds(lambda: [self.make_op(i) for i in _shuffled(rng, self.ROUND)])

    def tail_ops(self):
        return [self.make_op(item) for item in self.TAIL]

    def negative_control(self):
        rep = ffb.check_ffb_independence(tampered(self.small_system), 2)
        return None if rep.ok else ref.report_witness(rep)


WORKLOADS = {
    w.name: w for w in (CumulantTables, FfbAudit, FfbVerify, Amalgamated)
}
