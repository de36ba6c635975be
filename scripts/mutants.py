#!/usr/bin/env python3
"""The mutation register: deliberate faults in src/ and the tests that
must catch them.

    python3 scripts/mutants.py

A mutant names a file under src/bnc_engine, an exact old text, the new
text that replaces it, and the pytest node ids meant to fail on it.  For
each one the script copies src/ into a temporary directory, makes the one
edit there, and runs the named tests of this checkout against the copy
(PYTHONPATH points at it).  It prints killed when a test fails and
survived when all pass.

The register is strict both ways:
  - an old text that does not occur exactly once is an error, so a
    refactor that moves the code must re-spell the entry;
  - a mutant recorded as killed that survives fails the run, and so does
    a recorded survivor that is killed: its reason no longer holds.
Before any mutant, the union of the named tests runs once on the
unmutated copy, which must pass.  Exit status is 0 when every mutant
behaves as recorded, 1 otherwise.  Stdlib only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    id: str
    file: str  # under src/bnc_engine
    old: str
    new: str
    tests: tuple[str, ...]
    survives: str | None = None  # why the tests cannot see it


M2_SELF = "tests/test_freeprod.py::test_bifree_criterion_over_m2_acting_on_itself"
RECORDED = "tests/test_cumulants.py::test_planner_matches_recorded_reductions"
ONCE = "tests/test_cumulants.py::test_planner_works_out_each_state_once"
SWEEP_REACH = "tests/test_ffb.py::test_sweep_builds_only_the_word_spaces_it_reaches"
CHECKER_REACH = "tests/test_ffb.py::test_checkers_build_only_the_word_spaces_they_probe"
DENSE = "tests/test_freeprod.py::test_lambda_rho_match_a_dense_oracle_on_word_basis_vectors"
DENSE_B = (
    "tests/test_freeprod.py::"
    "test_b_actions_and_projections_match_a_dense_oracle_on_word_basis_vectors"
)
LR_PIN = "tests/test_freeprod.py::test_lr_decompose_output_is_pinned"
STOPS = "tests/test_cumulants.py::test_stops_replay_matches_direct_reduction"
REPLAY = "tests/test_cumulants.py::test_plan_replay_matches_direct_reduction"
TRAFFIC = "tests/test_ffb.py::test_sweep_misses_each_lattice_table_once_per_key"
RESIDUAL = (
    "tests/test_ffb.py::test_pipeline_residual_stages_flag_a_right_sided_left_factor"
)

REGISTER = (
    # the collapse rule and the planner that calls it
    Mutant(
        "r1",
        "bimult.py",
        "    if last < j:\n        return APPEND_LEFT, last\n",
        "    if last < v[-1]:\n        return APPEND_LEFT, last\n",
        (RECORDED,),
    ),
    Mutant(
        "r2",
        "bimult.py",
        "            if blk[-1] > last:\n                last = blk[-1]\n",
        "            last = blk[-1]\n",
        (RECORDED,),
    ),
    Mutant(
        "r3",
        "bimult.py",
        "            below = id(step)\n",
        "            below = k\n",
        (RECORDED,),
    ),
    Mutant(
        "r4",
        "bimult.py",
        "    if len(crossing) > 1:\n",
        "    if len(crossing) > 2:\n",
        (RECORDED,),
    ),
    # the planner's stops: a diagram's top strings
    Mutant(
        "g1",
        "bimult.py",
        "collapse_step(blk, tops + member[:k], last, side, gaps)",
        "collapse_step(blk, member[:k], last, side, gaps)",
        (LR_PIN, STOPS),
    ),
    Mutant(
        "g2",
        "bimult.py",
        "        below, last = None, top_last\n",
        "        below, last = None, 0\n",
        (LR_PIN, STOPS),
    ),
    # the insertion side and the spine comparison
    Mutant(
        "i",
        "bimult.py",
        '    return (PREPEND_LEFT if side[j] == "l" else PREPEND_RIGHT), target\n',
        '    return (PREPEND_RIGHT if side[j] == "l" else PREPEND_LEFT), target\n',
        (M2_SELF,),
    ),
    Mutant(
        "ii",
        "bimult.py",
        "        w = min(crossing, key=",
        "        w = max(crossing, key=",
        (f"{M2_SELF}[5]",),
    ),
    Mutant(
        "iii",
        "freeprod.py",
        'b = self._b_atom("rb" if kind == PREPEND_RIGHT else "lb", value)',
        'b = self._b_atom({APPEND_LEFT: "lb", PREPEND_RIGHT: "lb"}.get(kind, "rb"), value)',
        (M2_SELF,),
    ),
    # the lattice tables: one lattice and one program per colouring class,
    # whose program never reads side n
    Mutant(
        "s1",
        "bimult.py",
        "    j = v[0]\n    if last < j:\n",
        "    j = v[0]\n    from_left = side[j] == \"l\"\n    if last < j:\n",
        ("tests/test_cumulants.py",),
    ),
    Mutant(
        "s2",
        "cumulants.py",
        "run_program(_program(ctx.line), ",
        "run_program(_program(ctx.s_chi), ",
        (TRAFFIC,),
    ),
    Mutant(
        "s4",
        "partitions.py",
        '    return ("l", *inner, "l")[:n], mirrored\n',
        '    return (sides[0], *inner, "l")[:n], mirrored\n',
        (TRAFFIC,),
    ),
    Mutant(
        "s5",
        "cumulants.py",
        "    if ctx.mirrored:\n        view = _Mirrored(view)\n",
        "",
        ("tests/test_cumulants.py::test_symbolic_moment_tables_are_pinned",),
    ),
    Mutant(
        "s6",
        "partitions.py",
        "_heads([pi.rgs[p - 1] for p in ctx.line])",
        "_heads([pi.rgs[p - 1] for p in ctx.s_chi])",
        (
            "tests/test_cumulants.py::"
            "test_cumulant_table_matches_mobius_sum_of_single_moments",
        ),
    ),
    # the sparse audit
    Mutant(
        "a",
        "cumulants.py",
        "    nonzero = {t: v for t, v in out.items() if not v.is_zero()}\n",
        "    nonzero = dict([(t, v) for t, v in out.items() if not v.is_zero()][:-1])\n",
        ("tests/test_acceptance.py::test_criterion_9_vanishing",),
    ),
    Mutant(
        "b",
        "cumulants.py",
        "            if colour[head] == colour[t]:\n",
        "            if True:\n",
        ("tests/test_ffb.py::test_off_lattice_count_matches_a_lattice_scan",),
    ),
    Mutant(
        "c",
        "bimult.py",
        "            for leaf in ends:\n"
        "                out[leaf] = value\n"
        "            if not goes_on:\n"
        "                continue\n",
        "            if not goes_on:\n"
        "                for leaf in ends:\n"
        "                    out[leaf] = value\n"
        "                continue\n",
        (
            "tests/test_cumulants.py",
            "tests/test_acceptance.py::test_criterion_9_vanishing",
        ),
        survives="equivalent: a root group has leaves only when its block is "
        "every position, and then no plan goes on below it",
    ),
    Mutant(
        "d",
        "cumulants.py",
        "    bad = sorted(\n",
        "    bad = list(\n",
        (
            "tests/test_ffb.py::"
            "test_off_lattice_witnesses_are_the_first_five_in_lattice_order",
        ),
    ),
    Mutant(
        "e",
        "bimult.py",
        "        self._side = side\n",
        "        self._side = side\n"
        "        for g in range(len(self.roots)):\n"
        "            self.subtree(g, {})\n",
        (ONCE,),
    ),
    # word spaces on demand
    Mutant(
        "w1",
        "freeprod.py",
        "        self._built: dict[tuple[int, ...], WordSpace] = {}\n",
        "        self._built: dict[tuple[int, ...], WordSpace] = {}\n"
        "        for seq in self.sequences():\n"
        "            self.space(seq)\n",
        (CHECKER_REACH, SWEEP_REACH),
    ),
    Mutant(
        "w2",
        "ffb.py",
        "    for seq in sorted(s for s in fp.sequences() if len(s) <= max_depth):\n"
        "        for i in range(fp.space(seq).dim):\n",
        "    for seq in sorted(fp.sequences()):\n"
        "        ws = fp.space(seq)\n"
        "        if len(seq) > max_depth:\n"
        "            continue\n"
        "        for i in range(ws.dim):\n",
        (CHECKER_REACH,),
    ),
    Mutant(
        "w3",
        "freeprod.py",
        "        rel = prefix.sub.lifted(ws.osc_dims[-1]) if prefix else RowSpace(ws.plain_dim)\n",
        "        rel = RowSpace(ws.plain_dim)\n",
        (
            "tests/test_freeprod.py::test_word_space_dims_match_the_idempotent_closed_form",
            "tests/test_freeprod.py::test_seeded_word_spaces_equal_the_full_relation_span",
        ),
    ),
    # dead work skipped: the zero stop, the sparse kernels, the lean grouping
    Mutant(
        "z1",
        "freeprod.py",
        "_Suffix(vec) if vec else self._zero\n",
        "_Suffix(vec) if len(vec) > 1 else self._zero\n",
        ("tests/test_freeprod.py::test_suffix_trie_matches_fresh_application",),
    ),
    Mutant(
        "k1",
        "freeprod.py",
        "        return kernel(zip(*self.matrix))\n",
        "        return kernel(self.matrix)\n",
        (DENSE,),
    ),
    Mutant(
        "k2",
        "freeprod.py",
        "        return tuple(kernel(zip(*m)) for m in self.right_action)\n",
        "        return tuple(kernel(zip(*m)) for m in self.left_action)\n",
        (f"{DENSE}[doubled-m2-over-m2]",),
    ),
    Mutant(
        "k3",
        "algebra.py",
        "        return tuple(kernel(mat_vec(E, eij) for eij in mi) for mi in self.A.mult)\n",
        "        return tuple(kernel(mat_vec(E, eij) for eij in mi) for mi in zip(*self.A.mult))\n",
        ("tests/test_algebra.py::test_moment_kernels_match_their_definitions",),
    ),
    Mutant(
        "c1",
        "freeprod.py",
        "    residual = by_diagram(resid_parts)\n",
        "    primed_keys = {_diagram_key(t) for t in terms if t.primed}\n"
        "    residual = by_diagram(\n"
        "        {k: v for k, v in resid_parts.items() if k not in primed_keys}\n"
        "    )\n",
        (LR_PIN,),
    ),
    # the FFB embedding: a face acting on the other colour's legs
    Mutant(
        "f1",
        "ffb.py",
        '                OperatorHandle(f"{s}{k}.{i}", k, ((s, k, op),), op, z)\n',
        '                OperatorHandle(f"{s}{k}.{i}", k, ((s, 3 - k, op),), op, z)\n',
        (
            "tests/test_ffb.py::test_system_axioms",
            "tests/test_acceptance.py::test_criterion_9_vanishing",
        ),
    ),
    # each job written once: the two-column picture, one partition's
    # replay, the cut closure and the counterexample search
    Mutant(
        "t1",
        "render.py",
        "sx = round(WIDTH * (order.index(nodes) + 1) / (len(order) + 1), 3)",
        "sx = round(WIDTH * (order.index(nodes) + 2) / (len(order) + 1), 3)",
        ("tests/test_cli.py::test_lr_tikz_output_bytes",),
    ),
    Mutant(
        "e1",
        "cumulants.py",
        "    return reduce_blocks(tuple(pi.blocks()), {}, [None, *Z], side, mf)\n",
        "    return reduce_blocks(tuple(pi.blocks())[::-1], {}, [None, *Z], side, mf)\n",
        ("tests/test_cumulants.py::test_reduction_order_independence",),
    ),
    Mutant(
        "x1",
        "diagrams.py",
        "            if upper < i and cut.key() not in seen:\n",
        "            if cut.key() not in seen:\n",
        ("tests/test_diagrams.py::test_extensions_cut_only_above_the_suffix",),
    ),
    Mutant(
        "q1",
        "algebra.py",
        "    return next((case for case in cases if fails(*case)), None)\n",
        "    return next((case for case in [*cases][::-1] if fails(*case)), None)\n",
        ("tests/test_algebra.py::test_axioms_flag_bad_expectation_with_witness",),
    ),
    # one rule per job: the one-pass depth bound, the slot-keyed kernel
    # row of one cumulant, and the empty word's moment
    Mutant(
        "h1",
        "freeprod.py",
        'tops[0 if side == "l" else -1]',
        "tops[0]",
        ("tests/test_freeprod.py::test_depth_walk_matches_the_reach_set_maximum",),
    ),
    Mutant(
        "m1",
        "cumulants.py",
        "    below, mus = nc_row(ctx.n, _nc_slot(pi, ctx))\n",
        "    below, mus = nc_row(ctx.n, 0)\n",
        ("tests/test_cumulants.py::test_interval_weights_match_summed_cumulants",),
    ),
    Mutant(
        "n1",
        "bimult.py",
        "    return None if gaps else ctx.expect([])\n",
        "    return None\n",
        ("tests/test_cumulants.py::test_empty_word_is_one_partition_with_moment_one",),
    ),
    # one LR step: the join or open picks the branch, one helper keeps
    # or closes it, and each diagram group is made once
    Mutant(
        "l1",
        "freeprod.py",
        "(-coeff, done + (nodes,)",
        "(coeff, done + (nodes,)",
        (LR_PIN,),
    ),
    Mutant(
        "l2",
        "freeprod.py",
        "    at = 0 if left else len(rest)\n",
        "    at = 0\n",
        (LR_PIN,),
    ),
    Mutant(
        "l3",
        "freeprod.py",
        "    end = 0 if left else len(rest) - 1\n",
        "    end = 0\n",
        (LR_PIN,),
    ),
    Mutant(
        "l4",
        "freeprod.py",
        "            end = 0 if left else len(top) - 1\n",
        "            end = 0\n",
        (LR_PIN,),
    ),
    Mutant(
        "l5",
        "diagrams.py",
        "            at = 0 if left else len(rest)\n",
        "            at = 0\n",
        ("tests/test_diagrams.py::test_worked_example_family_of_eight",),
    ),
    Mutant(
        "l6",
        "diagrams.py",
        "            end = 0 if left else len(top) - 1\n",
        "            end = 0\n",
        ("tests/test_acceptance.py::test_criterion_5_lr_decomposition",),
    ),
    Mutant(
        "l7",
        "freeprod.py",
        "        if key not in built:\n",
        "        if True:\n",
        ("tests/test_freeprod.py::test_lr_decompose_makes_each_diagram_once",),
    ),
    # the proof pipeline's residual stages, each with a term to check
    # only on a tampered boolean handle
    Mutant(
        "p1",
        "ffb.py",
        "    if not sys.fp.p(resid_total).is_zero():\n",
        "    if False:\n",
        (RESIDUAL,),
    ),
    Mutant(
        "p2",
        "ffb.py",
        "    if dec.residual:\n",
        "    if False:\n",
        (RESIDUAL,),
    ),
    # the walk memo of AlgebraMomentContext: its value keys, and its
    # lifetime of one walk
    Mutant(
        "a1",
        "cumulants.py",
        "        key = (kind, value.coeffs, elem.coeffs)\n",
        "        key = (value.coeffs, elem.coeffs)\n",
        (REPLAY,),
    ),
    Mutant(
        "a2",
        "cumulants.py",
        "        key = tuple([e.coeffs for e in elems])\n",
        "        key = tuple(sorted([e.coeffs for e in elems]))\n",
        (REPLAY,),
    ),
    Mutant(
        "a3",
        "cumulants.py",
        "        return _WalkMemo(self.space)\n",
        '        self.__dict__.setdefault("_memo", _WalkMemo(self.space))\n'
        "        return self._memo\n",
        ("tests/test_cumulants.py::test_walk_memo_lives_for_one_walk",),
    ),
    # more than two colours, and the boolean-pair sublattice as the
    # interval above bottom
    Mutant(
        "y1",
        "ffb.py",
        "        if len(set(eps)) < 2:\n",
        "        if len(set(eps)) != 2:\n",
        ("tests/test_ffb.py::test_three_colour_system_claim_ids",),
    ),
    # the order read backwards: the members below bottom
    Mutant(
        "u1",
        "cumulants.py",
        "        if _shared_pair(rgs, bottom) is None\n",
        "        if _shared_pair(bottom, rgs) is None\n",
        (
            "tests/test_ffb.py::test_boolean_pair_sublattice_is_the_interval_above_bottom",
            "tests/test_ffb.py::test_sublattice_weights_are_delta_of_the_top",
        ),
    ),
    # the audit's colour check reading the first two positions only
    Mutant(
        "u2",
        "cumulants.py",
        "    if _shared_pair(eps.colours, fctx.bottom.rgs) is not None:\n",
        "    if _shared_pair(eps.colours[:2], fctx.bottom.rgs) is not None:\n",
        ("tests/test_cumulants.py::test_ffb_formula_requires_pair_colours",),
    ),
    # the image tables: one per colour sequence, kept by a
    # FreeMomentContext for its own life only
    Mutant(
        "v1",
        "freeprod.py",
        "        table = tables.setdefault(seq, {})\n",
        "        table = tables.setdefault((), {})\n",
        ("tests/test_freeprod.py::test_context_application_matches_apply_chain",),
    ),
    Mutant(
        "v2",
        "freeprod.py",
        "        self._tables: dict = {}",
        '        self._tables: dict = fp.__dict__.setdefault("_tables", {})',
        (
            "tests/test_ffb.py::test_checker_applies_each_suffix_once_per_call"
            "[check_single_colour_moments]",
        ),
    ),
    # the one definition of each atom on a basis word: an operator's base
    # part on a consumed edge leg, and B acting on its own basis elements
    Mutant(
        "v3",
        "freeprod.py",
        "                    base[r] = v\n",
        "                    base[0] = v\n",
        (f"{DENSE}[diag2]",),
    ),
    Mutant(
        "v4",
        "freeprod.py",
        "(b * e if first else e * b)",
        "(e * b if first else b * e)",
        (f"{DENSE_B}[doubled-m2-over-m2]",),
    ),
    # the lean kernels: a linear extension kept uncleaned after a
    # cancellation, a decomposition sum left unprojected, and the
    # restriction matched without its spine order
    Mutant(
        "v5",
        "freeprod.py",
        "            return _clean(out)\n",
        "            return out\n",
        ("tests/test_freeprod.py::test_cancelling_images_leave_clean_vectors",),
    ),
    Mutant(
        "s3",
        "freeprod.py",
        "    direct = _project(fp, direct)\n",
        "    direct = _clean(direct)\n",
        (
            "tests/test_ffb.py::test_decomposition_sums_match_the_term_by_term_oracle"
            "[diag2]",
        ),
    ),
    Mutant(
        "x2",
        "diagrams.py",
        "if _restriction(d, i, side) in wanted]",
        "if _restriction(d, i, side)[0] in {s for s, _ in wanted}]",
        ("tests/test_diagrams.py::test_extensions_match_restrictions_by_spine_order",),
    ),
    # the sparse commutant check reading the acting side's own kernels
    Mutant(
        "k4",
        "freeprod.py",
        'kers = self.mod.right_kernels if side == "l" else self.mod.left_kernels',
        'kers = self.mod.left_kernels if side == "l" else self.mod.right_kernels',
        ("tests/test_freeprod.py::test_sparse_commutant_check_matches_the_dense_product",),
    ),
)


def _pytest(src: Path, tests) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]
    proc = subprocess.run(
        [*cmd, *tests],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode


def _copy_src(tmp: Path) -> Path:
    src = tmp / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def run(mutants) -> int:
    """Run the baseline, then each mutant; the exit status."""
    bad = 0
    union = list(dict.fromkeys(t for m in mutants for t in m.tests))
    with tempfile.TemporaryDirectory() as tmp:
        code = _pytest(_copy_src(Path(tmp)), union)
    if code != 0:
        print(f"baseline: the named tests fail on the unmutated source (pytest {code})")
        return 1
    for m in mutants:
        start = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            path = src / "bnc_engine" / m.file
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{m.id}: old text occurs {text.count(m.old)} times in {m.file}")
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            code = _pytest(src, m.tests)
        if code not in (0, 1):
            print(f"{m.id}: pytest could not run the named tests (exit {code})")
            bad += 1
            continue
        outcome = "survived" if code == 0 else "killed"
        expected = "survived" if m.survives else "killed"
        verdict = "ok" if outcome == expected else "UNEXPECTED"
        bad += outcome != expected
        note = f" ({m.survives})" if m.survives else ""
        secs = time.perf_counter() - start
        print(f"{m.id}: {outcome} in {secs:.1f} s, {verdict}{note}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(run(REGISTER))
