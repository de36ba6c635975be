#!/usr/bin/env python3
"""Same-process A/B timing of two source trees on benchmark ops.

    python3 scripts/ab.py --a PARENT_TREE --b . --workload ffb-verify \\
        [--kind verify_system_gives_ffb@3 ...] [--rounds 12] [--seed 0]

Each tree is a checkout root holding src/bnc_engine and perfbench.  The
script imports each tree's bnc_engine with that tree's perfbench
workloads (read, never written) as a separate set of modules in this one
interpreter: tree A twice, as A and A', and tree B once.  The three sets
then take turns, in an order rotated each round, at one round of the
workload's ops, optionally only the ops of the named kinds (the `kind`
perfbench gives each op, e.g. `check_ffb_system@2`, `build@144`, `n5`).
Every round starts from a fresh ops() schedule, so each round runs the
same ops and ffb-audit builds its moment contexts afresh.  One untimed
round per set runs first, after the workload's warm-up ops.

The host's speed drifts within a run; side by side in one process, the
sets see the same drift.  For each round the script takes B's time over
A's, and A''s over A's as the control, and prints the median of each
ratio with the rounds in which the numerator was faster ("wins").  A
control far from 1 means the host was too noisy to tell.  Per kind it
prints the median B/A ratio of the kind's summed op time.  Each op's
result digest is compared between the sets (outside the timing), and
any difference is counted and makes the exit status 1.  Stdlib only.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

OWN = ("bnc_engine", "workloads", "reference")


def _owned(name: str) -> bool:
    return any(name == m or name.startswith(m + ".") for m in OWN)


def load_workloads(tree: Path):
    """The workloads module of tree, importing tree's bnc_engine, then
    dropped from sys.modules so the next tree imports its own."""
    saved = {n: m for n, m in sys.modules.items() if _owned(n)}
    for n in saved:
        del sys.modules[n]
    paths = [str(tree / "src"), str(tree / "perfbench")]
    sys.path[:0] = paths
    try:
        import workloads  # noqa: PLC0415 (imported per tree on purpose)
    finally:
        del sys.path[: len(paths)]
        for n in [n for n in sys.modules if _owned(n)]:
            del sys.modules[n]
        sys.modules.update(saved)
    return workloads


def one_round(wl, kinds) -> list:
    """The ops of the first round of a fresh schedule, those of the given
    kinds only when kinds is not empty."""
    ops = []
    for op in wl.ops():
        if not kinds or op.kind in kinds:
            ops.append(op)
        if op.boundary:
            return ops
    return ops


def run_round(wl, kinds, digests: dict | None):
    """{kind: summed seconds} over one round; each op's digest goes into
    digests by op position when it is given."""
    times: dict[str, float] = {}
    for i, op in enumerate(one_round(wl, kinds)):
        t = time.perf_counter()
        result = op.run()
        seconds = time.perf_counter() - t
        times[op.kind] = times.get(op.kind, 0.0) + seconds
        if digests is not None:
            digests[i] = (op.key, op.digest(op.reduce(result)))
    return times


def _wins(ratios) -> int:
    return sum(r < 1 for r in ratios)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", type=Path, required=True, help="baseline tree")
    ap.add_argument("--b", type=Path, required=True, help="changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--kind", action="append", default=[], help="op kind to keep")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    kinds = set(args.kind)
    names = ("A", "A'", "B")
    trees = (args.a, args.a, args.b)
    sets = {}
    for name, tree in zip(names, trees):
        mod = load_workloads(tree.resolve())
        if args.workload not in mod.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}")
        wl = mod.WORKLOADS[args.workload](args.seed)
        for op in wl.warm_ops():
            op.run()
        sets[name] = wl
    digests = {name: {} for name in names}
    for name in names:
        run_round(sets[name], kinds, digests[name])
    if not digests["A"]:
        print(f"no op of kind {sorted(kinds)} in a round of {args.workload}")
        return 1
    differ = sum(digests[name] != digests["A"] for name in names[1:])

    per_round = []  # per round: {name: {kind: seconds}}
    for r in range(args.rounds):
        order = names[r % 3 :] + names[: r % 3]
        times = {}
        for name in order:
            gc.collect()
            times[name] = run_round(sets[name], kinds, None)
        per_round.append(times)

    def total(times, name):
        return sum(times[name].values())

    ba = [total(t, "B") / total(t, "A") for t in per_round]
    aa = [total(t, "A'") / total(t, "A") for t in per_round]
    n = len(per_round)
    print(f"workload {args.workload}, seed {args.seed}, {n} rounds, "
          f"{len(digests['A'])} ops a round")
    print(f"B/A  median {statistics.median(ba):.3f}, B faster in {_wins(ba)}/{n}, "
          f"range {min(ba):.3f}-{max(ba):.3f}")
    print(f"A'/A median {statistics.median(aa):.3f}, A' faster in {_wins(aa)}/{n}, "
          f"range {min(aa):.3f}-{max(aa):.3f}  (control)")
    for kind in sorted(per_round[0]["A"]):
        ratios = [t["B"][kind] / t["A"][kind] for t in per_round]
        a_ms = statistics.median(t["A"][kind] for t in per_round) * 1e3
        print(f"  {kind:<36} A {a_ms:9.2f} ms  B/A {statistics.median(ratios):.3f}"
              f"  B faster in {_wins(ratios)}/{n}")
    if differ:
        print(f"result digests differ from A's in {differ} set(s)")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
