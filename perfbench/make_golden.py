"""Regenerate perfbench/golden.json: digests of exact results for seed 0.

    python3 perfbench/make_golden.py

Run from the root of a checkout, on a commit whose results are trusted.
Every op is verified by its independent exact route before its digest
is stored.  Fixture ops (the ffb-audit sweep words, the ffb-verify
fixture families, the amalgamated builds) have seed-free keys, so their
digests are checked on every seed; seeded inputs only on seed 0.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import workloads  # noqa: E402

SEED = 0
# cumulant-tables draws new inputs every round, so store more rounds than
# a run reaches; the other schedules repeat one round of fixed inputs
COUNTS = {"cumulant-tables": 400, "ffb-verify": 20, "amalgamated": 20}


def digests_of(ops) -> dict[str, str]:
    out = {}
    for op in ops:
        data = op.reduce(op.run())
        witness = op.verify(data)
        if witness is not None:
            raise SystemExit(f"{op.key} failed its exact check: {witness}")
        out[op.key] = op.digest(data)
    return out


def main() -> int:
    golden = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(SEED)
        if name == "ffb-audit":
            contexts = {
                k: workloads.freeprod.FreeMomentContext(s.fp) for k, s in wl.systems.items()
            }
            ops = [wl.make_op(w, contexts) for w in wl.words]
        else:
            ops = list(islice(wl.ops(), COUNTS[name])) + wl.tail_ops()
        golden[name] = digests_of(ops)
        print(f"{name}: {len(golden[name])} digests", file=sys.stderr)
    with open(workloads.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
