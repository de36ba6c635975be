"""One workload in one fresh interpreter; prints a JSON result line.

Modes:
  setup   import, fixtures and warm-up only (reports setup_s)
  timed   then a closed loop, one caller, over whole rounds: --seconds
          divided by the workload's nominal round time, and at least
          MIN_OPS ops.  The work is fixed by the arguments, not by the
          machine's speed, so op mix, caches and memory repeat exactly.
  traced  then exactly --ops ops of the same schedule under the tracer

Tail ops (the workload's once-per-run heavy ops) follow the loop; they
are checked and counted but kept out of the latency statistics.  Every
op's result is checked after the timed phase, outside its clock; with
--digests-only the results are only hashed, for a parent to compare with
a run of the same ops that did check them.

Every timing comes with a speed scale: CAL_REF_S over the mean time of
the calibration loop (see calibrate) run just before and just after it,
so that the parent can report times at a fixed reference speed as well
as raw.  The loop runs between ops, at most every CAL_EVERY_S.
Run from the root of a checkout: ``python3 perfbench/child.py ...``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

HARD_STOP_FACTOR = 4.0  # a much slower engine still ends well inside 180 s
MIN_OPS = 100  # leaves ten samples beyond p90
CAL_REF_S = 0.010  # the calibration loop's time at the reference speed
CAL_EVERY_S = 0.25  # recalibrate between ops once this much time has passed


def calibrate() -> float:
    """Seconds for a fixed loop of exact-rational sums into a dict.

    The engine spends its time on the same kind of work (Fraction
    arithmetic, dict and tuple traffic, all in the interpreter), so its
    speed follows this loop's when the host slows down or speeds up.
    """
    gc.disable()  # a collection would scan the engine's caches, not time the host
    try:
        t = time.perf_counter()
        acc: dict[int, Fraction] = {}
        x = Fraction(1, 3)
        for i in range(2800):
            acc[i % 97] = acc.get(i % 97, Fraction(0)) + x * (i % 7)
        return time.perf_counter() - t
    finally:
        gc.enable()


def op_scales(samples: list[tuple[int, float]], n: int) -> list[float]:
    """Speed scale of each of n ops from calibration samples (p, seconds),
    where p is the index of the op the sample was taken before (n: after
    the last): CAL_REF_S over the mean of the samples either side."""
    out = []
    k = 0
    for i in range(n):
        while k + 1 < len(samples) and samples[k + 1][0] <= i:
            k += 1
        after = next(c for p, c in samples[k + 1 :] if p > i)
        out.append(2 * CAL_REF_S / (samples[k][1] + after))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace-out", default="")
    ap.add_argument("--digests-only", action="store_true")
    args = ap.parse_args()

    # set-up in segments (import and fixtures, then each warm-up op), each
    # scaled by the calibrations either side of it
    cal = calibrate()
    t = time.perf_counter()
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    segments = []
    for op in [None] + wl.warm_ops():
        if op is not None:
            t = time.perf_counter()
            op.run()
        seconds = time.perf_counter() - t
        before, cal = cal, calibrate()
        segments.append((seconds, 2 * CAL_REF_S / (before + cal)))
    out = {
        "setup_s": sum(x for x, _ in segments),
        "setup_scaled_s": sum(x * k for x, k in segments),
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()

    latencies, records, rounds = [], [], 0
    samples = [(0, cal)]
    stop_at = args.ops if args.mode == "traced" else None
    target_rounds = max(1, round(args.seconds / wl.ROUND_S))
    start = cal_at = time.perf_counter()
    for op in wl.ops():
        if time.perf_counter() - cal_at >= CAL_EVERY_S:
            samples.append((len(latencies), calibrate()))
            cal_at = time.perf_counter()
        seconds, data, error = run_op(op, tracer)
        latencies.append(seconds)
        records.append((op, data, error))
        rounds += op.boundary
        if stop_at is not None:
            if len(records) >= stop_at:
                break
        elif op.boundary and rounds >= target_rounds and len(records) >= MIN_OPS:
            break
        elif time.perf_counter() - start >= HARD_STOP_FACTOR * max(args.seconds, 15.0):
            break
    wall = time.perf_counter() - start
    samples.append((len(latencies), calibrate()))
    scales = op_scales(samples, len(latencies))
    tail_s, tail_samples = [], [samples[-1]]
    for op in wl.tail_ops():
        seconds, data, error = run_op(op, tracer)
        tail_s.append(seconds)
        records.append((op, data, error))
        tail_samples.append((len(tail_s), calibrate()))
    tail_scales = op_scales(tail_samples, len(tail_s)) if tail_s else []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        tracer.uninstall()

    failures = []
    golden_hits = golden_misses = 0
    seen: dict[str, str] = {}
    digests = []
    for i, (op, data, error) in enumerate(records):
        if error is not None:
            failures.append({"op": i, "kind": op.kind, "error": error})
            digests.append(None)
            continue
        dig = op.digest(data)
        digests.append(dig)
        if args.digests_only:
            witness = None
        elif op.key in seen:
            # a repeated op must reproduce the result already checked
            witness = None if seen[op.key] == dig else {"stage": "repeat-differs"}
        else:
            witness = op.verify(data)
            seen[op.key] = dig
        gold = wl.golden.get(op.key)
        if gold is not None:
            if gold == dig:
                golden_hits += 1
            else:
                golden_misses += 1
                witness = witness or {"stage": "golden-digest", "got": dig, "want": gold}
        if witness is not None:
            failures.append({"op": i, "kind": op.kind, "key": op.key, "witness": witness})

    control = None if args.digests_only else wl.negative_control()
    out.update(
        ops=len(latencies),
        wall_s=wall,
        tail_s=tail_s,
        tail_scales=tail_scales,
        latencies_s=latencies,
        scales=scales,
        rounds=rounds,
        peak_rss_mb=peak_rss_mb,
        failed=len(failures),
        failures=failures[:5],
        control_flagged=control is not None,
        control_witness=control,
        golden_hits=golden_hits,
        golden_misses=golden_misses,
    )
    out["digests"] = digests
    if tracer:
        out["trace"] = summarize(tracer)
        if args.trace_out:
            os.makedirs(os.path.dirname(args.trace_out) or ".", exist_ok=True)
            tracer.write(args.trace_out)
    print(json.dumps(out, default=str))
    return 0


def run_op(op, tracer):
    """(seconds to the engine's verdict, reduced result, error text)."""
    t = time.perf_counter()
    try:
        result = tracer.op(op.run) if tracer else op.run()
        seconds = time.perf_counter() - t
        return seconds, op.reduce(result), None
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - t, None, f"{type(exc).__name__}: {exc}"


def summarize(tracer) -> dict:
    selfs = tracer.self_times()
    adds = selfs.get("linalg.rowspace_add", (0, 0.0))[0]
    return {
        "spans": {k: list(v) for k, v in selfs.items()},
        "counts": {
            k: tracer.count(k) for k in ("partitions.refines", "cumulants.e_pi", "ffb.expect_word")
        },
        "moment_cache_hit_ratio": tracer.cache_hit_ratio(),
        "rowspace_useful_ratio": tracer.rowspace_useful / adds if adds else 0.0,
        "word_dims_total": tracer.word_dims_total,
        "missing": tracer.missing,
    }


if __name__ == "__main__":
    sys.exit(main())
