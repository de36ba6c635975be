"""Benchmark entry point: one workload, end-to-end or traced metrics.

    python3 perfbench/run.py --workload cumulant-tables --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Every engine call happens in a fresh
child interpreter (perfbench/child.py), one at a time, with no threads
or pools.  With --trace 0, set-up-only children (two, or more while
their set-up totals under 3 s, at most four) and one timed child run;
set-up time is the median over all of them.  Times are reported at a
fixed reference speed: each op's latency is scaled by a calibration loop
run either side of it, because the host's speed drifts by up to 3x
within a minute.  Raw wall-clock figures are printed in the summary.
Throughput is ops over their summed latency.  With --trace 1, an
untraced child does the work of half the time, then a traced child
replays exactly the same ops; the ratio of their op times is the
tracing overhead.  The last stdout line is the JSON result; lines before
it are a human-readable summary (sample counts, failures, environment).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cumulant-tables", "ffb-audit", "ffb-verify", "amalgamated")
SETUP_REPS = (3, 5)  # set up at least 3 times, more while under SETUP_TOTAL_S
SETUP_TOTAL_S = 3.0
BUDGET_S = 175.0
TRACE_DIR = ".bench_trace"

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ok_ratio", "fraction"),
    ("peak_rss_mb", "MiB"),
)

SPAN_METRICS = (
    ("partitions.enumerate_bnc", ("calls", "self_s")),
    ("partitions.mobius", ("calls", "self_s")),
    ("cumulants.kappa_pi", ("calls", "self_s")),
    ("cumulants.moment_table", ("self_s",)),
    ("cumulants.audit_ffb_word", ("self_s",)),
    ("bimult.reduce_blocks", ("calls", "self_s")),
    ("algebra.expect_word", ("calls", "self_s")),
    ("freeprod.apply_chain", ("calls", "self_s")),
    ("freeprod.lr_decompose", ("calls", "self_s")),
    ("freeprod.build", ("calls", "self_s")),
    ("linalg.rowspace_add", ("calls", "self_s")),
    ("linalg.quotient", ("calls", "self_s")),
    ("diagrams.enumerate_lr", ("calls", "self_s")),
    ("diagrams.lateral_closure", ("calls", "self_s")),
    ("diagrams.chi_extensions", ("calls", "self_s")),
    ("ffb.checkers", ("self_s",)),
)
COUNT_METRICS = ("partitions.refines", "cumulants.e_pi", "ffb.expect_word")


class BenchError(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join("perfbench", "child.py"), *args],
            capture_output=True, text=True, env=env, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {' '.join(args)} exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment() -> dict:
    rev = "unknown (not a git checkout)"
    if os.path.isdir(".git"):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
            ).stdout.strip() or rev
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    src = os.path.join("src", "bnc_engine")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "git_rev": rev,
        "src_sha256": h.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def checks(children: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) over children that checked their ops:
    every op, tail op and negative control."""
    attempted = failed = 0
    notes = []
    for c in children:
        attempted += len(c["digests"]) + 1
        failed += c["failed"] + (0 if c["control_flagged"] else 1)
        for f in c["failures"]:
            notes.append(f"failed op: {json.dumps(f, default=str)[:300]}")
        if c["control_flagged"]:
            notes.append(f"negative control flagged: {json.dumps(c['control_witness'])[:200]}")
        else:
            notes.append("negative control NOT flagged")
        notes.append(
            f"golden digests: {c['golden_hits']} matched, {c['golden_misses']} mismatched, "
            f"{len(c['digests']) - c['golden_hits'] - c['golden_misses']} ops without a "
            f"stored digest"
        )
        if c["tail_s"]:
            notes.append("tail ops (outside latency statistics): " + ", ".join(
                f"{t:.3f} s" for t in c["tail_s"]))
    return attempted, failed, notes


def end_to_end(args, deadline) -> tuple[dict, int, int, list[str]]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    while len(setups) < SETUP_REPS[1] - 1 and (
        len(setups) < SETUP_REPS[0] - 1 or sum(s["setup_s"] for s in setups) < SETUP_TOTAL_S
    ):
        setups.append(run_child(base + ["--mode", "setup"], deadline))
    timed = run_child(
        base + ["--mode", "timed", "--seconds", str(args.seconds)],
        deadline,
    )
    raw_ms = [x * 1000.0 for x in timed["latencies_s"]]
    lat_ms = [x * k for x, k in zip(raw_ms, timed["scales"])]
    attempted, failed, notes = checks([timed])
    n = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    values = {
        "setup_s": statistics.median(s["setup_scaled_s"] for s in setups + [timed]),
        "throughput_ops_s": n / (sum(lat_ms) / 1000.0),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    beyond = sum(1 for x in lat_ms if x > p90)
    notes.insert(0, f"{n} ops in {timed['wall_s']:.2f} s, {timed['rounds']} rounds; "
                    f"{beyond} samples beyond p90")
    notes.insert(1, f"failed_ratio = {failed}/{attempted}")
    notes.insert(2, "speed scale (reference / measured): median {:.3f}, range {:.3f}-{:.3f}"
                 .format(statistics.median(timed["scales"]), min(timed["scales"]),
                         max(timed["scales"])))
    notes.insert(3, "raw wall clock: setup_s {:.4f}, throughput_ops_s {:.4f}, op_p50_ms {:.3f}, "
                    "op_p90_ms {:.3f}".format(
                        statistics.median(s["setup_s"] for s in setups + [timed]),
                        n / (sum(raw_ms) / 1000.0), statistics.median(raw_ms),
                        statistics.quantiles(raw_ms, n=10)[8]))
    notes.insert(4, "setup_s samples at reference speed: " + ", ".join(
        f"{s['setup_scaled_s']:.4f}" for s in setups + [timed]))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, attempted, failed, notes


def scaled_op_time(child: dict) -> float:
    """Seconds the child's ops took, tail included, at the reference speed."""
    pairs = zip(child["latencies_s"] + child["tail_s"], child["scales"] + child["tail_scales"])
    return sum(x * k for x, k in pairs)


def per_layer(args, deadline) -> tuple[dict, int, int, list[str]]:
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    plain = run_child(
        base + ["--mode", "timed", "--seconds", str(args.seconds / 2), "--digests-only"],
        deadline,
    )
    out_path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.tsv.gz")
    traced = run_child(
        base + ["--mode", "traced", "--ops", str(plain["ops"]), "--trace-out", out_path],
        deadline,
    )
    if traced["ops"] != plain["ops"]:
        raise BenchError("traced replay ran a different number of ops")
    # the untraced run's results must equal the checked results of the replay
    mismatched = sum(1 for a, b in zip(plain["digests"], traced["digests"]) if a != b)
    tr = traced["trace"]
    spans = tr["spans"]
    metrics: dict[str, dict] = {}
    for name, fields in SPAN_METRICS:
        calls, self_s = spans.get(name, (0, 0.0))
        if "calls" in fields:
            metrics[f"{name}.calls"] = {"value": calls, "unit": "count"}
        if "self_s" in fields:
            metrics[f"{name}.self_s"] = {"value": self_s, "unit": "s"}
    for name in COUNT_METRICS:
        metrics[f"{name}.calls"] = {"value": tr["counts"][name], "unit": "count"}
    metrics["freeprod.moment_cache.hit_ratio"] = {
        "value": tr["moment_cache_hit_ratio"], "unit": "fraction"}
    metrics["freeprod.word_dims_total"] = {"value": tr["word_dims_total"], "unit": "count"}
    metrics["linalg.rowspace_add.useful_ratio"] = {
        "value": tr["rowspace_useful_ratio"], "unit": "fraction"}
    traced_wall, plain_wall = scaled_op_time(traced), scaled_op_time(plain)
    metrics["trace.overhead_ratio"] = {"value": traced_wall / plain_wall - 1.0, "unit": "ratio"}

    attempted, failed, notes = checks([traced])
    attempted += len(plain["digests"])
    failed += mismatched
    notes.append(f"untraced results equal to the checked replay: "
                 f"{len(plain['digests']) - mismatched} of {len(plain['digests'])}")
    layer_self = {k: v[1] for k, v in spans.items() if k != "bench.op"}
    by_module: dict[str, float] = {}
    for k, v in layer_self.items():
        mod = k.split(".")[0]
        by_module[mod] = by_module.get(mod, 0.0) + v
    top = max(layer_self, key=layer_self.get)
    notes.insert(0, f"{len(plain['digests'])} ops replayed; op time at reference speed: "
                    f"untraced {plain_wall:.2f} s, traced {traced_wall:.2f} s")
    notes.insert(1, f"largest self time: {top} {layer_self[top]:.3f} s")
    notes.insert(2, "self time by module: " + ", ".join(
        f"{m} {s:.3f} s" for m, s in sorted(by_module.items(), key=lambda kv: -kv[1])))
    notes.insert(3, f"bench.op self time (outside traced layers): "
                    f"{spans.get('bench.op', (0, 0.0))[1]:.3f} s; spans written to {out_path}")
    if tr["missing"]:
        notes.append("not found, reported as zero: " + ", ".join(tr["missing"]))
    return metrics, attempted, failed, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if "BNC_ENGINE_CAP" in os.environ:
        print("refusing to run: BNC_ENGINE_CAP is set and would change the lattices measured",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join("src", "bnc_engine", "__init__.py")):
        print("no engine source at src/bnc_engine; run from the root of a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        measure = per_layer if args.trace else end_to_end
        metrics, attempted, failed, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("# env: " + json.dumps(environment()))
    for line in notes:
        print(f"# {line}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
