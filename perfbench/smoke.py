"""Tiny-size smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Run from the root of a checkout.  For every workload, runs one short
end-to-end and one short traced run and confirms that the result line
parses, that every metric BENCHMARK.json names for that mode is printed
with its unit, and that the run was correct.  Then confirms that the
benchmark exits non-zero without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile


def run(cmd: list[str], cwd: str = ".") -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=400)


def check_output(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "1",
        "--trace", str(trace),
    ]
    proc = run(cmd)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{workload}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: not correct: {lines[-12:]}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(result["metrics"]) != sorted(m["name"] for m in wanted):
        problems.append(f"{workload} trace={trace}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{workload} trace={trace}: {m['name']} printed as {got}")
        if not any(line.startswith(f"# {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines):
            problems.append(f"{workload} trace={trace}: no summary line for {m['name']}")
    return problems


def check_bare_directory(spec: dict) -> list[str]:
    os.makedirs(".bench_smoke", exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".bench_smoke") as bare:
        shutil.copy("BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(path, os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "0",
                                 "--seconds", "1", "--trace", "0"]
        proc = run(cmd, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems = check_bare_directory(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            problems += check_output(spec, w["name"], trace)
            print(f"{w['name']} trace={trace}: done", file=sys.stderr)
    for p in problems:
        print(p)
    print("smoke: OK" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
