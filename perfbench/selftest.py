"""Self-test of the benchmark harness at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced at 16x16 grids (32x32 for
cold-psphere) and 1000 Monte-Carlo samples. It asserts that each run passes
the oracle, emits every metric BENCHMARK.json names with its unit, and that
the traced and untraced runs print the same certificate bytes. Last, it
asserts that run.py fails without a result in a directory that holds only
BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expect = {0: bench["end_to_end"], 1: bench["per_layer"]}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        hashes = {}
        for trace in (0, 1):
            proc = run(workload, trace)
            where = f"{workload} --trace {trace}"
            before = len(problems)
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            *_, details, result = proc.stdout.splitlines()
            details, result = json.loads(details), json.loads(result)
            if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
                problems.append(f"{where}: not correct: {details['failures']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in expect[trace]}
            if got != want:
                problems.append(f"{where}: metrics {sorted(set(got.items()) ^ set(want.items()))} "
                                "differ from BENCHMARK.json")
            hashes[trace] = details["cert_sha256"]
            if len(problems) == before:
                print(f"ok {where}: {details['certificates']} certificates", flush=True)
        if len(hashes) == 2:
            common = hashes[0].keys() & hashes[1].keys()
            if not common or any(hashes[0][k] != hashes[1][k] for k in common):
                problems.append(f"{workload}: traced and untraced certificate bytes differ")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append("run.py succeeded or printed a result without the s3pinch sources")
    shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
