"""Run one workload of the s3pinch benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file. The
workload processes run strictly one at a time: SETUP_RUNS - 1 set-up probes,
then the measured process. `setup_s` is the median of their times from
process start to ready. The second-to-last stdout line is a JSON document
with provenance, sample counts and any oracle failures; the last line is the
result: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end_to_end list, with --trace 1 its per_layer
list. Exit code 0 with a result, non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 3
PROCESS_TIMEOUT = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class WorkloadError(RuntimeError):
    pass


def spawn(args, phase: str, env: dict) -> tuple[float, dict, dict | None]:
    """Start one workload process and wait for it to end.

    Returns (seconds from start to READY, the READY document, the RESULT
    document or None).
    """
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--phase", phase] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(PROCESS_TIMEOUT, proc.kill)
    watchdog.start()
    ready_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            tag, _, body = line.partition(" ")
            if tag == "READY":
                ready_s = time.perf_counter() - t0
                ready = json.loads(body)
            elif tag == "RESULT":
                result = json.loads(body)
    finally:
        proc.stdout.close()
        proc.wait()
        watchdog.cancel()
    if proc.returncode != 0 or ready is None or (phase == "run" and result is None):
        raise WorkloadError(f"workload process exited with code {proc.returncode}")
    return ready_s, ready, result


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with at least 10
    certificates beyond it, or the maximum when that would not lie above
    the median (fewer than 21 certificates)."""
    s = sorted(times)
    n = len(s)
    if n < 21:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"commit": None, "dirty": None}

    def git(*a):
        return subprocess.run(["git", "--no-optional-locks", "-C", str(ROOT), *a],
                              capture_output=True, text=True, check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="16x16 grids and 1000 samples, for the harness self-test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "s3pinch" / "__init__.py").is_file():
        print(f"error: no s3pinch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload '{args.workload}', expected one of {names}", file=sys.stderr)
        return 2

    # Measure the checkout: its src goes first on every process's path.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    # Users pay byte-compilation once per install, not per command.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    try:
        probes = [spawn(args, "setup", env) for _ in range(SETUP_RUNS - 1)]
        ready_s, ready, res = spawn(args, "run", env)
    except WorkloadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = [p[0] for p in probes] + [ready_s]
    import_samples = [p[1]["import_s"] for p in probes] + [ready["import_s"]]

    times = res["seconds"]
    tail_pct, tail_s = tail(times)
    if args.trace:
        values = dict(res["layers"], **{"cli.import_s": statistics.median(import_samples)})
        wanted = bench["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_samples),
            "cert_s.p50": statistics.median(times),
            "cert_s.tail": tail_s,
            "certs_per_s": len(times) / res["elapsed"],
            "peak_rss_mb": res["peak_rss_mb"],
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "certificates": len(times), "tail_percentile": tail_pct,
        "input_p50_s": res["input_p50_s"],
        "setup_samples_s": setup_samples, "import_samples_s": import_samples,
        "fail_ratio": {"failed": res["failed"], "attempted": res["attempted"],
                       "ratio": res["failed"] / res["attempted"]},
        "failures": res["failures"], "oracle_unsound": res["oracle_unsound"],
        "inputs": res["inputs"], "cert_sha256": res["cert_sha256"], "trace_file": res.get("trace_file"),
        "provenance": {
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(), "python": platform.python_version(),
            "numpy": ready["numpy"], "sympy": ready["sympy"],
            "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
            "s3pinch_file": ready["s3pinch_file"], **git_state(),
        },
    }
    correct = res["failed"] == 0 and res["setup_ok"] and not res["oracle_unsound"]
    print(json.dumps(details))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
