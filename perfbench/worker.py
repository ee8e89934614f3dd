"""The workload process of the s3pinch benchmark.

Started by run.py, one at a time. It imports s3pinch from the checkout, sets
up its workload (surfaces plus one untimed warm-up certificate per distinct
input) and prints a READY line. With --phase run it then runs whole rounds of
certificates for about --seconds, checks every output against the oracle and
prints one RESULT line. With --trace 1 every round runs each input twice,
plain and traced, and the per-layer metrics come from the traced copies.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
COLD_TIMEOUT = 120


def emit(tag: str, doc: dict) -> None:
    print(tag, json.dumps(doc), flush=True)


def run_cli(cli, argv, tracer=None):
    """One in-process certificate: seconds from argv in to JSON bytes out."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        if tracer is None:
            rc = cli.main(list(argv))
        else:
            with tracer.installed(), tracer.span("cli.main"):
                rc = cli.main(list(argv))
    out = buf.getvalue().encode()
    return time.perf_counter() - t0, rc, out


class Workload:
    def __init__(self, inputs, cli, gridio, surfaces, cold: bool):
        self.inputs = inputs
        self.cli = cli
        self.gridio = gridio
        self.surfaces = surfaces   # grid-import: catalog surface per input
        self.cold = cold

    def certify(self, i: int, tracer=None):
        """(seconds, exit code, stdout bytes) of one certificate for input i."""
        inp = self.inputs[i]
        if self.cold:
            return self._cold(inp, tracer)
        if inp.grid_path is None:
            return run_cli(self.cli, inp.argv, tracer)
        # grid-import: write the grid, then certify the file just written.
        n = inp.resolution
        t0 = time.perf_counter()
        if tracer is None:
            self.gridio.export_grid(self.surfaces[i], n, n, inp.grid_path)
        else:
            from tracing import SurfaceProxy
            with tracer.installed():
                self.gridio.export_grid(SurfaceProxy(self.surfaces[i], tracer), n, n, inp.grid_path)
        _, rc, out = run_cli(self.cli, inp.argv, tracer)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.count("gridio.export_bytes", os.path.getsize(inp.grid_path))
        return seconds, rc, out

    def _cold(self, inp, tracer):
        """A fresh `python -m s3pinch.cli` process, or its traced twin."""
        if tracer is None:
            cmd = [sys.executable, "-m", "s3pinch.cli", *inp.argv]
        else:
            spans = OUT / f"spans-{os.getpid()}.json"
            cmd = [sys.executable, str(HERE / "tracecli.py"), str(spans), *inp.argv]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=COLD_TIMEOUT)
        seconds = time.perf_counter() - t0
        if tracer is not None:
            tracer.merge(json.loads(spans.read_text()), tracer.cert)
            spans.unlink()
        return seconds, proc.returncode, proc.stdout


def timed_rounds(rounds, seconds: float, min_records: int = 1):
    """Run whole rounds; start another only if it should end within `seconds`
    or fewer than `min_records` certificates have run.

    Whole rounds keep the mix of inputs the same in every run, so medians do
    not depend on where the clock stopped.
    """
    records = []
    start = time.perf_counter()
    for units in rounds:
        t0 = time.perf_counter()
        records.extend(unit() for unit in units)
        now = time.perf_counter()
        if (now - start) + (now - t0) > seconds and len(records) >= min_records:
            break
    return records, time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("setup", "run"), default="run")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    import s3pinch
    import_s = time.perf_counter() - t0
    src = (ROOT / "src" / "s3pinch").resolve()
    if Path(s3pinch.__file__).resolve().parent != src:
        print(f"error: imported {s3pinch.__file__}, not the checkout's {src}", file=sys.stderr)
        return 3
    import numpy
    import sympy
    from s3pinch import catalog, cli, gridio

    import oracle
    import workloads

    OUT.mkdir(exist_ok=True)
    inputs = workloads.make_inputs(args.workload, args.seed, OUT, args.tiny)
    wl = Workload(inputs, cli, gridio, [
        catalog.parse_surface(workloads.spec_of(inp.kind, inp.params))
        if inp.grid_path else None for inp in inputs], cold=args.workload == "cold-psphere")
    reference: dict[int, bytes] = {}
    warm_rc: dict[int, int] = {}
    if wl.cold:
        catalog.parse_surface(workloads.setup_spec(args.workload, args.seed))
    else:
        for i in range(len(inputs)):
            _, warm_rc[i], reference[i] = wl.certify(i)
    emit("READY", {"import_s": import_s, "s3pinch_file": s3pinch.__file__,
                   "numpy": numpy.__version__, "sympy": sympy.__version__})
    if args.phase == "setup":
        return 0

    tracer = None
    cert_ids = itertools.count()

    def unit(i, traced):
        def run():
            cert = next(cert_ids)
            if traced:
                tracer.cert = cert
            seconds, rc, out = wl.certify(i, tracer if traced else None)
            return {"input": i, "traced": traced, "cert": cert,
                    "seconds": seconds, "rc": rc, "out": out}
        return run

    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        rounds = ([unit(i, False), unit(i, True)] for i in itertools.cycle(range(len(inputs))))
    else:
        rounds = itertools.repeat([unit(i, False) for i in range(len(inputs))])
    records, elapsed = timed_rounds(rounds, args.seconds,
                                    0 if args.tiny else workloads.MIN_CERTS.get(args.workload, 1))

    # Oracle: every output must match the warm-up bytes of the same argv (the
    # first occurrence, for cold runs) and the independent checks.
    failures, verdicts = [], {}

    def judge(i, rc, out) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        ref = reference.setdefault(i, out)
        if out != ref:
            return ["output bytes differ from an earlier run of the same argv"]
        if out not in verdicts:
            try:
                verdicts[out] = oracle.check(json.loads(out), inputs[i])
            except (ValueError, KeyError, TypeError) as exc:
                verdicts[out] = [f"malformed certificate: {exc!r}"]
        return verdicts[out]

    for i, out in list(reference.items()):
        failures += [f"warm-up {inputs[i].argv}: {m}" for m in judge(i, warm_rc[i], out)]
    setup_ok = not failures
    failed = 0
    for rec in records:
        miss = judge(rec["input"], rec["rc"], rec["out"])
        failed += bool(miss)
        failures += [f"{inputs[rec['input']].argv}: {m}" for m in miss]
    # The oracle must catch errors planted in a certificate it passed.
    good = [i for i, out in sorted(reference.items()) if verdicts.get(out) == []]
    unsound = (oracle.self_check(json.loads(reference[good[0]]), inputs[good[0]])
               if good else ["no passing certificate to plant errors in"])

    rusage = resource.RUSAGE_CHILDREN if wl.cold else resource.RUSAGE_SELF
    plain = [r["seconds"] for r in records if not r["traced"]]
    result = {
        "attempted": len(records), "failed": failed, "setup_ok": setup_ok,
        "failures": failures[:10], "oracle_unsound": unsound,
        "seconds": plain, "elapsed": elapsed,
        "input_p50_s": [statistics.median([r["seconds"] for r in records
                                           if r["input"] == i and not r["traced"]] or [0.0])
                        for i in range(len(inputs))],
        "peak_rss_mb": resource.getrusage(rusage).ru_maxrss / 1024.0,
        "inputs": [" ".join(inp.argv) for inp in inputs],
        "cert_sha256": {" ".join(inputs[i].argv): hashlib.sha256(b).hexdigest()
                        for i, b in sorted(reference.items())},
    }
    if tracer is not None:
        import tracing
        traced = [r for r in records if r["traced"]]
        layers = tracing.layer_medians(tracer, [r["cert"] for r in traced])
        layers["trace.overhead_s"] = (statistics.median(r["seconds"] for r in traced)
                                      - statistics.median(plain))
        surface = wl.surfaces[0] or catalog.parse_surface(
            workloads.spec_of(inputs[0].kind, inputs[0].params))
        layers.update(tracing.kernels(surface, inputs[0].resolution, inputs[0].samples, args.seed))
        result["layers"] = layers
        path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({**tracer.to_json(), "per_cert": tracing.per_cert(tracer)}))
        result["trace_file"] = str(path.relative_to(ROOT))
    emit("RESULT", result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
