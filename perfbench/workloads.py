"""Workload inputs for the s3pinch benchmark.

Every input is drawn from the benchmark seed with Python's own generator, so
the same seed gives the same surfaces, CLI arguments and Monte-Carlo seeds.
Parameters come from fixed ranges chosen so that the cost of one certificate
does not depend on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

CLIFFORD_A = 1.0 / math.sqrt(2.0)

# One spherical-harmonic mode per degree l <= 6. The set is fixed so that
# every seed pays the same mix of cold sympy derivations (their cost differs
# by up to 2x between modes); the seed draws their order, radius and amplitude.
PSPHERE_MODES = ((0, 0), (1, 1), (2, -1), (3, 2), (4, -3), (5, 0), (6, 4))
# The cold set-up probe constructs this mid-cost mode.
SETUP_MODE = (3, 2)

# (resolution, Monte-Carlo samples) per workload, and at self-test size.
SIZES = {
    "grid-hot": (256, 100_000),
    "mc-heavy": (64, 2_000_000),
    "cold-psphere": (64, 100_000),
    "grid-import": (256, 100_000),
}
TINY = (16, 1_000)
# The warm in-process workloads run at least this many certificates, so their
# cert_s.tail is always a percentile with 10 certificates beyond it rather
# than the maximum; the others never reach it within a run.
MIN_CERTS = {"grid-hot": 21, "mc-heavy": 21}


@dataclass(frozen=True)
class Input:
    """One certificate the benchmark asks for, with what the oracle needs."""

    kind: str              # "torus", "sphere" or "psphere"
    params: tuple          # (a,), (r,) or (r, eps, l, m)
    argv: tuple            # s3pinch CLI arguments
    resolution: int
    samples: int
    grid_path: str | None = None  # grid-import: file written, then imported


def spec_of(kind: str, params: tuple) -> str:
    """Catalog spec string of a surface, as the CLI parses it."""
    if kind == "torus":
        return f"torus:a={params[0]!r}"
    if kind == "sphere":
        return f"sphere:r={params[0]!r}"
    r, eps, l, m = params
    return f"psphere:r={r!r},eps={eps!r},l={l},m={m}"


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _psphere(rng: random.Random, mode) -> tuple:
    eps = _draw(rng, 0.05, 0.12) * rng.choice((-1, 1))
    return (_draw(rng, 0.9, 1.5), eps, *mode)


def make_inputs(workload: str, seed: int, out_dir: Path, tiny: bool = False) -> list[Input]:
    """The inputs of one run, in the order a round visits them."""
    rng = random.Random(f"{workload}:{seed}")
    res, samples = TINY if tiny else SIZES[workload]
    if tiny and workload == "cold-psphere":
        res = 32  # an l=6 mode has no admissible Euler characteristic at 16x16
    flags = ("--resolution", str(res), "--samples", str(samples),
             "--seed", str(rng.randrange(1, 2 ** 31)))

    def cert(kind, params, grid_path=None):
        tail = ("import", grid_path) if grid_path else ("check", spec_of(kind, params))
        return Input(kind, params, flags + tail, res, samples, grid_path)

    if workload in ("grid-hot", "mc-heavy"):
        return [
            cert("torus", (CLIFFORD_A,)),
            cert("torus", (_draw(rng, 0.40, 0.65),)),
            cert("sphere", (_draw(rng, 0.5, 1.2),)),
            cert("sphere", (_draw(rng, 1.9, 2.6),)),
        ]
    if workload == "cold-psphere":
        modes = list(PSPHERE_MODES)
        rng.shuffle(modes)
        return [cert("psphere", _psphere(rng, mode)) for mode in modes]
    if workload == "grid-import":
        return [
            cert("torus", (_draw(rng, 0.40, 0.65),), grid_path=str(out_dir / "grid-torus.csv")),
            cert("sphere", (_draw(rng, 0.5, 2.6),), grid_path=str(out_dir / "grid-sphere.csv")),
        ]
    raise ValueError(f"unknown workload '{workload}'")


def setup_spec(workload: str, seed: int) -> str:
    """Surface a cold-psphere set-up probe constructs."""
    rng = random.Random(f"{workload}:{seed}:setup")
    return spec_of("psphere", _psphere(rng, SETUP_MODE))
