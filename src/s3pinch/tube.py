"""Heintze-Karcher tube volumes and the full genus-bound inequality chain.

Side 1 of a surface is the region its frame normal points into; side 2 uses
the reversed normal, whose principal curvatures are (-k2, -k1).  The per-side
volume upper bound is the closed-form time integral of the tube Jacobian up to
the focal time acot(k2), summed over the grid's nodes in `quadrature.node_sums`.

Monte-Carlo side volumes are integer counts over tiles, each drawn from a stream that is a pure
function of (seed, tile), so no scheduling changes them: given a second CPU, a check draws them
on a worker thread while the node field is reduced.  A node-field error is the one raised; it
stops the draw at once.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass

import numpy as np

from .catalog import Surface, sample_s3
from .errors import DomainError
from .pinch import FOUR_PI_SQ, S3_VOLUME, at_most
from .quadrature import GenusReport, QuadratureGrid, genus_report, node_sums
# Not called here: perfbench/tracing.py patches these names in this module.
from .quadrature import _node_data, hk_time_integral, prop1_integrand  # noqa: F401

CHAIN_TOL = 1e-8
DEFAULT_SAMPLES = 10 ** 6
# Samples per tile, each tile its own stream keyed by (seed, tile): memory does not
# grow with n, and a 256 KB tile is reused by malloc, not re-faulted.
MC_TILE = 2 ** 13
# Threads that draw and classify tiles: the CPUs this process may run on, each with at least
# MC_WORKER_SAMPLES samples (fewer added jitter), but two in a check, to draw during its node field.
MC_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
              else os.cpu_count() or 1)
MC_WORKER_SAMPLES = 2 ** 18


@dataclass(frozen=True)
class TubeReport:
    """Per-side tube-volume bound plus the inequality-chain summary."""

    side: int
    hk_upper: float
    exact_volume: float | None
    mc_volume: tuple[float, float] | None  # (estimate, stderr)
    focal_min: float
    focal_max: float
    sum_lhs: float    # 2|M| = 4 pi^2
    sum_rhs: float    # twice the sum of the two per-side bounds
    prop1_lhs: float  # 4 pi^2 genus
    prop1_rhs: float  # integral of the genus-bound integrand


@dataclass(frozen=True)
class ChainReport:
    """Everything a `check` certificate decides on: the genus report, both
    tube reports, and whether each link of the chain holds."""

    genus_report: GenusReport
    tube_reports: tuple[TubeReport, TubeReport]
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


def side_upper_bound(surface: Surface, side: int, grid: QuadratureGrid) -> float:
    """Heintze-Karcher upper bound for the volume of one side."""
    if side not in (1, 2):
        raise DomainError(f"side must be 1 or 2, got {side}")
    return node_sums(surface, grid).hk_upper[side - 1]


def _mc_sides(surface: Surface, n_samples: int, seed: int, samples, meanwhile=None):
    """(meanwhile(), (estimate, stderr) of sides 1 and 2).  Workers take tiles in turn; tile t
    draws from SFC64(SeedSequence(seed, spawn_key=(t,))), as SeedSequence(seed).spawn(t + 1)[t]:
    a pure function of (seed, t).  The calling thread runs ``meanwhile``, then joins them.  An
    exception stops every worker before its next tile; one from ``meanwhile`` beats a worker's."""
    n = int(n_samples) if samples is None else len(samples)
    if n < 1:
        raise DomainError(f"need at least one Monte-Carlo sample, got {n}")
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise DomainError(f"seed must be an integer >= 0, got {seed!r}")
    workers = min(MC_WORKERS, max(2 if meanwhile else 1, n // MC_WORKER_SAMPLES))
    counts, first_error, todo, lock = [0] * workers, {}, iter(range(0, n, MC_TILE)), threading.Lock()

    def work(w):
        try:
            while not first_error:
                with lock:
                    i = next(todo, None)
                if i is None:
                    return
                x = samples[i:i + MC_TILE] if samples is not None else sample_s3(
                    min(MC_TILE, n - i), np.random.Generator(np.random.SFC64(
                        np.random.SeedSequence(seed, spawn_key=(i // MC_TILE,)))))
                counts[w] += int(np.count_nonzero(surface.side_classifier(x)))
        except BaseException as exc:
            first_error.setdefault("exc", exc)  # atomic: later errors are dropped

    threads = [threading.Thread(target=work, args=(w,), daemon=True) for w in range(1, workers)]
    for t in threads:
        t.start()
    try:
        result = meanwhile() if meanwhile else None
        work(0)
    except BaseException as exc:  # from meanwhile: replaces any worker's error
        first_error["exc"] = exc
    for t in threads:
        t.join()
    if first_error:  # pop, so no frame in its traceback still holds the exception
        raise first_error.pop("exc")
    k = sum(counts)
    return result, tuple((S3_VOLUME * p, S3_VOLUME * math.sqrt(p * (1.0 - p) / n))
                         for p in (float(k) / n, float(n - k) / n))


def monte_carlo_volume(surface: Surface, side: int, n_samples: int = DEFAULT_SAMPLES,
                       seed: int = 0, samples: np.ndarray | None = None):
    """(estimate, stderr) of a side volume from uniform S^3 samples, the same for a seed
    on every machine and for every MC_WORKERS."""
    if side not in (1, 2):
        raise DomainError(f"side must be 1 or 2, got {side}")
    return _mc_sides(surface, n_samples, seed, samples)[1][side - 1]


def verify_sum_inequality(surface: Surface, grid: QuadratureGrid,
                          mc_samples: int | None = None, seed: int = 0,
                          tol: float = CHAIN_TOL) -> ChainReport:
    """Evaluate every link of the genus-bound inequality chain, each under
    `at_most`'s rule at ``tol``, from one pass of `node_sums` over the grid.

    checks: theorem2 (4 pi^2 g <= integral of f(|Aring|)), cubic (2 pi^2 g <=
    (sqrt(2)/3) integral of |Aring|^3), sum_bound (2|M| <= 2*(bound_1 +
    bound_2)), genus_bound (4 pi^2 g <= integral of the genus-bound integrand)
    and, with exact side volumes, hk_side1/2 (volume <= bound).  A failed link
    is reported, never raised.
    """
    def node_field():
        sums = node_sums(surface, grid)
        return sums, genus_report(surface, grid, nodes=sums)

    (sums, report), mc = (_mc_sides(surface, mc_samples, seed, None, node_field)
                          if mc_samples and not surface.sampled else (node_field(), (None, None)))
    sum_rhs = 2.0 * sum(sums.hk_upper)
    prop1_lhs = FOUR_PI_SQ * report.genus
    exact = surface.exact_side_volumes

    tubes = [TubeReport(
        side=i + 1, hk_upper=sums.hk_upper[i],
        exact_volume=None if exact is None else exact[i], mc_volume=mc[i],
        focal_min=sums.focal_min[i], focal_max=sums.focal_max[i],
        sum_lhs=FOUR_PI_SQ, sum_rhs=sum_rhs,
        prop1_lhs=prop1_lhs, prop1_rhs=sums.integral_prop1,
    ) for i in (0, 1)]
    checks = {
        "theorem2": at_most(report.bound_lhs, report.bound_rhs, tol),
        "cubic": at_most(report.cubic_lhs, report.cubic_rhs, tol),
        "sum_bound": at_most(FOUR_PI_SQ, sum_rhs, tol),
        "genus_bound": at_most(prop1_lhs, sums.integral_prop1, tol),
    }
    for t in tubes:
        if t.exact_volume is not None:
            checks[f"hk_side{t.side}"] = at_most(t.exact_volume, t.hk_upper, tol)
    return ChainReport(report, tuple(tubes), checks)
