"""Heintze-Karcher tube volumes and the full genus-bound inequality chain.

Side 1 of a surface is the region its frame normal points into; side 2 uses
the reversed normal (`flip_orientation`: curvatures (-k2, -k1)).  The per-side
volume upper bound integrates the closed-form time integral of the tube
Jacobian up to the focal time acot(k2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Surface, sample_s3
from .errors import DomainError
from .geometry import flip_orientation
from .pinch import FOUR_PI_SQ, S3_VOLUME, acot, at_most, hk_time_integral, prop1_integrand
from .quadrature import GenusReport, QuadratureGrid, genus_report, _node_data

CHAIN_TOL = 1e-8
DEFAULT_SAMPLES = 10 ** 6
# Samples drawn and classified per step, so memory does not grow with n.
MC_TILE = 2 ** 16


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
    tube reports, and whether each link of the chain holds (it passes when
    every value of `checks` is true)."""

    genus_report: GenusReport
    tube_reports: tuple[TubeReport, TubeReport]
    checks: dict[str, bool]


def normal_geodesic(p: np.ndarray, nu: np.ndarray, t: float) -> np.ndarray:
    """Point at arc length t along the great circle from p in direction nu."""
    p = np.asarray(p, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if abs(np.linalg.norm(p) - 1.0) > 1e-10 or abs(np.linalg.norm(nu) - 1.0) > 1e-10:
        raise DomainError("p and nu must be unit vectors")
    if abs(float(p @ nu)) > 1e-10:
        raise DomainError("nu must be orthogonal to p")
    return math.cos(t) * p + math.sin(t) * nu


def focal_time(k2) -> float:
    """Focal time acot(k2) in (0, pi) along the normal geodesic."""
    return acot(k2)


def side_upper_bound(surface: Surface, side: int, grid: QuadratureGrid) -> float:
    """Heintze-Karcher upper bound for the volume of one side."""
    if side not in (1, 2):
        raise DomainError(f"side must be 1 or 2, got {side}")
    cd, w = _node_data(surface, grid)
    c = cd if side == 1 else flip_orientation(cd)
    return float(np.sum(w * hk_time_integral(c.k1, c.k2)))


def _mc_sides(surface: Surface, n_samples: int, seed: int, samples):
    """(estimate, stderr) of sides 1 and 2 from one set of samples, drawn and
    classified MC_TILE at a time.  Consecutive Philox tile draws continue one
    stream, so the counts equal those of a single draw of all n samples."""
    if samples is None:
        n = int(n_samples)
        rng = np.random.Generator(np.random.Philox(seed))
        tiles = (sample_s3(min(MC_TILE, n - i), rng) for i in range(0, n, MC_TILE))
    else:
        n = len(samples)
        tiles = (samples[i:i + MC_TILE] for i in range(0, n, MC_TILE))
    k = sum(int(np.count_nonzero(surface.side_classifier(x))) for x in tiles)
    return tuple((S3_VOLUME * p, S3_VOLUME * math.sqrt(p * (1.0 - p) / n))
                 for p in (float(k) / n, float(n - k) / n))


def monte_carlo_volume(surface: Surface, side: int, n_samples: int = DEFAULT_SAMPLES,
                       seed: int = 0, samples: np.ndarray | None = None):
    """Monte-Carlo estimate of a side volume from uniform S^3 samples.

    Returns (estimate, stderr).  The Philox counter-based generator makes the
    stream reproducible for a given seed regardless of threading.
    """
    if side not in (1, 2):
        raise DomainError(f"side must be 1 or 2, got {side}")
    return _mc_sides(surface, n_samples, seed, samples)[side - 1]


def verify_sum_inequality(surface: Surface, grid: QuadratureGrid,
                          mc_samples: int | None = None, seed: int = 0,
                          tol: float = CHAIN_TOL) -> ChainReport:
    """Evaluate every link of the genus-bound inequality chain, each under
    `at_most`'s rule, from one evaluation of the grid's node data.

    checks: theorem2 (4 pi^2 g <= integral of f(|Aring|)), cubic (2 pi^2 g <=
    (sqrt(2)/3) integral of |Aring|^3), sum_bound (2|M| <= 2*(bound_1 +
    bound_2)), genus_bound (4 pi^2 g <= integral of the genus-bound integrand)
    and, with exact side volumes, hk_side1/2 (volume <= bound).  A failed link
    is reported, never raised.
    """
    cd, w = nodes = _node_data(surface, grid)
    report = genus_report(surface, grid, nodes=nodes)
    sides = (cd, flip_orientation(cd))
    b1, b2 = (float(np.sum(w * hk_time_integral(c.k1, c.k2))) for c in sides)
    sum_rhs = 2.0 * (b1 + b2)
    prop1_lhs = FOUR_PI_SQ * report.genus
    prop1_rhs = float(np.sum(w * prop1_integrand(cd.k1, cd.k2)))

    exact = surface.exact_side_volumes
    mc = (None, None)
    if mc_samples:
        try:
            mc = _mc_sides(surface, mc_samples, seed, None)
        except NotImplementedError:
            pass  # surface has no side classifier (e.g. imported grid)

    tubes = []
    for side, c, bound in zip((1, 2), sides, (b1, b2)):
        focal = acot(c.k2)
        tubes.append(TubeReport(
            side=side,
            hk_upper=bound,
            exact_volume=None if exact is None else exact[side - 1],
            mc_volume=mc[side - 1],
            focal_min=float(np.min(focal)),
            focal_max=float(np.max(focal)),
            sum_lhs=FOUR_PI_SQ,
            sum_rhs=sum_rhs,
            prop1_lhs=prop1_lhs,
            prop1_rhs=prop1_rhs,
        ))
    checks = {
        "theorem2": at_most(report.bound_lhs, report.bound_rhs, tol),
        "cubic": at_most(report.cubic_lhs, report.cubic_rhs, tol),
        "sum_bound": at_most(FOUR_PI_SQ, sum_rhs, tol),
        "genus_bound": at_most(prop1_lhs, prop1_rhs, tol),
    }
    for t in tubes:
        if t.exact_volume is not None:
            checks[f"hk_side{t.side}"] = at_most(t.exact_volume, t.hk_upper, tol)
    return ChainReport(report, tuple(tubes), checks)
