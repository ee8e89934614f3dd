"""Heintze-Karcher tube volumes and the full genus-bound inequality chain.

Side 1 of a surface is the region its frame normal points into; side 2 uses
the reversed normal, under which the principal curvatures become
(-k2, -k1).  The per-side volume upper bound integrates the closed-form
time integral of the tube Jacobian up to the focal time acot(k2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Surface, sample_s3
from .errors import ChainViolation, DomainError
from .pinch import FOUR_PI_SQ, S3_VOLUME, acot, hk_time_integral, prop1_integrand
from .quadrature import QuadratureGrid, genus_report, _node_data

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
    k1, k2 = (cd.k1, cd.k2) if side == 1 else (-cd.k2, -cd.k1)
    return float(np.sum(w * hk_time_integral(k1, k2)))


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
                          tol: float = CHAIN_TOL, nodes=None,
                          report=None) -> tuple[TubeReport, TubeReport]:
    """Check every link of the tube-volume inequality chain for a surface.

    Asserts, at quadrature precision, 2|M| <= 2*(bound_1 + bound_2) (sum of
    the per-side bounds), the genus bound 4 pi^2 g <= integral of the
    genus-bound integrand, and each bound against an exact side volume.
    Raises ChainViolation naming the first failing link.  ``nodes`` (the
    grid's ``_node_data``) and ``report`` (its GenusReport) are evaluated
    here unless the caller passes them.
    """
    cd, w = _node_data(surface, grid) if nodes is None else nodes

    b1 = float(np.sum(w * hk_time_integral(cd.k1, cd.k2)))
    b2 = float(np.sum(w * hk_time_integral(-cd.k2, -cd.k1)))
    sum_rhs = 2.0 * (b1 + b2)
    prop1_rhs = float(np.sum(w * prop1_integrand(cd.k1, cd.k2)))
    if sum_rhs < FOUR_PI_SQ - tol * (1.0 + abs(sum_rhs)):
        raise ChainViolation(
            f"2|M| <= sum bound failed: {sum_rhs} < {FOUR_PI_SQ}")

    if report is None:
        report = genus_report(surface, grid, nodes=(cd, w))
    prop1_lhs = FOUR_PI_SQ * report.genus
    if prop1_lhs > prop1_rhs + tol * (1.0 + abs(prop1_rhs)):
        raise ChainViolation(
            f"genus bound failed: {prop1_lhs} > {prop1_rhs}")

    focal1 = acot(np.asarray(cd.k2))
    focal2 = acot(np.asarray(-cd.k1))
    exact = surface.exact_side_volumes
    mc = (None, None)
    if mc_samples:
        try:
            mc = _mc_sides(surface, mc_samples, seed, None)
        except NotImplementedError:
            pass  # surface has no side classifier (e.g. imported grid)

    reports = []
    for side, bound, focal in ((1, b1, focal1), (2, b2, focal2)):
        reports.append(TubeReport(
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
        vol = reports[-1].exact_volume
        if vol is not None and bound < vol - tol * (1.0 + vol):
            raise ChainViolation(
                f"side {side} bound {bound} below exact volume {vol}")
    return reports[0], reports[1]
