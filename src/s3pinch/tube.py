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


def _side_curvatures(cd, side: int):
    if side == 1:
        return cd.k1, cd.k2
    if side == 2:
        return -cd.k2, -cd.k1
    raise DomainError(f"side must be 1 or 2, got {side}")


def side_upper_bound(surface: Surface, side: int, grid: QuadratureGrid) -> float:
    """Heintze-Karcher upper bound for the volume of one side."""
    _, cd, jac = _node_data(surface, grid)
    k1, k2 = _side_curvatures(cd, side)
    return float(np.sum(grid.weights * jac * hk_time_integral(k1, k2)))


def monte_carlo_volume(surface: Surface, side: int, n_samples: int = DEFAULT_SAMPLES,
                       seed: int = 0, samples: np.ndarray | None = None):
    """Monte-Carlo estimate of a side volume from uniform S^3 samples.

    Returns (estimate, stderr).  The Philox counter-based generator makes the
    stream reproducible for a given seed regardless of threading.
    """
    if samples is None:
        rng = np.random.Generator(np.random.Philox(seed))
        samples = sample_s3(int(n_samples), rng)
    inside = surface.side_classifier(samples)
    if side == 2:
        inside = ~inside
    elif side != 1:
        raise DomainError(f"side must be 1 or 2, got {side}")
    n = len(samples)
    p = float(np.count_nonzero(inside)) / n
    return S3_VOLUME * p, S3_VOLUME * math.sqrt(p * (1.0 - p) / n)


def verify_sum_inequality(surface: Surface, grid: QuadratureGrid,
                          mc_samples: int | None = None, seed: int = 0,
                          tol: float = CHAIN_TOL) -> tuple[TubeReport, TubeReport]:
    """Check every link of the tube-volume inequality chain for a surface.

    Asserts, at quadrature precision:
      2|M| <= 2*(bound_1 + bound_2)          (sum of the per-side bounds)
            = integral with the arctan rewrite (exact identity)
            = the curvature form (K = 1 + k1 k2 in the unit 3-sphere)
    and the genus bound 4 pi^2 g <= integral of the genus-bound integrand.
    Raises ChainViolation naming the first failing link.
    """
    _, cd, jac = _node_data(surface, grid)
    w = grid.weights * jac

    b1 = float(np.sum(w * hk_time_integral(cd.k1, cd.k2)))
    b2 = float(np.sum(w * hk_time_integral(-cd.k2, -cd.k1)))
    sum_rhs = 2.0 * (b1 + b2)

    # Rewrite of the same integrand via atan; must agree to roundoff.
    line2 = float(np.sum(w * (
        cd.k2 - cd.k1 + (1.0 + cd.k1 * cd.k2)
        * (math.pi - (np.arctan(cd.k2) - np.arctan(cd.k1)))
    )))
    # Curvature form: in the unit 3-sphere K = 1 + k1 k2 exactly.
    line3 = float(np.sum(w * (
        cd.k2 - cd.k1 + math.pi * cd.gauss_K
        - (1.0 + cd.k1 * cd.k2) * (np.arctan(cd.k2) - np.arctan(cd.k1))
    )))
    prop1_rhs = float(np.sum(w * prop1_integrand(cd.k1, cd.k2)))

    scale = 1.0 + abs(sum_rhs)
    if sum_rhs < FOUR_PI_SQ - tol * scale:
        raise ChainViolation(
            f"2|M| <= sum bound failed: {sum_rhs} < {FOUR_PI_SQ}")
    if abs(line2 - sum_rhs) > tol * scale:
        raise ChainViolation(
            f"arctan rewrite mismatch: {sum_rhs} vs {line2}")
    if line3 < line2 - tol * scale:
        raise ChainViolation(
            f"curvature form dropped below the rewrite: {line3} < {line2}")

    rep = genus_report(surface, grid)
    prop1_lhs = FOUR_PI_SQ * rep.genus
    if prop1_lhs > prop1_rhs + tol * (1.0 + abs(prop1_rhs)):
        raise ChainViolation(
            f"genus bound failed: {prop1_lhs} > {prop1_rhs}")

    focal1 = acot(np.asarray(cd.k2))
    focal2 = acot(np.asarray(-cd.k1))
    exact = surface.exact_side_volumes

    reports = []
    for side, bound, focal in ((1, b1, focal1), (2, b2, focal2)):
        mc = None
        if mc_samples:
            try:
                mc = monte_carlo_volume(surface, side, mc_samples, seed=seed)
            except NotImplementedError:
                mc = None  # surface has no side classifier (e.g. imported grid)
        reports.append(TubeReport(
            side=side,
            hk_upper=bound,
            exact_volume=None if exact is None else exact[side - 1],
            mc_volume=mc,
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
