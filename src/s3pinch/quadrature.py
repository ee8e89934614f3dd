"""Surface integrals, Gauss-Bonnet genus detection, convergence probes.

Periodic parameter directions use the equispaced trapezoidal rule (spectrally
accurate for smooth periodic integrands); non-periodic directions use
composite Gauss-Legendre panels, which keeps nodes strictly inside open
intervals such as the polar range (0, pi) of a sphere chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GenusDetectionFailure, NotMinimal
from .geometry import curvature_at
from .pinch import FOUR_PI_SQ, SQRT2, f_pinch
from .catalog import Surface

GAP_THRESHOLD = 3.0 * SQRT2 * math.pi ** 2
EULER_ROUNDING_TOL = 0.01
MINIMAL_H_TOL = 1e-6
DEFAULT_RESOLUTION = 64
GL_PANEL_SIZE = 8


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature over the parameter rectangle."""

    nodes_u: np.ndarray
    nodes_v: np.ndarray
    weights: np.ndarray  # outer-product weights, shape (Nu, Nv)
    periodic_u: bool
    periodic_v: bool

    @property
    def resolution(self) -> tuple[int, int]:
        return len(self.nodes_u), len(self.nodes_v)


def _line_rule(lo: float, hi: float, n: int, periodic: bool):
    length = hi - lo
    if periodic:
        h = length / n
        nodes = lo + h * np.arange(n)
        return nodes, np.full(n, h)
    # Composite Gauss-Legendre panels.
    panel = GL_PANEL_SIZE if n % GL_PANEL_SIZE == 0 and n >= GL_PANEL_SIZE else n
    npanels = n // panel
    x, w = np.polynomial.legendre.leggauss(panel)
    edges = lo + length * np.arange(npanels + 1) / npanels
    half = (edges[1:] - edges[:-1]) / 2.0
    mid = (edges[1:] + edges[:-1]) / 2.0
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def make_grid(surface: Surface, nu: int, nv: int) -> QuadratureGrid:
    """Quadrature grid adapted to the surface's domain and periodicity."""
    if nu < 4 or nv < 4:
        raise ValueError("resolution too small")
    xu, wu = _line_rule(*surface.domain_u, nu, surface.periodic_u)
    xv, wv = _line_rule(*surface.domain_v, nv, surface.periodic_v)
    return QuadratureGrid(xu, xv, np.outer(wu, wv), surface.periodic_u, surface.periodic_v)


def _node_data(surface: Surface, grid: QuadratureGrid):
    """Curvature data and weighted area element at every grid node: all the
    certificates read from a grid, so callers evaluate it once and pass it on."""
    U, V = np.meshgrid(grid.nodes_u, grid.nodes_v, indexing="ij")
    cd = curvature_at(surface.point(U, V))
    return cd, grid.weights * cd.area_element


@dataclass(frozen=True)
class GenusReport:
    """Quadrature summary of the genus bounds for one surface."""

    area: float
    total_K: float
    euler_char: int
    genus: int
    integral_f: float       # integral of f(|Aring|)
    integral_A3: float      # integral of |Aring|^3
    bound_lhs: float        # 4 pi^2 genus
    bound_rhs: float        # equals integral_f for the unit 3-sphere ambient
    slack: float
    cubic_lhs: float        # 2 pi^2 genus
    cubic_rhs: float        # (sqrt(2)/3) integral of |Aring|^3
    convergence: float      # relative change of integral_f under grid halving (nan if
                            # below 16 nodes or the surface is only sampled)
    resolution: tuple[int, int]
    # Gap-theorem certificate, populated for minimal surfaces only.
    gap_integral: float | None = None   # integral of |A|^3
    gap_threshold: float = GAP_THRESHOLD
    gap_below: bool | None = None


def _integrals(cd, w):
    area = float(np.sum(w))
    total_K = float(np.sum(w * cd.gauss_K))
    integral_f = float(np.sum(w * f_pinch(cd.traceless_norm)))
    integral_A3 = float(np.sum(w * cd.traceless_norm ** 3))
    absA3 = float(np.sum(w * (cd.k1 ** 2 + cd.k2 ** 2) ** 1.5))
    return area, total_K, integral_f, integral_A3, absA3


def gap_integral(surface: Surface, grid: QuadratureGrid) -> float:
    """Integral of |A|^3 for the L^3 gap theorem; NotMinimal if max |H| > MINIMAL_H_TOL."""
    cd, w = _node_data(surface, grid)
    max_H = float(np.max(np.abs(cd.H)))
    if max_H > MINIMAL_H_TOL:
        raise NotMinimal(f"max |H| = {max_H:.3e} > {MINIMAL_H_TOL:g}")
    return _integrals(cd, w)[4]


def genus_report(surface: Surface, grid: QuadratureGrid, nodes=None) -> GenusReport:
    """Detect the genus via Gauss-Bonnet and evaluate every genus bound.

    ``nodes`` is the grid's ``_node_data`` when the caller already has it.
    """
    area, total_K, integral_f, integral_A3, absA3 = _integrals(
        *(_node_data(surface, grid) if nodes is None else nodes))

    chi_raw = total_K / (2.0 * math.pi)
    euler = int(round(chi_raw))
    if abs(chi_raw - euler) >= EULER_ROUNDING_TOL or euler % 2 != 0 or euler > 2:
        raise GenusDetectionFailure(
            f"integrated curvature gives chi = {chi_raw:.6f}, "
            f"not an admissible Euler characteristic within {EULER_ROUNDING_TOL}"
        )
    genus = (2 - euler) // 2

    convergence = math.nan
    nu, nv = grid.resolution
    if nu >= 16 and nv >= 16 and not surface.sampled:
        coarse_f = _integrals(*_node_data(surface, make_grid(surface, nu // 2, nv // 2)))[2]
        convergence = abs(integral_f - coarse_f) / (1.0 + abs(integral_f))

    bound_lhs = FOUR_PI_SQ * genus
    return GenusReport(
        area=area,
        total_K=total_K,
        euler_char=euler,
        genus=genus,
        integral_f=integral_f,
        integral_A3=integral_A3,
        bound_lhs=bound_lhs,
        bound_rhs=integral_f,
        slack=integral_f - bound_lhs,
        cubic_lhs=2.0 * math.pi ** 2 * genus,
        cubic_rhs=SQRT2 / 3.0 * integral_A3,
        convergence=convergence,
        resolution=(nu, nv),
        gap_integral=absA3 if surface.is_minimal else None,
        gap_below=(absA3 < GAP_THRESHOLD) if surface.is_minimal else None,
    )


def convergence_probe(surface: Surface, base_grid: QuadratureGrid,
                      rel_tol: float = 1e-9, max_doublings: int = 4):
    """The integral of f(|Aring|) at doubling resolutions until it stabilizes,
    evaluating each resolution once.

    Returns a list of (resolution, integral_f, rel_change) tuples; the first
    entry has rel_change = nan.
    """
    nu, nv = base_grid.resolution
    rows = []
    prev = None
    grid = base_grid
    for _ in range(max_doublings + 1):
        integral_f = _integrals(*_node_data(surface, grid))[2]
        change = math.nan if prev is None else abs(integral_f - prev) / (1.0 + abs(integral_f))
        rows.append((grid.resolution, integral_f, change))
        if prev is not None and change < rel_tol:
            break
        prev = integral_f
        nu, nv = nu * 2, nv * 2
        grid = make_grid(surface, nu, nv)
    return rows
