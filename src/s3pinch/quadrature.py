"""Surface integrals, Gauss-Bonnet genus detection, and the reports built on them.

Periodic parameter directions use the equispaced trapezoidal rule (spectrally
accurate for smooth periodic integrands); non-periodic directions use
composite Gauss-Legendre panels, which keeps nodes strictly inside open
intervals such as the polar range (0, pi) of a sphere chart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GenusDetectionFailure, NoSpectralData, NotMinimal
from .geometry import curvature_at
from .pinch import (
    FOUR_PI_SQ, SQRT2, acot, at_most, eigenvalue_bounds, f_pinch, hk_time_integral,
    prop1_integrand,
)
from .catalog import FlatTorus, Surface

GAP_THRESHOLD = 3.0 * SQRT2 * math.pi ** 2
EULER_ROUNDING_TOL = 0.01
MINIMAL_H_TOL = 1e-6
DEFAULT_RESOLUTION = 64
GL_PANEL_SIZE = 8
MAX_SWEEP_STEPS = 10 ** 4
# Nodes evaluated per step of a grid reduction, so memory does not grow with
# the resolution and the temporaries stay small enough to be reused.
NODE_TILE = 2 ** 13


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product quadrature over the parameter rectangle: the node at
    (nodes_u[i], nodes_v[j]) has weight weights_u[i] * weights_v[j]."""

    nodes_u: np.ndarray
    nodes_v: np.ndarray
    weights_u: np.ndarray
    weights_v: np.ndarray

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
    return QuadratureGrid(xu, xv, wu, wv)


def _node_data(surface: Surface, grid: QuadratureGrid, rows=slice(None)):
    """Curvature data and weighted area element at the nodes of the u-rows
    ``rows`` of the grid (all of them by default)."""
    p = surface.point(grid.nodes_u[rows][:, None], grid.nodes_v[None, :])
    cd = curvature_at(p, row0=rows.start or 0)
    return cd, grid.weights_u[rows, None] * grid.weights_v * cd.area_element


@dataclass(frozen=True)
class NodeSums:
    """Every number a certificate reads from a grid's node field."""

    area: float
    total_K: float
    integral_f: float                  # of f(|Aring|)
    integral_A3: float                 # of |Aring|^3
    integral_absA3: float              # of |A|^3
    hk_upper: tuple[float, float]      # Heintze-Karcher bound of sides 1 and 2
    integral_prop1: float              # of the genus-bound integrand
    focal_min: tuple[float, float]     # focal time acot(k2) per side
    focal_max: tuple[float, float]
    max_H: float                       # max |H|


def node_sums(surface: Surface, grid: QuadratureGrid) -> NodeSums:
    """Reduce the grid's node field in one pass over tiles of whole u-rows
    holding about NODE_TILE nodes, so memory does not grow with the grid.
    Side 2's principal curvatures are (-k2, -k1)."""
    nu, nv = grid.resolution
    step = max(1, NODE_TILE // nv)
    sums = np.zeros(8)
    lo, hi, max_H = np.full(2, np.inf), np.full(2, -np.inf), 0.0
    for start in range(0, nu, step):
        cd, w = _node_data(surface, grid, slice(start, start + step))
        k1, k2, t = cd.k1, cd.k2, cd.traceless_norm
        sums += [np.sum(w * x) for x in (
            1.0, cd.gauss_K, f_pinch(t), t ** 3, (k1 ** 2 + k2 ** 2) ** 1.5,
            hk_time_integral(k1, k2), hk_time_integral(-k2, -k1), prop1_integrand(k1, k2))]
        focal = acot(k2), acot(-k1)
        lo = np.minimum(lo, [np.min(f) for f in focal])
        hi = np.maximum(hi, [np.max(f) for f in focal])
        max_H = max(max_H, float(np.max(np.abs(cd.H))))
    area, total_K, int_f, int_A3, abs_A3, hk1, hk2, prop1 = map(float, sums)
    return NodeSums(area, total_K, int_f, int_A3, abs_A3, (hk1, hk2), prop1,
                    tuple(map(float, lo)), tuple(map(float, hi)), max_H)


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
    convergence: float | None   # relative change of integral_f under grid halving (None
                                # below 16 nodes, or if sampled: halving re-reads its samples)
    resolution: tuple[int, int]
    # Gap-theorem certificate, populated when max |H| <= MINIMAL_H_TOL only.
    gap_integral: float | None = None   # integral of |A|^3
    gap_threshold: float = GAP_THRESHOLD
    gap_below: bool | None = None


def _below_gap(integral_absA3: float) -> bool:  # the gap theorem's side of a minimal surface
    return integral_absA3 < GAP_THRESHOLD


def _is_minimal(sums: NodeSums) -> bool:  # the gap theorem's premise, read off the nodes
    return sums.max_H <= MINIMAL_H_TOL


def _genus(sums: NodeSums) -> int:  # Gauss-Bonnet; GenusDetectionFailure unless chi is admissible
    chi_raw = sums.total_K / (2.0 * math.pi)
    euler = int(round(chi_raw))
    if abs(chi_raw - euler) >= EULER_ROUNDING_TOL or euler % 2 != 0 or euler > 2:
        raise GenusDetectionFailure(
            f"integrated curvature gives chi = {chi_raw:.6f}, "
            f"not an admissible Euler characteristic within {EULER_ROUNDING_TOL}"
        )
    return (2 - euler) // 2


def genus_report(surface: Surface, grid: QuadratureGrid,
                 nodes: NodeSums | None = None) -> GenusReport:
    """Detect the genus via Gauss-Bonnet and evaluate every genus bound.

    ``nodes`` is the grid's ``node_sums`` when the caller already has it.
    """
    sums = node_sums(surface, grid) if nodes is None else nodes
    genus = _genus(sums)

    convergence = None
    nu, nv = grid.resolution
    if nu >= 16 and nv >= 16 and not surface.sampled:
        coarse_f = node_sums(surface, make_grid(surface, nu // 2, nv // 2)).integral_f
        convergence = abs(sums.integral_f - coarse_f) / (1.0 + abs(sums.integral_f))

    bound_lhs = FOUR_PI_SQ * genus
    gap = sums.integral_absA3 if _is_minimal(sums) else None
    return GenusReport(
        area=sums.area, total_K=sums.total_K, euler_char=2 - 2 * genus, genus=genus,
        integral_f=sums.integral_f, integral_A3=sums.integral_A3,
        bound_lhs=bound_lhs, bound_rhs=sums.integral_f, slack=sums.integral_f - bound_lhs,
        cubic_lhs=2.0 * math.pi ** 2 * genus, cubic_rhs=SQRT2 / 3.0 * sums.integral_A3,
        convergence=convergence, resolution=(nu, nv),
        gap_integral=gap, gap_below=None if gap is None else _below_gap(gap),
    )


@dataclass(frozen=True)
class GapReport:
    """L^3 gap-theorem certificate of a minimal surface; either side is a valid outcome."""

    integral_A3: float      # integral of |A|^3
    threshold: float
    below_threshold: bool
    certificate: str


def gap_report(surface: Surface, grid: QuadratureGrid) -> GapReport:
    """The integral of |A|^3 against GAP_THRESHOLD; NotMinimal if max |H| > MINIMAL_H_TOL."""
    sums = node_sums(surface, grid)
    if not _is_minimal(sums):
        raise NotMinimal(f"max |H| = {sums.max_H:.3e} > {MINIMAL_H_TOL:g}")
    below = _below_gap(sums.integral_absA3)
    return GapReport(sums.integral_absA3, GAP_THRESHOLD, below,
                     "below threshold (equator range)" if below else "above threshold")


@dataclass(frozen=True)
class EigenReport:
    """lambda_1 * Area against each of `eigenvalue_bounds`, under `at_most`'s rule."""

    lambda1: float
    lambda1_area: float
    bounds: dict[str, float]
    holds: dict[str, bool]
    equality_discrepancy: str | None    # set for the Clifford torus only

    @property
    def passed(self) -> bool:
        return all(self.holds.values())


def eigen_report(surface: Surface, grid: QuadratureGrid, tol: float) -> EigenReport:
    """The eigenvalue certificate of a surface with a closed-form lambda_1, else NoSpectralData."""
    if surface.exact_lambda1 is None:
        raise NoSpectralData(f"no closed-form lambda_1 for '{surface.name}'")
    sums = node_sums(surface, grid)
    lam_area = surface.exact_lambda1 * surface.exact_area
    bounds = eigenvalue_bounds(_genus(sums), sums.area, sums.integral_f)
    note = None
    if isinstance(surface, FlatTorus):  # only the Clifford torus has a lambda_1
        note = (
            "stated equality case not observed: lambda1*Area = 4*pi^2 "
            f"({lam_area:.6f}) differs from the bound 16*pi ({bounds['pinching']:.6f}); "
            "both values reported, equality not asserted"
        )
    holds = {name: at_most(lam_area, bound, tol) for name, bound in bounds.items()}
    return EigenReport(surface.exact_lambda1, lam_area, bounds, holds, note)


def sweep_tori(a_min: float, a_max: float, steps: int, resolution: int) -> list[dict]:
    """Theorem-2 slack across the flat-torus family, one row per a."""
    if not (0.0 < a_min < a_max < 1.0):
        raise DomainError("need 0 < a_min < a_max < 1")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise DomainError(f"steps must be in [2, {MAX_SWEEP_STEPS}], got {steps}")
    rows = []
    for a in np.linspace(a_min, a_max, steps):
        surface = FlatTorus(float(a))
        k1, k2 = surface.exact_principal_curvatures
        sums = node_sums(surface, make_grid(surface, resolution, resolution))
        rows.append({"a": float(a), "area": sums.area, "traceless_norm": (k2 - k1) / SQRT2,
                     "integral_f": sums.integral_f,
                     "slack": sums.integral_f - FOUR_PI_SQ * _genus(sums)})
    return rows

