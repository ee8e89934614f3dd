"""Surface integrals, Gauss-Bonnet genus detection, and the reports built on them.

A grid is its two line rules (`_line_rule`): trapezoidal if periodic, Fejer's second rule
if polar. Both nest, so the half-resolution rule, whose integral of f(|Aring|) is the
convergence probe, reads every other node of the grid and no other node. `_line_rule` also
places and weighs an imported grid's nodes, on a polar direction's cell centres."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GenusDetectionFailure, NoSpectralData, NotMinimal, NumericalFailure
from .geometry import curvature_at
from .pinch import FOUR_PI_SQ, SQRT2, Link, Verdict, _f, _hk, _prop1, eigenvalue_bounds
# Not called here: perfbench/tracing.py patches f_pinch in this module; tube imports the others.
from .pinch import f_pinch, hk_time_integral, prop1_integrand  # noqa: F401
from .catalog import FlatTorus, Surface

GAP_THRESHOLD = 3.0 * SQRT2 * math.pi ** 2
EULER_ROUNDING_TOL = 0.01
MINIMAL_H_TOL = 1e-6
DEFAULT_RESOLUTION = 64
MAX_SWEEP_STEPS = 10 ** 4
# Nodes evaluated per step of a grid reduction, so memory does not grow with
# the resolution and the temporaries stay small enough to be reused.
NODE_TILE = 2 ** 13


@dataclass(frozen=True)
class QuadratureGrid:
    """Tensor-product rule: node (nodes_u[i], nodes_v[j]) weighs weights_u[i] * weights_v[j],
    and half_u[i] * half_v[j] in the nested half rule (`make_grid`) if the grid has one."""

    nodes_u: np.ndarray
    nodes_v: np.ndarray
    weights_u: np.ndarray
    weights_v: np.ndarray
    half_u: np.ndarray | None = None
    half_v: np.ndarray | None = None

    @property
    def resolution(self) -> tuple[int, int]:
        return len(self.nodes_u), len(self.nodes_v)


def _line_rule(lo: float, hi: float, n: int, periodic: bool, centres: bool = False):
    """n cells of width h = (hi - lo)/n, their nodes at lo + (hi - lo) k/n: the trapezoidal rule
    on their left ends if periodic, else the direction is polar (the chart collapses to a point
    at lo and at hi) and, in theta = pi (x - lo)/(hi - lo), Fejer's second rule on the n - 1
    interior ends, exact for sin(k theta), k < n (Trefethen 2008), or with ``centres`` his
    first rule on the n cell centres, exact for k <= n. The polar weights (`_polar_weights`)
    do not sum to hi - lo."""
    h = (hi - lo) / n
    if periodic:
        return lo + (hi - lo) * np.arange(n) / n, np.full(n, h)
    k = np.arange(n) + 0.5 if centres else np.arange(1, n)
    return lo + (hi - lo) * k / n, _polar_weights(h, n, centres)


def _polar_weights(h: float, n: int, centres: bool) -> np.ndarray:
    """A polar direction's weights on n cells of width h: (4h/pi) times the sum over odd k <= n
    of sin(k theta)/k, the k = n term halved, at the n - 1 interior cell ends (Fejer's second
    rule, where that term is 0 and left out) or at the n cell centres (his first rule). One
    rfft (Waldvogel 2006) of length 2n, or of length 4n, whose odd outputs are the centres."""
    k = np.arange(1, n + 1 if centres else n, 2)
    coef = np.zeros(4 * n if centres else 2 * n)
    coef[k] = 1.0 / k
    coef[n] /= 2.0  # the k = n term, if there is one
    sines = -np.fft.rfft(coef).imag  # sum over k of coef[k] sin(2 pi k j/len(coef))
    return (4.0 * h / np.pi) * (sines[1::2] if centres else sines[1:n])


def _half_rule(lo: float, hi: float, n: int, periodic: bool) -> np.ndarray:
    """The n/2-cell rule's weights on the n-cell rule's nodes: 0 off its even cell ends."""
    weights = np.zeros(n if periodic else n - 1)
    weights[0 if periodic else 1::2] = _line_rule(lo, hi, n // 2, periodic)[1]
    return weights


def make_grid(surface: Surface, nu: int, nv: int) -> QuadratureGrid:
    """nu x nv cells on the surface's domain; the half rule nests if both are even and >= 16."""
    if nu < 4 or nv < 4:
        raise ValueError("resolution too small")
    lines = (*surface.domain_u, nu, surface.periodic_u), (*surface.domain_v, nv, surface.periodic_v)
    (xu, wu), (xv, wv) = (_line_rule(*line) for line in lines)
    nested = min(nu, nv) >= 16 and nu % 2 == nv % 2 == 0
    return QuadratureGrid(xu, xv, wu, wv, *(_half_rule(*line) for line in lines if nested))


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
    convergence: float | None          # relative change of integral_f under the half rule


def node_sums(surface: Surface, grid: QuadratureGrid) -> NodeSums:
    """Reduce the grid's node field in one pass over tiles of whole u-rows
    holding about NODE_TILE nodes, so memory does not grow with the grid; a tile takes three
    arctangents. Side 2's principal curvatures are (-k2, -k1)."""
    nu, nv = grid.resolution
    step = max(1, NODE_TILE // nv)
    sums = np.zeros(8)
    lo, hi, max_H, half_f = np.full(2, np.inf), np.full(2, -np.inf), 0.0, 0.0
    for start in range(0, nu, step):
        rows = slice(start, start + step)
        cd, w = _node_data(surface, grid, rows)
        k1, k2, t = cd.k1, cd.k2, cd.traceless_norm
        if not np.isfinite(k1 + k2 + t).all():  # one scan: the sum is finite only if all three are
            row = start + np.isfinite(k1 + k2 + t).all(axis=1).argmin()
            raise NumericalFailure(f"non-finite curvature at grid row {row}: rescale the surface")
        a1, a2, f = np.arctan(k1), np.arctan(k2), _f(t, np.arctan(t / SQRT2))
        focal = np.pi / 2.0 - a2, np.pi / 2.0 + a1  # acot(k2), acot(-k1): atan is odd
        sums += [np.sum(w * x) for x in (
            1.0, cd.gauss_K, f, t ** 3, (k1 ** 2 + k2 ** 2) ** 1.5,
            _hk(k1, k2, focal[0]), _hk(-k2, -k1, focal[1]), _prop1(k1, k2, a1, a2))]
        if grid.half_u is not None:
            half_f += np.sum(grid.half_u[rows, None] * grid.half_v * cd.area_element * f)
        lo = np.minimum(lo, [np.min(x) for x in focal])
        hi = np.maximum(hi, [np.max(x) for x in focal])
        max_H = max(max_H, float(np.max(np.abs(cd.H))))
    area, total_K, int_f, int_A3, abs_A3, hk1, hk2, prop1 = map(float, sums)
    return NodeSums(area, total_K, int_f, int_A3, abs_A3, (hk1, hk2), prop1,
                    tuple(map(float, lo)), tuple(map(float, hi)), max_H,
                    None if grid.half_u is None else abs(int_f - float(half_f)) / (1.0 + abs(int_f)))


@dataclass(frozen=True)
class GenusReport:
    """Quadrature summary of the genus bounds for one surface."""

    area: float
    total_K: float
    euler_char: int
    genus: int
    integral_f: float       # integral of f(|Aring|)
    integral_A3: float      # integral of |Aring|^3
    bound_rhs: float        # equals integral_f for the unit 3-sphere ambient
    slack: float            # integral_f - 4 pi^2 genus
    convergence: float | None   # relative change of integral_f under the grid's nested half rule
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
    gap = sums.integral_absA3 if _is_minimal(sums) else None
    return GenusReport(
        area=sums.area, total_K=sums.total_K, euler_char=2 - 2 * genus, genus=genus,
        integral_f=sums.integral_f, integral_A3=sums.integral_A3,
        bound_rhs=sums.integral_f, slack=sums.integral_f - FOUR_PI_SQ * genus,
        convergence=sums.convergence, resolution=grid.resolution,
        gap_integral=gap, gap_below=None if gap is None else _below_gap(gap),
    )


@dataclass(frozen=True)
class GapReport:
    """L^3 gap-theorem certificate of a minimal surface; either side is a valid outcome."""

    integral_A3: float      # integral of |A|^3
    threshold: float
    below_threshold: bool
    convergence: float | None   # as in GenusReport


def gap_report(surface: Surface, grid: QuadratureGrid) -> GapReport:
    """The integral of |A|^3 against GAP_THRESHOLD; NotMinimal if max |H| > MINIMAL_H_TOL."""
    sums = node_sums(surface, grid)
    if not _is_minimal(sums):
        raise NotMinimal(f"max |H| = {sums.max_H:.3e} > {MINIMAL_H_TOL:g}")
    return GapReport(sums.integral_absA3, GAP_THRESHOLD, _below_gap(sums.integral_absA3),
                     sums.convergence)


@dataclass(frozen=True)
class EigenReport(Verdict):
    """One link per bound of `eigenvalue_bounds`, each with lhs lambda_1 * Area."""

    lambda1: float
    links: dict[str, Link]
    equality_discrepancy: str | None    # set for the Clifford torus only
    convergence: float | None           # as in GenusReport


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
    links = {name: Link(lam_area, bound, tol) for name, bound in bounds.items()}
    return EigenReport(surface.exact_lambda1, links, note, sums.convergence)


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
        rep = genus_report(surface, make_grid(surface, resolution, resolution))
        rows.append({"a": float(a), "area": rep.area, "traceless_norm": (k2 - k1) / SQRT2,
                     "integral_f": rep.integral_f, "slack": rep.slack})
    return rows

