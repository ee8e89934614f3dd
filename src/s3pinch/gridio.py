"""Import/export of sampled surface grids.

File format: UTF-8 CSV with a leading comment line

    # periodic_u=true periodic_v=true domain_u=[0,6.283185307] domain_v=[0,6.283185307]

followed by the header ``u,v,x1,x2,x3,x4`` and rows in row-major order over a
uniform (Nu x Nv) parameter grid.  Periodic directions exclude the duplicate
endpoint; non-periodic directions include both endpoints.

Imported surfaces get derivative suppliers from 6th-order finite-difference
stencils on the sample grid, so they are usable only at their own nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Surface
from .errors import FormatError, OffSampleGrid, OffSphere, ResolutionTooCoarse
from .geometry import SurfacePoint
from .quadrature import QuadratureGrid

ON_SPHERE_TOL = 1e-6
MIN_PERIODIC_RESOLUTION = 16
_STENCIL = 7  # 6th-order accuracy


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights for d^order/dx^order on integer offsets."""
    n = len(offsets)
    V = np.vander(offsets, n, increasing=True).T  # V[k, j] = offsets[j]^k
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(V, rhs)


def _derivative(values: np.ndarray, axis: int, h: float, order: int,
                periodic: bool) -> np.ndarray:
    """Apply a 7-point finite-difference stencil along one axis."""
    n = values.shape[axis]
    half = _STENCIL // 2
    out = np.zeros_like(values)
    if periodic:
        w = _fd_weights(np.arange(-half, half + 1), order)
        for k, off in enumerate(range(-half, half + 1)):
            out += w[k] * np.roll(values, -off, axis=axis)
    else:
        vals = np.moveaxis(values, axis, 0)
        res = np.zeros_like(vals)
        for i in range(n):
            start = min(max(i - half, 0), n - _STENCIL)
            offs = np.arange(start, start + _STENCIL) - i
            w = _fd_weights(offs, order)
            res[i] = np.tensordot(w, vals[start:start + _STENCIL], axes=(0, 0))
        out = np.moveaxis(res, 0, axis)
    return out / h ** order


class GridSurface(Surface):
    """Surface defined by position samples on a uniform parameter grid."""

    def __init__(self, nodes_u, nodes_v, positions, domain_u, domain_v,
                 periodic_u, periodic_v, name="imported"):
        self.nodes_u = np.asarray(nodes_u, dtype=float)
        self.nodes_v = np.asarray(nodes_v, dtype=float)
        self.positions = np.asarray(positions, dtype=float)
        self.domain_u = domain_u
        self.domain_v = domain_v
        self.periodic_u = periodic_u
        self.periodic_v = periodic_v
        self.name = name

        hu = self.nodes_u[1] - self.nodes_u[0]
        hv = self.nodes_v[1] - self.nodes_v[0]
        X = self.positions
        self._du = _derivative(X, 0, hu, 1, periodic_u)
        self._dv = _derivative(X, 1, hv, 1, periodic_v)
        self._duu = _derivative(X, 0, hu, 2, periodic_u)
        self._dvv = _derivative(X, 1, hv, 2, periodic_v)
        self._duv = _derivative(self._du, 1, hv, 1, periodic_v)

    def _indices(self, coords, nodes) -> np.ndarray:
        h = nodes[1] - nodes[0]
        idx = np.rint((np.asarray(coords, dtype=float) - nodes[0]) / h).astype(int)
        idx = idx % len(nodes)
        if np.any(np.abs(nodes[idx] - coords) > 1e-8 * max(1.0, abs(h))):
            raise OffSampleGrid("imported surfaces are only defined at their sample nodes")
        return idx

    def point(self, u, v) -> SurfacePoint:
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        u, v = np.broadcast_arrays(u, v)
        i = self._indices(u, self.nodes_u)
        j = self._indices(v, self.nodes_v)
        return SurfacePoint(
            self.positions[i, j], self._du[i, j], self._dv[i, j],
            self._duu[i, j], self._duv[i, j], self._dvv[i, j],
        )

    def natural_grid(self) -> QuadratureGrid:
        """Quadrature grid over the sample nodes.

        Periodic directions get the equispaced rule; non-periodic directions
        get the trapezoid rule when the nodes include the domain endpoints
        and the midpoint rule when they are cell centres.
        """
        def wts(nodes, domain, periodic):
            n = len(nodes)
            length = domain[1] - domain[0]
            if periodic:
                return np.full(n, length / n)
            h = nodes[1] - nodes[0]
            if abs(nodes[0] - domain[0]) < 0.25 * h:
                w = np.full(n, h)
                w[0] = w[-1] = h / 2.0
                return w
            return np.full(n, length / n)

        wu = wts(self.nodes_u, self.domain_u, self.periodic_u)
        wv = wts(self.nodes_v, self.domain_v, self.periodic_v)
        return QuadratureGrid(self.nodes_u, self.nodes_v, np.outer(wu, wv),
                              self.periodic_u, self.periodic_v)


def export_grid(surface: Surface, nu: int, nv: int, path) -> None:
    """Sample a surface on a uniform grid and write the CSV grid file."""
    def nodes(domain, n, periodic):
        lo, hi = domain
        if periodic:
            return lo + (hi - lo) * np.arange(n) / n
        # Cell centres: keeps chart-degenerate domain endpoints (e.g. the
        # poles of a sphere chart) out of the sample set.
        return lo + (hi - lo) * (np.arange(n) + 0.5) / n

    xu = nodes(surface.domain_u, nu, surface.periodic_u)
    xv = nodes(surface.domain_v, nv, surface.periodic_v)
    U, V = np.meshgrid(xu, xv, indexing="ij")
    pos = surface.point(U, V).position

    def fmt_bool(b):
        return "true" if b else "false"

    def fmt(x):
        return repr(float(x))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# periodic_u={fmt_bool(surface.periodic_u)} "
            f"periodic_v={fmt_bool(surface.periodic_v)} "
            f"domain_u=[{fmt(surface.domain_u[0])},{fmt(surface.domain_u[1])}] "
            f"domain_v=[{fmt(surface.domain_v[0])},{fmt(surface.domain_v[1])}]\n"
        )
        fh.write("u,v,x1,x2,x3,x4\n")
        for i in range(nu):
            for j in range(nv):
                row = [xu[i], xv[j], *pos[i, j]]
                fh.write(",".join(fmt(x) for x in row) + "\n")


def import_surface(path) -> GridSurface:
    """Read a grid file, validate it, and wrap it as a usable surface."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if len(lines) < 3 or not lines[0].startswith("#"):
        raise FormatError("missing metadata comment line")

    meta = {}
    for token in lines[0][1:].split():
        key, _, val = token.partition("=")
        if not val:
            raise FormatError(f"bad metadata token '{token}'")
        meta[key] = val
    try:
        periodic_u = meta["periodic_u"] == "true"
        periodic_v = meta["periodic_v"] == "true"
        du = [float(x) for x in meta["domain_u"].strip("[]").split(",")]
        dv = [float(x) for x in meta["domain_v"].strip("[]").split(",")]
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad metadata line: {exc}") from exc

    if lines[1].replace(" ", "") != "u,v,x1,x2,x3,x4":
        raise FormatError(f"bad header line '{lines[1]}'")

    try:
        data = np.array([[float(x) for x in ln.split(",")] for ln in lines[2:]])
    except ValueError as exc:
        raise FormatError(f"bad data row: {exc}") from exc
    if data.ndim != 2 or data.shape[1] != 6:
        raise FormatError("each data row must have 6 columns")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        raise FormatError(f"non-finite value in data row {bad[0] + 1}: '{lines[2 + bad[0]]}'")

    nodes_u = np.unique(data[:, 0])
    nodes_v = np.unique(data[:, 1])
    nu, nv = len(nodes_u), len(nodes_v)
    if nu * nv != len(data):
        raise FormatError(f"expected {nu}x{nv} rows, got {len(data)}")
    if not np.allclose(data[:, 0], np.repeat(nodes_u, nv)) or \
       not np.allclose(data[:, 1], np.tile(nodes_v, nu)):
        raise FormatError("rows are not row-major over a uniform grid")
    for n, periodic in ((nu, periodic_u), (nv, periodic_v)):
        if n < (MIN_PERIODIC_RESOLUTION if periodic else _STENCIL):
            raise ResolutionTooCoarse(
                f"need >= {MIN_PERIODIC_RESOLUTION} nodes per periodic direction and >= "
                f"{_STENCIL} per non-periodic direction ({_STENCIL}-point stencil), got {nu}x{nv}")
    for nodes in (nodes_u, nodes_v):
        steps = np.diff(nodes)
        if not np.allclose(steps, steps[0], rtol=1e-9, atol=1e-12):
            raise FormatError("grid nodes are not uniformly spaced")

    pos = data[:, 2:].reshape(nu, nv, 4)
    norms = np.linalg.norm(pos, axis=-1)
    if np.any(np.abs(norms - 1.0) > ON_SPHERE_TOL):
        bad = np.unravel_index(int(np.argmax(np.abs(norms - 1.0))), norms.shape)
        raise OffSphere(f"sample at grid index {bad} has norm {norms[bad]!r}")

    return GridSurface(nodes_u, nodes_v, pos, tuple(du), tuple(dv),
                       periodic_u, periodic_v, name=str(path))
