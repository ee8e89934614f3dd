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

import itertools
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
    """Apply a 7-point finite-difference stencil along one axis: one centred
    stencil for every periodic or interior node, one-sided weights for the
    3 + 3 non-periodic boundary rows (Fornberg 1988)."""
    half = _STENCIL // 2
    w = _fd_weights(np.arange(-half, half + 1), order)
    if periodic:
        out = np.zeros_like(values)
        for k, off in enumerate(range(-half, half + 1)):
            out += w[k] * np.roll(values, -off, axis=axis)
        return out / h ** order
    vals = np.moveaxis(values, axis, 0)
    n = len(vals)
    res = np.empty_like(vals)
    res[half:n - half] = sum(w[k] * vals[k:n - 2 * half + k] for k in range(_STENCIL))
    for i in (*range(half), *range(n - half, n)):
        start = min(max(i - half, 0), n - _STENCIL)
        wb = _fd_weights(np.arange(start, start + _STENCIL) - i, order)
        res[i] = np.tensordot(wb, vals[start:start + _STENCIL], axes=(0, 0))
    return np.moveaxis(res, 0, axis) / h ** order


class GridSurface(Surface):
    """Surface defined by position samples on a uniform parameter grid."""

    sampled = True

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
    table = np.concatenate([U[..., None], V[..., None], surface.point(U, V).position], axis=-1)
    # %r of a Python float is its shortest round-trip repr.
    u_line = "%r,%r,%r,%r,%r,%r\n" * nv

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
        for block in table:
            fh.write(u_line % tuple(block.ravel().tolist()))


def _content_lines(fh):
    """Non-blank lines of a grid file: metadata, header, then the data rows."""
    return (ln for ln in fh if not ln.isspace())


def import_surface(path) -> GridSurface:
    """Read a grid file, validate it, and wrap it as a usable surface."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _content_lines(fh)
            meta_line, header, first_row = (next(lines, "").strip() for _ in range(3))
            if not first_row or not meta_line.startswith("#"):
                raise FormatError("missing metadata comment line")
            # numpy's C reader parses each value exactly as float() does.
            data = np.loadtxt(itertools.chain([first_row], lines), delimiter=",",
                              ndmin=2, comments=None)
    except UnicodeDecodeError as exc:
        raise FormatError(f"grid file is not UTF-8: {exc}") from exc
    except ValueError as exc:  # a bad token or a changed column count
        raise FormatError(f"bad data row: {exc}") from exc

    meta = {}
    for token in meta_line[1:].split():
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
    for d in (du, dv):
        if len(d) != 2 or not d[0] < d[1] or not math.isfinite(d[1] - d[0]):
            raise FormatError(f"bad metadata line: domain {d} is not [lo,hi] with finite lo < hi")

    if header.replace(" ", "") != "u,v,x1,x2,x3,x4":
        raise FormatError(f"bad header line '{header}'")

    if data.shape[1] != 6:
        raise FormatError("each data row must have 6 columns")
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if bad.size:
        with open(path, "r", encoding="utf-8") as fh:
            row = next(itertools.islice(_content_lines(fh), 2 + bad[0], None)).strip()
        raise FormatError(f"non-finite value in data row {bad[0] + 1}: '{row}'")

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
