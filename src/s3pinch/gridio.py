"""Import/export of sampled surface grids.

File format: UTF-8 CSV with a leading comment line

    # periodic_u=true periodic_v=true domain_u=[0,6.283185307] domain_v=[0,6.283185307]

followed by the header ``u,v,x1,x2,x3,x4`` and rows in row-major order over a
uniform (Nu x Nv) parameter grid whose n nodes per direction, spaced h apart, tile
that direction's domain [lo, hi]: a periodic direction excludes the duplicate
endpoint (n*h = hi - lo); a non-periodic one holds either both endpoints
((n-1)*h = hi - lo, first node lo) or the cell centres that export writes
(n*h = hi - lo, first node lo + h/2).

Imported surfaces get their partials from the samples alone, so they are usable
only at their own nodes: spectral along a periodic direction, 6th-order
finite-difference stencils along a non-periodic one.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .catalog import Surface
from .errors import FormatError, OffSampleGrid, OffSphere, ResolutionTooCoarse
from .geometry import SurfacePoint
from .quadrature import NODE_TILE, QuadratureGrid

ON_SPHERE_TOL = 1e-6
SPACING_RTOL = 1e-9  # node spacing, and a domain's tiling, relative to its own size
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
    """d^order/dx^order along one axis: spectral on a periodic axis, exact for every Fourier
    mode its n samples resolve (Trefethen 2000, ch. 3); else a 7-point stencil, centred on
    every interior node and one-sided on the 3 + 3 boundary rows (Fornberg 1988)."""
    vals = np.moveaxis(values, axis, 0)
    n = len(vals)
    if periodic:
        ik = 2j * np.pi * np.fft.rfftfreq(n, h)  # period n*h
        spectrum = (np.fft.rfft(vals, axis=0).T * ik ** order).T  # .T: broadcast along axis 0
        # irfft reads an even n's Nyquist term as real, dropping its odd derivatives (0 at nodes)
        return np.moveaxis(np.fft.irfft(spectrum, n, axis=0), 0, axis)
    half = _STENCIL // 2
    w = _fd_weights(np.arange(-half, half + 1), order)
    res = np.empty_like(vals)
    inner = res[half:n - half]
    np.multiply(w[0], vals[:len(inner)], out=inner)
    for k in range(1, _STENCIL):
        inner += w[k] * vals[k:k + len(inner)]
    for i in (*range(half), *range(n - half, n)):
        start = min(max(i - half, 0), n - _STENCIL)
        wb = _fd_weights(np.arange(start, start + _STENCIL) - i, order)
        res[i] = np.tensordot(wb, vals[start:start + _STENCIL], axes=(0, 0))
    return np.moveaxis(res, 0, axis) / h ** order


def _check_resolution(nu: int, nv: int, periodic_u: bool, periodic_v: bool) -> None:
    """ResolutionTooCoarse unless each direction has the nodes its partials need."""
    for n, periodic in ((nu, periodic_u), (nv, periodic_v)):
        if n < (MIN_PERIODIC_RESOLUTION if periodic else _STENCIL):
            raise ResolutionTooCoarse(
                f"need >= {MIN_PERIODIC_RESOLUTION} nodes per periodic direction and >= "
                f"{_STENCIL} per non-periodic direction ({_STENCIL}-point stencil), got {nu}x{nv}")


class GridSurface(Surface):
    """Surface defined by position samples on a uniform parameter grid, kept with their
    partials as (4, Nu, Nv) arrays; ``positions`` may be 4 components broadcasting to (Nu, Nv)."""

    sampled = True

    def __init__(self, nodes_u, nodes_v, positions, domain_u, domain_v,
                 periodic_u, periodic_v, name="imported"):
        self.nodes_u = np.asarray(nodes_u, dtype=float)
        self.nodes_v = np.asarray(nodes_v, dtype=float)
        if not isinstance(positions, np.ndarray):  # an array is kept, not copied
            positions = np.array(np.broadcast_arrays(*positions))
        self.positions = X = np.asarray(positions, dtype=float)
        self.domain_u = domain_u
        self.domain_v = domain_v
        self.periodic_u = periodic_u
        self.periodic_v = periodic_v
        self.name = name

        hu = self.nodes_u[1] - self.nodes_u[0]
        hv = self.nodes_v[1] - self.nodes_v[0]
        du = _derivative(X, 1, hu, 1, periodic_u)
        self._fields = (X, du, _derivative(X, 2, hv, 1, periodic_v),
                        _derivative(X, 1, hu, 2, periodic_u), _derivative(du, 2, hv, 1, periodic_v),
                        _derivative(X, 2, hv, 2, periodic_v))

    def _indices(self, coords, nodes) -> np.ndarray:
        h = nodes[1] - nodes[0]
        idx = np.rint((np.asarray(coords, dtype=float) - nodes[0]) / h).astype(int)
        idx = idx % len(nodes)
        if np.any(np.abs(nodes[idx] - coords) > 1e-8 * max(1.0, abs(h))):
            raise OffSampleGrid("imported surfaces are only defined at their sample nodes")
        return idx

    def point(self, u, v) -> SurfacePoint:
        i = self._indices(u, self.nodes_u)
        j = self._indices(v, self.nodes_v)
        if i.shape[1:] == (1,) and np.array_equal(j, [np.arange(len(self.nodes_v))]) \
           and np.all(np.diff(i[:, 0]) == 1):  # whole u-rows, as a tile asks: slices
            return SurfacePoint(*(x[:, i[0, 0]:i[-1, 0] + 1] for x in self._fields))
        return SurfacePoint(*(x[:, i, j] for x in self._fields))

    def natural_grid(self) -> QuadratureGrid:
        """Quadrature grid over the sample nodes, weighted by `_line_weights`."""
        return QuadratureGrid(self.nodes_u, self.nodes_v,
                              _line_weights(self.nodes_u, self.domain_u, self.periodic_u),
                              _line_weights(self.nodes_v, self.domain_v, self.periodic_v))


def _line_weights(nodes, domain, periodic) -> np.ndarray:
    """Weights of one direction's uniform nodes: equispaced if periodic, else trapezoid on
    both endpoints or midpoint on cell centres; FormatError unless the nodes tile so."""
    (lo, hi), n = domain, len(nodes)
    h = (nodes[-1] - nodes[0]) / (n - 1)

    def close(a, b):
        return abs(a - b) <= SPACING_RTOL * (hi - lo)

    if not periodic and close((n - 1) * h, hi - lo) and close(nodes[0], lo):
        w = np.full(n, nodes[1] - nodes[0])
        w[0] = w[-1] = w[0] / 2.0
        return w
    if close(n * h, hi - lo) and (periodic or close(nodes[0], lo + h / 2)):
        return np.full(n, (hi - lo) / n)
    raise FormatError(f"{n} nodes from {float(nodes[0])!r} spaced {float(h)!r} do not tile the "
                      f"{'periodic' if periodic else 'non-periodic'} domain [{lo!r},{hi!r}]")


def export_grid(surface: Surface, nu: int, nv: int, path) -> None:
    """Sample a surface on a uniform grid and write the CSV grid file, in tiles of whole
    u-rows (about NODE_TILE // 4 nodes): each distinct double of a tile, told apart by its
    bits so that -0.0 stays -0.0, is printed once in repr's shortest round-trip digits.
    A resolution import_surface would reject raises ResolutionTooCoarse first."""
    def nodes(domain, n, periodic):
        lo, hi = domain
        if periodic:
            return lo + (hi - lo) * np.arange(n) / n
        # Cell centres: keeps chart-degenerate domain endpoints (e.g. the
        # poles of a sphere chart) out of the sample set.
        return lo + (hi - lo) * (np.arange(n) + 0.5) / n

    _check_resolution(nu, nv, surface.periodic_u, surface.periodic_v)
    xu = nodes(surface.domain_u, nu, surface.periodic_u)
    xv = nodes(surface.domain_v, nv, surface.periodic_v)
    u_line = "%s,%s,%s,%s,%s,%s\n" * nv

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
        step = max(1, NODE_TILE // 4 // nv)
        for i in range(0, nu, step):
            uv = xu[i:i + step, None], xv[None, :]
            table = np.stack(np.broadcast_arrays(*uv, *surface.point(*uv).position), axis=-1)
            bits, inverse = np.unique(table.view(np.int64), return_inverse=True)
            text = list(map(repr, bits.view(np.float64).tolist()))
            # numpy 1.x returns the inverse flat, 2.x in the table's shape.
            for row in inverse.reshape(len(table), -1).tolist():
                fh.write(u_line % tuple(map(text.__getitem__, row)))


def _content_lines(fh):
    """Non-blank lines of a grid file: metadata, header, then the data rows."""
    return (ln for ln in fh if not ln.isspace())


def import_surface(path) -> GridSurface:
    """Read a grid file, validate it, and wrap it as a usable surface."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = _content_lines(fh)
            meta_line, header, first_row = (next(lines, "").strip() for _ in range(3))
            if not meta_line.startswith("#"):
                raise FormatError("missing metadata comment line")
            if not first_row:
                raise FormatError("no data rows follow the header")
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
    _check_resolution(nu, nv, periodic_u, periodic_v)
    for nodes, domain, periodic in ((nodes_u, du, periodic_u), (nodes_v, dv, periodic_v)):
        steps = np.diff(nodes)
        if not np.allclose(steps, steps[0], rtol=SPACING_RTOL, atol=1e-12):
            raise FormatError("grid nodes are not uniformly spaced")
        _line_weights(nodes, domain, periodic)  # FormatError unless they tile the domain

    pos = data[:, 2:].T.reshape(4, nu, nv)
    norms = np.linalg.norm(pos, axis=0)
    if np.any(np.abs(norms - 1.0) > ON_SPHERE_TOL):
        bad = np.unravel_index(int(np.argmax(np.abs(norms - 1.0))), norms.shape)
        raise OffSphere(f"sample at grid index {bad} has norm {norms[bad]!r}")

    return GridSurface(nodes_u, nodes_v, pos, tuple(du), tuple(dv),
                       periodic_u, periodic_v, name=str(path))
