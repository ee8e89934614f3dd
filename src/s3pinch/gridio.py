"""Import/export of sampled surface grids.

File format: UTF-8 CSV with a leading comment line

    # periodic_u=true periodic_v=true domain_u=[0,6.283185307] domain_v=[0,6.283185307]

followed by the header ``u,v,x1,x2,x3,x4`` and rows in row-major order over a
uniform (Nu x Nv) parameter grid, each direction's n nodes where
``quadrature._line_rule(lo, hi, n, periodic, centres=True)`` places them.

A non-periodic direction is polar, as in `quadrature`: the chart collapses to a
point at lo and at hi, which its cell-centre nodes leave out, and the other,
periodic direction turns about them. Imported surfaces get their partials from
the samples alone, so they are usable only at their own nodes. Every direction
is differentiated spectrally, a polar one once it is continued across both
poles into a periodic line, and weighted by Fejer's first rule.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .catalog import Surface
from .errors import FormatError, OffSampleGrid, OffSphere, ResolutionTooCoarse
from .geometry import SurfacePoint
from .quadrature import NODE_TILE, QuadratureGrid, _line_rule

ON_SPHERE_TOL = 1e-6
SPACING_RTOL = 1e-9  # node spacing, and nodes off `_line_rule`'s, relative to their own size
MIN_PERIODIC_RESOLUTION = 16


def _partials(x: np.ndarray, axis: int, h: float, periodic: bool, out) -> None:
    """Write into out the first and, given a second array, the second derivative of one
    component's 2-D samples along an axis of nodes spaced h, from one discrete Fourier series:
    exact for every Fourier mode the samples resolve (Trefethen 2000, ch. 3). A polar axis,
    whose other axis is periodic, is continued across both poles: x(-s, u) = x(s, u + half
    turn), so its n cell-centre samples, then the same reversed and half-turned, are a periodic
    line of 2n nodes (the double Fourier sphere; Townsend, Wilber & Wright 2016) whose
    derivatives' first n values are the partials. The half turn multiplies Fourier mode m by
    (-1)^m, exact for every mode the samples resolve, for an odd node count too."""
    x = np.moveaxis(x, axis, 1)
    n = m = x.shape[1]
    if periodic:
        spectrum = np.fft.rfft(x, axis=1)
    else:  # the continued line is not kept: only its spectrum is
        turn = (-1.0) ** np.arange(len(x) // 2 + 1)[:, None]
        turned = np.fft.irfft(np.fft.rfft(x, axis=0) * turn, len(x), axis=0)
        spectrum, m = np.fft.rfft(np.concatenate([x, turned[:, ::-1]], axis=1), axis=1), 2 * n
    ik = 2j * np.pi * np.fft.rfftfreq(m, h)  # period m * h
    for y, k in zip(out, (1, 2)):
        # irfft reads an even n's Nyquist term as real, dropping its odd derivatives (0 at nodes)
        y[...] = np.moveaxis(np.fft.irfft(spectrum * ik ** k, m, axis=1)[:, :n], 1, axis)


def _check_resolution(nu: int, nv: int, periodic_u: bool, periodic_v: bool) -> None:
    """FormatError unless some direction is periodic, for a polar one to turn about; then
    ResolutionTooCoarse unless each direction has the nodes its partials need. A polar
    direction's continued line has twice its nodes, so it needs half the periodic floor."""
    if not (periodic_u or periodic_v):
        raise FormatError("no periodic direction: a non-periodic direction must be polar, "
                          "with the other direction periodic")
    if min(nu if periodic_u else 2 * nu, nv if periodic_v else 2 * nv) < MIN_PERIODIC_RESOLUTION:
        raise ResolutionTooCoarse(
            f"need >= {MIN_PERIODIC_RESOLUTION} nodes per periodic direction and >= "
            f"{MIN_PERIODIC_RESOLUTION // 2} per polar (non-periodic) direction, got {nu}x{nv}")


class GridSurface(Surface):
    """Surface defined by position samples on a uniform parameter grid, kept with their
    partials as (4, Nu, Nv) arrays; ``positions`` may be 4 components broadcasting to (Nu, Nv).
    FormatError unless `_check_resolution` and `_line_weights` accept the nodes, which are then
    `_line_rule`'s and tile their domain; then OffSphere unless every position's norm is within
    ON_SPHERE_TOL of 1."""

    sampled = True

    def __init__(self, nodes_u, nodes_v, positions, domain_u, domain_v,
                 periodic_u, periodic_v, name="imported"):
        self.nodes_u = np.asarray(nodes_u, dtype=float)
        self.nodes_v = np.asarray(nodes_v, dtype=float)
        _check_resolution(len(self.nodes_u), len(self.nodes_v), periodic_u, periodic_v)
        self._weights = (_line_weights(self.nodes_u, domain_u, periodic_u),
                         _line_weights(self.nodes_v, domain_v, periodic_v))
        if not isinstance(positions, np.ndarray):  # an array is kept, not copied
            positions = np.array(np.broadcast_arrays(*positions))
        self.positions = X = np.asarray(positions, dtype=float)
        norms = np.linalg.norm(X, axis=0)
        if np.any(np.abs(norms - 1.0) > ON_SPHERE_TOL):
            bad = tuple(map(int, np.unravel_index(np.argmax(np.abs(norms - 1.0)), norms.shape)))
            raise OffSphere(f"sample at grid index {bad} has norm {float(norms[bad])!r}")
        self.domain_u = domain_u
        self.domain_v = domain_v
        self.periodic_u = periodic_u
        self.periodic_v = periodic_v
        self.name = name

        hu, hv = self.nodes_u[1] - self.nodes_u[0], self.nodes_v[1] - self.nodes_v[0]
        fields = np.empty((5, *X.shape))  # du, dv, duu, duv, dvv, a component at a time
        for x, (du, dv, duu, duv, dvv) in zip(X, fields.transpose(1, 0, 2, 3)):
            _partials(x, 0, hu, periodic_u, (du, duu))
            _partials(x, 1, hv, periodic_v, (dv, dvv))
            _partials(du, 1, hv, periodic_v, (duv,))
        self._fields = (X, *fields)

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
        return QuadratureGrid(self.nodes_u, self.nodes_v, *self._weights)


def _line_weights(nodes, domain, periodic) -> np.ndarray:
    """The weights of ``_line_rule(*domain, len(nodes), periodic, centres=True)``; FormatError
    unless the nodes are uniformly spaced and are that rule's nodes."""
    steps = np.diff(nodes)
    if not np.allclose(steps, steps[0], rtol=SPACING_RTOL, atol=1e-12):
        raise FormatError("grid nodes are not uniformly spaced")
    (lo, hi), n = domain, len(nodes)
    rule_nodes, weights = _line_rule(lo, hi, n, periodic, centres=True)
    if np.all(np.abs(nodes - rule_nodes) <= SPACING_RTOL * (hi - lo)):
        return weights
    h = (nodes[-1] - nodes[0]) / (n - 1)
    raise FormatError(f"{n} nodes from {float(nodes[0])!r} spaced {float(h)!r} do not tile the "
                      + (f"periodic domain [{lo!r},{hi!r}] from lo" if periodic else
                         f"non-periodic domain [{lo!r},{hi!r}] at its cell centres, as a polar "
                         "direction must"))


def export_grid(surface: Surface, nu: int, nv: int, path) -> None:
    """Sample a surface on a uniform grid and write the CSV grid file, in tiles of whole
    u-rows (about NODE_TILE // 4 nodes): each distinct double of a tile, told apart by its
    bits so that -0.0 stays -0.0, is printed once in repr's shortest round-trip digits.
    A resolution import_surface would reject raises ResolutionTooCoarse first."""
    _check_resolution(nu, nv, surface.periodic_u, surface.periodic_v)
    xu = _line_rule(*surface.domain_u, nu, surface.periodic_u, centres=True)[0]
    xv = _line_rule(*surface.domain_v, nv, surface.periodic_v, centres=True)[0]
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

    return GridSurface(nodes_u, nodes_v, data[:, 2:].T.reshape(4, nu, nv), tuple(du), tuple(dv),
                       periodic_u, periodic_v, name=str(path))
