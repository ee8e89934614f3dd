"""Spans and counters around s3pinch's public functions, recorded from outside.

`Tracer.installed()` swaps each traced function in the module namespace the
library looks it up in for a wrapper that records a span (name, start, end,
parent, certificate id), and restores the originals on exit. The surface a
certificate works on is wrapped in `SurfaceProxy`, which counts and times
`point` and `side_classifier` calls made inside the real `genus_report` /
`verify_sum_inequality` path. No library file is changed.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

import numpy as np

from s3pinch import catalog, geometry, gridio, pinch, quadrature, tube

# (module, attribute, span name). A function imported into several modules
# is patched in each namespace that calls it.
TARGETS = (
    (catalog, "parse_surface", "catalog.parse_surface"),
    (tube, "sample_s3", "catalog.sample_s3"),
    (geometry, "cross4", "geometry.cross4"),
    (quadrature, "curvature_at", "geometry.curvature_at"),
    (quadrature, "make_grid", "quadrature.make_grid"),
    (quadrature, "genus_report", "quadrature.genus_report"),
    (tube, "genus_report", "quadrature.genus_report"),
    (quadrature, "_node_data", "quadrature.node_data"),
    (tube, "_node_data", "quadrature.node_data"),
    (quadrature, "f_pinch", "pinch.f_pinch"),
    (tube, "hk_time_integral", "pinch.hk_time_integral"),
    (tube, "prop1_integrand", "pinch.prop1_integrand"),
    (tube, "verify_sum_inequality", "tube.verify_sum_inequality"),
    (tube, "monte_carlo_volume", "tube.monte_carlo_volume"),
    (gridio, "export_grid", "gridio.export_grid"),
    (gridio, "import_surface", "gridio.import_surface"),
    (gridio, "GridSurface", "gridio.fd_build"),
)
# Functions whose result is the surface a certificate works on.
SURFACE_FACTORIES = {"catalog.parse_surface", "gridio.import_surface"}
MODULES = ("cli", "catalog", "geometry", "quadrature", "tube", "pinch", "gridio")

# Per-layer metric name -> (span name, "total" or "self"), per certificate.
SPAN_METRICS = {
    "cli.overhead_s": ("cli.main", "self"),
    "catalog.construct_s": ("catalog.parse_surface", "total"),
    "catalog.point_s": ("catalog.point", "total"),
    "catalog.classify_s": ("catalog.side_classifier", "total"),
    "quadrature.genus_report_s": ("quadrature.genus_report", "total"),
    "quadrature.make_grid_s": ("quadrature.make_grid", "total"),
    "tube.verify_s": ("tube.verify_sum_inequality", "total"),
    "gridio.export_s": ("gridio.export_grid", "total"),
    "gridio.import_s": ("gridio.import_surface", "total"),
    "gridio.parse_s": ("gridio.import_surface", "self"),
}
COUNT_METRICS = ("catalog.point_calls", "catalog.point_nodes", "catalog.classify_samples")


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, cert id]
        self.counts: list[tuple] = []  # (cert id, name, amount)
        self.cert = None
        self._stack: list[int] = []
        self._counted: list[BaseException] = []

    @contextlib.contextmanager
    def span(self, name: str, module: str | None = None):
        """Record a span; an exception leaving it counts against `module`,
        by default the module the span is named after."""
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.cert])
        self._stack.append(idx)
        try:
            yield
        except Exception as exc:
            # Count each exception once, in the innermost module it left.
            if not any(exc is seen for seen in self._counted):
                self._counted.append(exc)
                self.count((module or name.split(".")[0]) + ".errors", 1)
            raise
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount) -> None:
        self.counts.append((self.cert, name, amount))

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            return SurfaceProxy(out, self) if name in SURFACE_FACTORIES else out
        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in TARGETS]
        try:
            for mod, attr, name in TARGETS:
                setattr(mod, attr, self._wrap(getattr(mod, attr), name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def to_json(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def merge(self, doc: dict, cert) -> None:
        """Add the spans and counts another process recorded for `cert`."""
        base = len(self.spans)
        for name, start, end, parent, _ in doc["spans"]:
            self.spans.append([name, start, end, None if parent is None else parent + base, cert])
        self.counts.extend((cert, name, amount) for _, name, amount in doc["counts"])


class SurfaceProxy:
    """Delegates to a surface, timing and counting `point` and `side_classifier`."""

    def __init__(self, surface, tracer: Tracer):
        self._surface = surface
        self._tracer = tracer
        # Errors count against the module that implements the surface.
        self._module = type(surface).__module__.rsplit(".", 1)[-1]

    def __getattr__(self, name):
        return getattr(self._surface, name)

    def point(self, u, v):
        self._tracer.count("catalog.point_calls", 1)
        self._tracer.count("catalog.point_nodes", int(np.broadcast(u, v).size))
        with self._tracer.span("catalog.point", self._module):
            return self._surface.point(u, v)

    def side_classifier(self, x):
        self._tracer.count("catalog.classify_samples", int(np.shape(x)[0]))
        with self._tracer.span("catalog.side_classifier", self._module):
            return self._surface.side_classifier(x)


def per_cert(tracer: Tracer) -> dict:
    """{cert id: {metric: value}} for every span and count metric.

    A span's total excludes spans of the same name nested in it; its self
    time is its duration minus the time its child spans cover.
    """
    spans = tracer.spans
    children = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            children[parent] += end - start
    out: dict = {}
    for i, (name, start, end, parent, cert) in enumerate(spans):
        row = out.setdefault(cert, {})
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            row[("total", name)] = row.get(("total", name), 0.0) + end - start
        row[("self", name)] = row.get(("self", name), 0.0) + end - start - children[i]
    for cert, name, amount in tracer.counts:
        row = out.setdefault(cert, {})
        row[name] = row.get(name, 0) + amount
    result = {}
    for cert, row in out.items():
        metrics = {m: row.get((kind, span), 0.0) for m, (span, kind) in SPAN_METRICS.items()}
        metrics.update({m: row.get(m, 0) for m in COUNT_METRICS})
        metrics.update({f"{mod}.errors": row.get(f"{mod}.errors", 0) for mod in MODULES})
        metrics["gridio.export_mb"] = row.get("gridio.export_bytes", 0) / 1e6
        result[cert] = metrics
    return result


def layer_medians(tracer: Tracer, certs) -> dict:
    """Median over the traced certificates of each per-certificate metric."""
    rows = per_cert(tracer)
    rows = [rows[c] for c in certs if c in rows]
    return {m: statistics.median(r[m] for r in rows) for m in rows[0]}


def _median_time(fn, reps: int) -> float:
    """Median wall time of `reps` calls."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernels(surface, resolution: int, samples: int, seed: int, reps: int = 5) -> dict:
    """Time single library kernels on the workload's own surface and sizes."""
    grid = quadrature.make_grid(surface, resolution, resolution)
    U, V = np.meshgrid(grid.nodes_u, grid.nodes_v, indexing="ij")
    p = surface.point(U, V)
    cd = geometry.curvature_at(p)
    out = {
        "geometry.curvature_s": _median_time(lambda: geometry.curvature_at(p), reps),
        "geometry.cross4_s": _median_time(lambda: geometry.cross4(p.position, p.du, p.dv), reps),
        "pinch.f_pinch_s": _median_time(lambda: pinch.f_pinch(cd.traceless_norm), reps),
        "pinch.hk_time_integral_s": _median_time(lambda: pinch.hk_time_integral(cd.k1, cd.k2), reps),
        "tube.side_upper_bound_s": _median_time(lambda: tube.side_upper_bound(surface, 1, grid), reps),
        "catalog.sample_s3_s": _median_time(
            lambda: catalog.sample_s3(samples, np.random.Generator(np.random.Philox(seed))), reps),
        "tube.monte_carlo_s": _median_time(
            lambda: tube.monte_carlo_volume(surface, 1, samples, seed=seed), reps),
    }
    out["geometry.nodes_per_s"] = U.size / out["geometry.curvature_s"]
    out["tube.mc_samples_per_s"] = samples / out["tube.monte_carlo_s"]

    # The finite-difference build of an imported grid, on samples of this
    # surface at the cell-centre nodes export_grid writes.
    def nodes(domain, periodic):
        lo, hi = domain
        return lo + (hi - lo) * (np.arange(resolution) + (0.0 if periodic else 0.5)) / resolution

    xu = nodes(surface.domain_u, surface.periodic_u)
    xv = nodes(surface.domain_v, surface.periodic_v)
    pos = surface.point(*np.meshgrid(xu, xv, indexing="ij")).position
    out["gridio.fd_s"] = _median_time(lambda: gridio.GridSurface(
        xu, xv, pos, surface.domain_u, surface.domain_v,
        surface.periodic_u, surface.periodic_v), reps)
    return out
