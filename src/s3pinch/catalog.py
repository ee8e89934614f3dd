"""Exact parametric surface families in the unit 3-sphere.

Each is a radial graph x = cos(rho) A + sin(rho) B over an orthonormal model pair:
the sphere chart, A = e4 and B = d(theta, phi), or the Hopf chart, A = (e^{iu}, 0)
and B = (0, e^{iv}); geodesic spheres and flat tori have constant rho and carry no
partials of it.  Each also has a side classifier and whatever closed-form data
(area, side volumes, curvatures, first eigenvalue) exists for it.

Orientation convention used throughout the toolkit: the frame normal is
cross4(position, du, dv) normalized, and *side 1* is the region that normal
points into.  The parameter charts below are ordered so that a geodesic
sphere gets normal curvature +cot(r) (normal into the ball).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .geometry import SurfacePoint, dot
from .pinch import FOUR_PI_SQ, S3_VOLUME, SQRT2

TWO_PI = 2.0 * math.pi

_R_MIN = 1e-3
_EPS_CAP = 0.3
_MINIMAL_TOL = 1e-9
# Largest spherical-harmonic degree: (l + |m|)! <= 170! is still a finite double.
_L_MAX = 85
# Fewest nodes per direction of the grid, poles included, on which a PerturbedSphere's
# radius is checked to lie in (0, pi); degree l takes 4(l + 1). Where it does, EG - F^2 =
# sin^2 rho (rho_phi^2 + sin^2 theta (rho_theta^2 + sin^2 rho)) > 0 off the poles, so the
# chart is an immersion on the probe.
_RADIUS_PROBE = 24


class Surface:
    """Base class: a parametric immersion (u, v) -> S^3 with side data.  A catalog surface
    gives ``_radius(u, v)``: cos rho, sin rho, then rho's partials only where rho varies; and
    ``_chart(u, v, p, q)``: p A + q B and its partials; a float p or q scales 1-D factors."""

    name: str = "surface"
    domain_u: tuple[float, float] = (0.0, TWO_PI)
    domain_v: tuple[float, float] = (0.0, TWO_PI)
    periodic_u: bool = True
    periodic_v: bool = True
    # True when the surface is known only at its samples, with no side classifier:
    # verify_sum_inequality then skips MC.
    sampled: bool = False

    # Closed-form data, None when unavailable.
    exact_area: float | None = None
    exact_side_volumes: tuple[float, float] | None = None
    exact_lambda1: float | None = None
    exact_principal_curvatures: tuple[float, float] | None = None

    def point(self, u, v) -> SurfacePoint:
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        c, s, *partials = self._radius(u, v)
        x = self._chart(u, v, c, s)
        if not partials:  # constant rho: no rho term, so no tile is multiplied by 0.0
            return SurfacePoint(*x)
        # Chain rule through T = dx/drho = -sin(rho) A + cos(rho) B, with dT/drho = -x:
        # x_a = X_a + rho_a T, x_ab = X_ab + rho_a T_b + rho_b T_a - rho_a rho_b x + rho_ab T,
        # with fields and rho's partials both indexed u, v, uu, uv, vv = 1 ... 5.
        t, r = self._chart(u, v, -s, c), (None, *partials)
        fields = [x[0]] + [tuple(y + r[a] * z for y, z in zip(x[a], t[0])) for a in (1, 2)]
        for ab, a, b in ((3, 1, 1), (4, 1, 2), (5, 2, 2)):
            rr = r[a] * r[b]
            fields.append(tuple(y + r[a] * zb + r[b] * za - rr * p + r[ab] * z
                                for y, zb, za, p, z in zip(x[ab], t[b], t[a], x[0], t[0])))
        return SurfacePoint(*fields)

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        """True where the unit 4-vector(s) x lie on side 1."""
        raise NotImplementedError


class _SphereChart(Surface):
    """Geodesic-polar chart about the pole e4: u = azimuth, v = polar angle in (0, pi)."""

    periodic_v = False
    domain_v = (0.0, math.pi)

    def __init__(self, r: float):
        if not np.isfinite(r) or not (_R_MIN <= r <= math.pi - _R_MIN):
            raise DomainError(f"sphere radius must lie in [{_R_MIN}, pi-{_R_MIN}], got {r}")
        self.r = float(r)

    def _chart(self, u, v, p, q):
        # p e4 + q d, with d = (sin v cos u, sin v sin u, cos v) in the first three coordinates.
        st, ct = np.sin(v), np.cos(v)
        sp_, cp = np.sin(u), np.cos(u)
        qs, qc = q * st, q * ct
        x, y = qs * cp, qs * sp_
        dv = (qc * cp, qc * sp_, -qs, 0.0)
        return ((x, y, qc, p), (-y, x, 0.0, 0.0), dv, (-x, -y, 0.0, 0.0),
                (-dv[1], dv[0], 0.0, 0.0), (-x, -y, -qc, 0.0))


class GeodesicSphere(_SphereChart):
    """Distance sphere of radius r about (0,0,0,1), the sphere chart at rho = r."""

    def __init__(self, r: float):
        super().__init__(r)
        self.name = f"sphere:r={self.r:.10g}"
        sr = math.sin(self.r)
        ball = math.pi * (2.0 * self.r - math.sin(2.0 * self.r))
        self.exact_area = 4.0 * math.pi * sr * sr
        self.exact_side_volumes = (ball, S3_VOLUME - ball)
        self.exact_lambda1 = 2.0 / (sr * sr)
        k = 1.0 / math.tan(self.r)
        self.exact_principal_curvatures = (k, k)

    def _radius(self, u, v):
        return math.cos(self.r), math.sin(self.r)

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., 3] > math.cos(self.r)


class FlatTorus(Surface):
    """Product torus (a e^{iu}, b e^{iv}), b = sqrt(1-a^2): the Hopf chart at rho = acos(a).

    Flat (K = 0), principal curvatures {-a/b, b/a} with respect to the frame
    normal, which points into the solid torus {x1^2 + x2^2 < a^2} (side 1).
    a = 1/sqrt(2) is the Clifford torus, the minimal member of the family.
    """

    def __init__(self, a: float):
        if not np.isfinite(a) or not (0.0 < a < 1.0):
            raise DomainError(f"torus parameter must lie in (0, 1), got {a}")
        self.a = float(a)
        self.b = math.sqrt(1.0 - self.a * self.a)
        self.name = f"torus:a={self.a:.10g}"
        self.exact_area = FOUR_PI_SQ * self.a * self.b
        self.exact_side_volumes = (S3_VOLUME * self.a ** 2, S3_VOLUME * self.b ** 2)
        self.exact_principal_curvatures = (-self.a / self.b, self.b / self.a)
        if abs(self.a - 1.0 / SQRT2) < _MINIMAL_TOL:  # the Clifford torus
            self.exact_lambda1 = 2.0

    def _chart(self, u, v, p, q):
        # p (e^{iu}, 0) + q (0, e^{iv}).
        x, y = p * np.cos(u), p * np.sin(u)
        z, w = q * np.cos(v), q * np.sin(v)
        return ((x, y, z, w), (-y, x, 0.0, 0.0), (0.0, 0.0, -w, z),
                (-x, -y, 0.0, 0.0), (0.0,) * 4, (0.0, 0.0, -z, -w))

    def _radius(self, u, v):
        return self.a, self.b

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return x[..., 0] ** 2 + x[..., 1] ** 2 < self.a ** 2


def clifford_torus() -> FlatTorus:
    """The minimal flat torus, a = 1/sqrt(2)."""
    return FlatTorus(1.0 / math.sqrt(2.0))


class PerturbedSphere(_SphereChart):
    """Geodesic-polar graph rho = r + eps * Z_lm over the round sphere chart.

    Z_lm is the real spherical harmonic with unit L^2 norm on the 2-sphere:
    with a = |m|, Q = d^a/dx^a P_l and N its normalisation, Z_lm is
    N Q(cos theta) for m = 0, (-1)^a sqrt(2) N sin^a(theta) Q(cos theta)
    cos(a phi) for m > 0 and -sqrt(2) N sin^a(theta) Q(cos theta) sin(a phi)
    for m < 0.  Its partials are closed forms, so the surface is exactly as
    smooth as its formula.  Genus-0 test surface with strictly positive
    pinching integrand for eps != 0.
    """

    def __init__(self, r: float, eps: float, l: int, m: int):
        super().__init__(r)
        if not np.isfinite(eps) or abs(eps) > _EPS_CAP:
            raise DomainError(f"|eps| must be <= {_EPS_CAP}, got {eps}")
        if not (isinstance(l, (int, np.integer)) and isinstance(m, (int, np.integer))):
            raise DomainError("mode numbers l, m must be integers")
        if l < 0 or abs(m) > l:
            raise DomainError(f"invalid spherical-harmonic mode (l={l}, m={m})")
        if l > _L_MAX:
            raise DomainError(f"mode degree l must be <= {_L_MAX}, got {l}")
        self.eps, self.l, self.m = float(eps), int(l), int(m)
        self.name = f"psphere:r={self.r:.10g},eps={self.eps:.10g},l={self.l},m={self.m}"

        a = abs(self.m)
        norm = math.sqrt((2 * self.l + 1) / (4.0 * math.pi)
                         * math.factorial(self.l - a) / math.factorial(self.l + a))
        if self.m:
            norm *= SQRT2 * ((-1) ** a if self.m > 0 else -1)
        self._amplitude = self.eps * norm
        q = np.polynomial.legendre.Legendre.basis(self.l).deriv(a)
        self._legendre = (q, q.deriv(), q.deriv(2))

        n = max(_RADIUS_PROBE, 4 * (self.l + 1))
        rho = self._radius(np.linspace(0.0, TWO_PI, n, endpoint=False)[:, None],
                           np.linspace(0.0, math.pi, n), partials=False)
        if not np.all((rho > 0.0) & (rho < math.pi)):  # NaN included
            raise DomainError("perturbed radius leaves (0, pi); reduce eps")

    def _radius(self, phi, theta, partials=True):
        """cos(rho), sin(rho) and rho's partials along phi, theta, phi-phi, phi-theta
        and theta-theta; with partials=False, rho alone.

        The theta factor sin^a * Q(cos) is differentiated by the product rule
        with no division by sin(theta), so every partial is finite at the
        poles; s ** max(k, 0) only ever multiplies a zero coefficient.
        """
        a, k = abs(self.m), self._amplitude
        s, c = np.sin(theta), np.cos(theta)
        sa, q0 = s ** a, self._legendre[0](c)
        f = sa * q0
        g = np.cos(a * phi) if self.m >= 0 else np.sin(a * phi)
        rho = self.r + k * f * g
        if not partials:
            return rho
        q1, q2 = self._legendre[1](c), self._legendre[2](c)
        f_t = a * s ** max(a - 1, 0) * c * q0 - s ** (a + 1) * q1
        f_tt = (a * (a - 1) * s ** max(a - 2, 0) * c * c * q0 - a * sa * q0
                - (2 * a + 1) * sa * c * q1 + s ** (a + 2) * q2)
        g_p = -a * np.sin(a * phi) if self.m >= 0 else a * np.cos(a * phi)
        g_pp = -a * a * g
        return (np.cos(rho), np.sin(rho), k * f * g_p, k * f_t * g,
                k * f * g_pp, k * f_t * g_p, k * f_tt * g)

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        psi = np.arccos(np.clip(x[..., 3], -1.0, 1.0))
        rad = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)
        theta = np.arccos(np.clip(np.divide(x[..., 2], np.where(rad == 0, 1.0, rad)), -1.0, 1.0))
        phi = np.arctan2(x[..., 1], x[..., 0])
        return psi < self._radius(phi, theta, partials=False)


def sample_s3(n: int, rng: np.random.Generator) -> np.ndarray:
    """n uniform samples on S^3 via normalized 4-d Gaussian draws, as (n, 4) rows whose
    columns x[:, k] are contiguous: drawn and normalised component-first."""
    x = rng.standard_normal((4, n))
    return np.divide(x, np.sqrt(dot(x, x)), out=x).T


def parse_surface(spec: str) -> Surface:
    """Build a catalog surface from a spec string.

    Formats: ``sphere:r=<float>``, ``torus:a=<float>``,
    ``psphere:r=<float>,eps=<float>,l=<int>,m=<int>``.
    """
    try:
        kind, _, rest = spec.partition(":")
        kv = {}
        if rest:
            for part in rest.split(","):
                key, _, val = (x.strip() for x in part.partition("="))
                if not val:
                    raise ValueError(f"missing value in '{part}'")
                if not key or key in kv:
                    raise ValueError(f"empty or repeated key in '{part}'")
                kv[key] = val
        if kind == "sphere":
            surface = GeodesicSphere(float(kv.pop("r")))
        elif kind == "torus":
            surface = FlatTorus(float(kv.pop("a")))
        elif kind == "psphere":
            surface = PerturbedSphere(
                float(kv.pop("r")), float(kv.pop("eps")),
                int(kv.pop("l")), int(kv.pop("m")),
            )
        else:
            raise ValueError(f"unknown surface kind '{kind}'")
        if kv:
            raise ValueError(f"unknown key '{next(iter(kv))}'")
        return surface
    except (KeyError, ValueError) as exc:
        raise DomainError(f"bad surface spec '{spec}': {exc}") from exc
