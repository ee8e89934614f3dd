"""Exact parametric surface families in the unit 3-sphere.

Each surface supplies analytic partials for the immersion into 4-space, a
side classifier for the two complementary regions, and whatever closed-form
data (area, side volumes, curvatures, first eigenvalue) exists for it.

Orientation convention used throughout the toolkit: the frame normal is
cross4(position, du, dv) normalized, and *side 1* is the region that normal
points into.  The parameter charts below are ordered so that a geodesic
sphere gets normal curvature +cot(r) (normal into the ball).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, ImmersionFailure
from .geometry import DEGENERACY_RTOL, SurfacePoint, dot, first_fundamental_form
from .pinch import S3_VOLUME, SQRT2

TWO_PI = 2.0 * math.pi

_R_MIN = 1e-3
_EPS_CAP = 0.3
_MINIMAL_TOL = 1e-9
# Largest spherical-harmonic degree: (l + |m|)! <= 170! is still a finite double.
_L_MAX = 85
# Nodes per direction of the grid a PerturbedSphere is checked to be an immersion on.
_IMMERSION_PROBE = 24


class Surface:
    """Base class: a parametric immersion (u, v) -> S^3 with side data."""

    name: str = "surface"
    domain_u: tuple[float, float] = (0.0, TWO_PI)
    domain_v: tuple[float, float] = (0.0, TWO_PI)
    periodic_u: bool = True
    periodic_v: bool = True
    # True when the surface is known only at its sample nodes, so a coarser
    # grid re-reads the same samples and cannot measure discretisation error,
    # and it has no side classifier: verify_sum_inequality then skips MC.
    sampled: bool = False

    # Closed-form data, None when unavailable.
    exact_area: float | None = None
    exact_side_volumes: tuple[float, float] | None = None
    exact_lambda1: float | None = None
    exact_principal_curvatures: tuple[float, float] | None = None

    def point(self, u, v) -> SurfacePoint:
        raise NotImplementedError

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        """True where the unit 4-vector(s) x lie on side 1."""
        raise NotImplementedError


class GeodesicSphere(Surface):
    """Distance sphere of radius r about the pole (0,0,0,1).

    Chart: u = azimuth (periodic), v = polar angle in (0, pi).  With the
    toolkit's frame order the normal points into the ball and both principal
    curvatures equal cot(r).
    """

    periodic_u = True
    periodic_v = False
    domain_v = (0.0, math.pi)

    def __init__(self, r: float):
        if not np.isfinite(r) or not (_R_MIN <= r <= math.pi - _R_MIN):
            raise DomainError(f"sphere radius must lie in [{_R_MIN}, pi-{_R_MIN}], got {r}")
        self.r = float(r)
        self.name = f"sphere:r={self.r:.10g}"
        sr = math.sin(self.r)
        ball = math.pi * (2.0 * self.r - math.sin(2.0 * self.r))
        self.exact_area = 4.0 * math.pi * sr * sr
        self.exact_side_volumes = (ball, S3_VOLUME - ball)
        self.exact_lambda1 = 2.0 / (sr * sr)
        k = 1.0 / math.tan(self.r)
        self.exact_principal_curvatures = (k, k)

    def point(self, u, v) -> SurfacePoint:
        phi, th = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        sr, cr = math.sin(self.r), math.cos(self.r)
        st, ct = np.sin(th), np.cos(th)
        sp_, cp = np.sin(phi), np.cos(phi)
        x, y, z = sr * st * cp, sr * st * sp_, sr * ct
        dv = (sr * ct * cp, sr * ct * sp_, -sr * st, 0.0)
        return SurfacePoint((x, y, z, cr), (-y, x, 0.0, 0.0), dv, (-x, -y, 0.0, 0.0),
                            (-dv[1], dv[0], 0.0, 0.0), (-x, -y, -z, 0.0))

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x)[..., 3] > math.cos(self.r)


class FlatTorus(Surface):
    """Product torus (a cos u, a sin u, b cos v, b sin v), b = sqrt(1-a^2).

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
        self.exact_area = 4.0 * math.pi ** 2 * self.a * self.b
        self.exact_side_volumes = (S3_VOLUME * self.a ** 2, S3_VOLUME * self.b ** 2)
        self.exact_principal_curvatures = (-self.a / self.b, self.b / self.a)
        if abs(self.a - 1.0 / SQRT2) < _MINIMAL_TOL:  # the Clifford torus
            self.exact_lambda1 = 2.0

    def point(self, u, v) -> SurfacePoint:
        u, v = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        x, y = self.a * np.cos(u), self.a * np.sin(u)
        z, w = self.b * np.cos(v), self.b * np.sin(v)
        return SurfacePoint((x, y, z, w), (-y, x, 0.0, 0.0), (0.0, 0.0, -w, z),
                            (-x, -y, 0.0, 0.0), (0.0,) * 4, (0.0, 0.0, -z, -w))

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x)
        return x[..., 0] ** 2 + x[..., 1] ** 2 < self.a ** 2


def clifford_torus() -> FlatTorus:
    """The minimal flat torus, a = 1/sqrt(2)."""
    return FlatTorus(1.0 / math.sqrt(2.0))


class PerturbedSphere(Surface):
    """Geodesic-polar graph rho = r + eps * Z_lm over the round sphere chart.

    Z_lm is the real spherical harmonic with unit L^2 norm on the 2-sphere:
    with a = |m|, Q = d^a/dx^a P_l and N its normalisation, Z_lm is
    N Q(cos theta) for m = 0, (-1)^a sqrt(2) N sin^a(theta) Q(cos theta)
    cos(a phi) for m > 0 and -sqrt(2) N sin^a(theta) Q(cos theta) sin(a phi)
    for m < 0.  Its partials are closed forms, so the surface is exactly as
    smooth as its formula.  Genus-0 test surface with strictly positive
    pinching integrand for eps != 0.
    """

    periodic_u = True
    periodic_v = False
    domain_v = (0.0, math.pi)

    def __init__(self, r: float, eps: float, l: int, m: int):
        if not np.isfinite(r) or not (_R_MIN <= r <= math.pi - _R_MIN):
            raise DomainError(f"sphere radius must lie in [{_R_MIN}, pi-{_R_MIN}], got {r}")
        if not np.isfinite(eps) or abs(eps) > _EPS_CAP:
            raise DomainError(f"|eps| must be <= {_EPS_CAP}, got {eps}")
        if not (isinstance(l, (int, np.integer)) and isinstance(m, (int, np.integer))):
            raise DomainError("mode numbers l, m must be integers")
        if l < 0 or abs(m) > l:
            raise DomainError(f"invalid spherical-harmonic mode (l={l}, m={m})")
        if l > _L_MAX:
            raise DomainError(f"mode degree l must be <= {_L_MAX}, got {l}")
        self.r, self.eps, self.l, self.m = float(r), float(eps), int(l), int(m)
        self.name = f"psphere:r={self.r:.10g},eps={self.eps:.10g},l={self.l},m={self.m}"

        a = abs(self.m)
        norm = math.sqrt((2 * self.l + 1) / (4.0 * math.pi)
                         * math.factorial(self.l - a) / math.factorial(self.l + a))
        if self.m:
            norm *= SQRT2 * ((-1) ** a if self.m > 0 else -1)
        self._amplitude = self.eps * norm
        q = np.polynomial.legendre.Legendre.basis(self.l).deriv(a)
        self._legendre = (q, q.deriv(), q.deriv(2))

        self._check_immersion()

    def _rho(self, phi, theta, partials=False):
        """rho, or with partials=True the tuple of rho and its partials along
        phi, theta, phi-phi, phi-theta, theta-theta.

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
        return (rho, k * f * g_p, k * f_t * g,
                k * f * g_pp, k * f_t * g_p, k * f_tt * g)

    def _check_immersion(self) -> None:
        n = _IMMERSION_PROBE
        uu = np.linspace(0.0, TWO_PI, n, endpoint=False)
        vv = np.linspace(math.pi / (n + 1), math.pi - math.pi / (n + 1), n)
        U, V = uu[:, None], vv[None, :]
        rho = self._rho(U, V)
        if not np.all((rho > 0.0) & (rho < math.pi)):  # NaN included
            raise DomainError("perturbed radius leaves (0, pi); reduce eps")
        E, F, G = first_fundamental_form(self.point(U, V))
        det = E * G - F * F
        if np.any(det <= DEGENERACY_RTOL * E * G):
            raise ImmersionFailure("EG - F^2 degenerates at a probe node; reduce eps")

    def point(self, u, v) -> SurfacePoint:
        # Chain rule through pos = sin(rho) * d + cos(rho) * e4, where d is the
        # unit direction (theta, phi) in the first three coordinates and
        # tang = d pos / d rho has d tang / d rho = -pos.  The d's below hold
        # the first three components; the fourth is e4's.
        phi, th = np.asarray(u, dtype=float), np.asarray(v, dtype=float)
        rho, r_u, r_v, r_uu, r_uv, r_vv = self._rho(phi, th, partials=True)
        st, ct = np.sin(th), np.cos(th)
        sp_, cp = np.sin(phi), np.cos(phi)
        d = (st * cp, st * sp_, ct)
        d_u = (-st * sp_, st * cp, 0.0)
        d_v = (ct * cp, ct * sp_, -st)
        sr, cr = np.sin(rho), np.cos(rho)
        pos = (*(sr * x for x in d), cr)
        tang = (*(cr * x for x in d), -sr)

        def first(r_x, d_x):
            return (*(r_x * t + sr * x for t, x in zip(tang, d_x)), r_x * tang[3])

        def second(r_x, r_y, r_xy, d_x, d_y, d_xy):
            return (*(r_xy * t - r_x * r_y * p + cr * (r_x * y + r_y * x) + sr * xy
                      for t, p, x, y, xy in zip(tang, pos, d_x, d_y, d_xy)),
                    r_xy * tang[3] - r_x * r_y * pos[3])

        return SurfacePoint(
            pos, first(r_u, d_u), first(r_v, d_v),
            second(r_u, r_u, r_uu, d_u, d_u, (-d[0], -d[1], 0.0)),
            second(r_u, r_v, r_uv, d_u, d_v, (-ct * sp_, ct * cp, 0.0)),
            second(r_v, r_v, r_vv, d_v, d_v, tuple(-x for x in d)),
        )

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        psi = np.arccos(np.clip(x[..., 3], -1.0, 1.0))
        rad = np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2)
        theta = np.arccos(np.clip(np.divide(x[..., 2], np.where(rad == 0, 1.0, rad)), -1.0, 1.0))
        phi = np.arctan2(x[..., 1], x[..., 0])
        return psi < self._rho(phi, theta)


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
