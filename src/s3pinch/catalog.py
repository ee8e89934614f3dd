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
# Largest spherical-harmonic degree: `_legendre` takes one numpy step per degree.
_L_MAX = 85

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
    lambda_1 = 1/max(a, b)^2, the least nonzero j^2/a^2 + k^2/b^2 of a^2 du^2 + b^2 dv^2.
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
        self.exact_lambda1 = 1.0 / max(self.a, self.b) ** 2

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
    return FlatTorus(1.0 / SQRT2)


def _legendre(l: int, k: int, s, c):
    """Fully normalised P_l^k = sqrt((2l+1)/(4 pi) (l-k)!/(l+k)!) sin^k(theta) Q(cos theta),
    Q = d^k P_l/dx^k, from s = sin(theta), c = cos(theta) (over sin^k(theta) with s = 1): the
    diagonal P_k^k, then one step per degree of Holmes & Featherstone's stable recurrence
    (J. Geodesy 76:279, 2002). P_l^{-k} = (-1)^k P_l^k, and P_l^k = 0 for |k| > l."""
    if k < 0:
        return (-1) ** k * _legendre(l, -k, s, c)
    if k > l:
        return 0.0
    prev, p = 0.0, math.sqrt(math.prod((2 * j + 1) / (2 * j) for j in range(1, k + 1))
                             / (4.0 * math.pi)) * s ** k
    for n in range(k + 1, l + 1):
        d = (n - k) * (n + k)
        b = math.sqrt((2 * n + 1) * (n + k - 1) * (n - k - 1) / (d * (2 * n - 3)))
        prev, p = p, math.sqrt((4 * n * n - 1) / d) * c * p - b * prev
    return p


class PerturbedSphere(_SphereChart):
    """Geodesic-polar graph rho = r + eps * Z_lm over the round sphere chart.

    Z_lm, the real spherical harmonic of unit L^2 norm, is P = `_legendre`(l, |m|) for m = 0,
    (-1)^m sqrt(2) P cos(m phi) for m > 0 and -sqrt(2) P sin(|m| phi) for m < 0.  As |Z_lm| <=
    sqrt((2l+1)/(4 pi)) (addition theorem), a spec is accepted iff |eps| times that is below
    min(r, pi - r): then rho lies in (0, pi), EG - F^2 = sin^2 rho (rho_phi^2 + sin^2 theta
    (rho_theta^2 + sin^2 rho)) > 0 off the poles and side 1 is x4 > cos rho.  Genus-0 test
    surface with strictly positive pinching integrand for eps != 0.
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
        if abs(self.eps) * math.sqrt((self.l + 0.5) / TWO_PI) >= min(self.r, math.pi - self.r):
            raise DomainError("perturbed radius leaves (0, pi) unless |eps| sqrt((2l+1)/(4 pi))"
                              " < min(r, pi - r); reduce eps")
        self._amplitude = self.eps * (SQRT2 * (-1) ** self.m if self.m > 0 else
                                      -SQRT2 if self.m else 1.0)

    def _radius(self, phi, theta):
        """cos(rho), sin(rho) and rho's partials along phi, theta, phi-phi, phi-theta and
        theta-theta.  The theta-partials of f = P_l^a come from the ladder dP_k/dtheta =
        (alpha_k P_{k-1} - alpha_{-k} P_{k+1}) / 2, alpha_j = sqrt((l+j)(l-j+1)), with no
        division by sin(theta); applied twice, its middle term is -(l(l+1) - a^2) f / 2."""
        l, a, k = self.l, abs(self.m), self._amplitude
        s, c = np.sin(theta), np.cos(theta)
        p = {j: _legendre(l, j, s, c) for j in range(a - 2, a + 3)}

        def alpha(*js):  # the product of alpha_j over js: its radicand is never negative
            return math.sqrt(math.prod((l + j) * (l - j + 1) for j in js))
        f = p[a]
        f_t = 0.5 * (alpha(a) * p[a - 1] - alpha(-a) * p[a + 1])
        f_tt = (0.25 * (alpha(a, a - 1) * p[a - 2] + alpha(-a, -a - 1) * p[a + 2])
                - 0.5 * (l * (l + 1) - a * a) * f)
        g = np.cos(a * phi) if self.m >= 0 else np.sin(a * phi)
        g_p = -a * np.sin(a * phi) if self.m >= 0 else a * np.cos(a * phi)
        rho = self.r + k * f * g
        return (np.cos(rho), np.sin(rho), k * f * g_p, k * f_t * g,
                k * f * (-a * a * g), k * f_t * g_p, k * f_tt * g)

    def side_classifier(self, x: np.ndarray) -> np.ndarray:
        """x4 > cos rho: cos theta = x3/|x'| and sin^a(theta) e^{ia phi} = ((x1 + i x2)/|x'|)^a."""
        x = np.asarray(x, dtype=float)
        # |x'| = 0 only at x = +-e4, where x4 alone decides: any direction will do there
        rad = np.maximum(np.sqrt(x[..., 0] ** 2 + x[..., 1] ** 2 + x[..., 2] ** 2), 1e-300)
        f = _legendre(self.l, abs(self.m), 1, x[..., 2] / rad)
        if self.m:
            z = ((x[..., 0] + 1j * x[..., 1]) / rad) ** abs(self.m)
            f = f * (z.real if self.m > 0 else z.imag)
        return x[..., 3] > np.cos(self.r + self._amplitude * f)


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
