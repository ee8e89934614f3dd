"""Scalar functions and one-dimensional solves behind the genus bounds.

Everything here is a closed-form evaluation or a monotone root solve.  The
`elementwise` functions share one input contract: they take floats or numpy
arrays (broadcasting), reject non-finite input, then their domain rule, and
return a float for scalar input, else an array of the broadcast shape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketFailure, DomainError

SQRT2 = math.sqrt(2.0)
S3_VOLUME = 2.0 * math.pi ** 2     # |S^3|
FOUR_PI_SQ = 4.0 * math.pi ** 2    # 2|S^3|, the left side of the sum inequality

BRACKET_MAX = 1e6  # a root solve doubles its bracket [0, 1] at most up to this
# A root solves its equation when |residual| <= SOLVE_TOL*(1 + |target|).  This is
# fixed, not the certificate tolerance: --tol defaults to 1e-8, 1000x looser.
SOLVE_TOL = 1e-11


@dataclass(frozen=True)
class RootResult:
    """Outcome of a monotone 1-d root solve."""

    value: float
    residual: float
    bracket: tuple[float, float]
    iterations: int

    def solves(self, target: float) -> bool:
        """|residual| <= SOLVE_TOL*(1 + |target|), through `at_most`."""
        return at_most(abs(self.residual), 0.0, SOLVE_TOL * (1.0 + abs(target)))


def at_most(lhs: float, rhs: float, tol: float) -> bool:
    """lhs <= rhs + tol*(1 + |rhs|): the acceptance rule of every certificate."""
    return bool(lhs <= rhs + tol * (1.0 + abs(rhs)))


def _require_finite(*xs) -> None:
    for x in xs:
        if not np.all(np.isfinite(x)):
            raise DomainError("non-finite input")


# Domain rules of `elementwise`: where the predicate holds, DomainError(message).
_NONNEG = (lambda t: t < 0, "argument must be >= 0")
_ORDERED = (lambda k1, k2: k1 > k2, "requires k1 <= k2")
_T_NONNEG = (lambda t, s: t < 0, "requires t >= 0")


def elementwise(rule=None):
    """Give a numpy expression in float arrays the module's input contract, with
    ``rule`` (a predicate and its message, as _NONNEG) as its domain."""
    def decorate(expr):
        @functools.wraps(expr)
        def apply(*xs):
            _require_finite(*xs)
            xs = [np.asarray(x, dtype=float) for x in xs]
            if rule is not None and np.any(rule[0](*xs)):
                raise DomainError(rule[1])
            out = expr(*xs)
            return out if out.ndim else float(out)
        return apply
    return decorate


def _x_minus_atan(x):
    """x - atan(x), stable for small x (direct subtraction cancels to 0)."""
    small = np.abs(x) < 0.1
    xs = np.where(small, x, 0.0)
    x2 = xs * xs
    series = xs ** 3 * (1.0 / 3.0 + x2 * (-1.0 / 5.0 + x2 * (
        1.0 / 7.0 + x2 * (-1.0 / 9.0 + x2 * (1.0 / 11.0 + x2 * (-1.0 / 13.0))))))
    return np.where(small, series, x - np.arctan(x))


@elementwise(_NONNEG)
def f_pinch(t):
    """Pinching function sqrt(2)*t + (t^2 - 2)*atan(t/sqrt(2)), t >= 0.

    Evaluated as 2*(x - atan x) + t^2 * atan(x) with x = t/sqrt(2): both terms
    are nonnegative, so positivity survives roundoff for tiny t.
    """
    x = t / SQRT2
    return 2.0 * _x_minus_atan(x) + t * t * np.arctan(x)


def f_series(t: float, terms: int) -> tuple[float, float]:
    """Alternating power series for f_pinch, valid on 0 <= t < sqrt(2).

    Terms are (-1)^(l+1) * 8l/(4l^2-1) * (t/sqrt(2))^(2l+1) for l = 1..terms.
    Returns the partial sum and the magnitude of the next term, which bounds
    the truncation error for this alternating series.  ``t`` is a real scalar and
    ``terms`` an integer >= 0; both come back as Python floats.
    """
    ta, na = np.asarray(t), np.asarray(terms)
    if ta.ndim or na.ndim or ta.dtype.kind not in "iuf" or na.dtype.kind not in "iu":
        raise DomainError(f"need a real scalar t and integer terms, got {t!r}, {terms!r}")
    t, terms = float(ta), int(na)
    _require_finite(t)
    if t < 0:
        raise DomainError(_NONNEG[1])
    if t >= SQRT2:
        raise DomainError(f"series diverges for t >= sqrt(2), got t={t}")
    if terms < 0:
        raise DomainError("terms must be >= 0")
    x = t / SQRT2
    total = 0.0
    for l in range(1, terms + 1):
        total += (-1.0) ** (l + 1) * (8.0 * l / (4.0 * l * l - 1.0)) * x ** (2 * l + 1)
    nxt = terms + 1
    bound = (8.0 * nxt / (4.0 * nxt * nxt - 1.0)) * x ** (2 * nxt + 1)
    return total, bound


def solve_increasing(func, target: float) -> RootResult:
    """Solve func(x) = target for a strictly increasing func on [0, inf).

    Doubles the bracket [0, 1] until func(hi) >= target, then bisects at 0.5*(lo + hi),
    the correctly rounded midpoint, which lies strictly inside until lo and hi are
    adjacent doubles.  Then func(lo) < target <= func(hi), and the root is hi.
    """
    _require_finite(target)
    f0 = func(0.0)
    if target < f0:
        raise DomainError(f"target {target} below func(0) = {f0}")
    if target == f0:
        return RootResult(0.0, 0.0, (0.0, 0.0), 0)

    lo, hi, iters = 0.0, 1.0, 0
    while func(hi) < target:
        lo, hi = hi, hi * 2.0
        iters += 1
        if hi > BRACKET_MAX:
            raise BracketFailure(f"no root below {BRACKET_MAX} for target {target}")

    while lo < (mid := 0.5 * (lo + hi)) < hi:
        iters += 1
        if func(mid) < target:
            lo = mid
        else:
            hi = mid
    return RootResult(hi, func(hi) - target, (lo, hi), iters)


def f_inverse(y: float) -> RootResult:
    """Inverse of f_pinch by bisection (f is increasing)."""
    _require_finite(y)
    if y < 0:
        raise DomainError("f_inverse requires y >= 0")
    return solve_increasing(f_pinch, y)


@elementwise(_ORDERED)
def lemma3_gap(k1, k2):
    """Slack of the two-variable curvature inequality, RHS - LHS >= 0.

    RHS - LHS = 2*(-1 + ((k2-k1)/2)^2)*atan((k2-k1)/2)
                + (1 + k1*k2)*(atan(k2) - atan(k1)),
    zero exactly when k1 = +-k2.
    """
    t = (k2 - k1) / 2.0
    return 2.0 * (t * t - 1.0) * np.arctan(t) + (1.0 + k1 * k2) * (
        np.arctan(k2) - np.arctan(k1)
    )


@elementwise(_T_NONNEG)
def lemma3_F(t, s):
    """Two-variable form of the gap: F(t, s) with k1 = s-t, k2 = s+t."""
    return 2.0 * (t * t - 1.0) * np.arctan(t) + (1.0 + s * s - t * t) * (
        np.arctan(s + t) - np.arctan(s - t)
    )


@elementwise(_T_NONNEG)
def lemma3_dFds(t, s):
    """Closed-form partial dF/ds."""
    return 2.0 * s * (np.arctan(s + t) - np.arctan(s - t)) + (
        1.0 + s * s - t * t
    ) * (1.0 / (1.0 + (t + s) ** 2) - 1.0 / (1.0 + (t - s) ** 2))


@elementwise(_T_NONNEG)
def lemma3_d2Fdtds(t, s):
    """Closed-form mixed partial d^2F/dtds, a manifestly nonnegative rational."""
    num = 32.0 * t * t * s * (1.0 + t * t + s * s)
    den = (1.0 + (t - s) ** 2) ** 2 * (1.0 + (t + s) ** 2) ** 2
    return num / den


def _cubic_gap_series(x):
    # Tail of the alternating power series of f past its leading cubic term,
    # negated: sum_{l>=2} (-1)^l * 8l/(4l^2-1) * x^(2l+1), convergent for x < 1.
    total = np.zeros_like(x)
    term_scale = x ** 5
    x2 = x * x
    for l in range(2, 200):
        term = (-1.0) ** l * (8.0 * l / (4.0 * l * l - 1.0)) * term_scale
        total += term
        term_scale = term_scale * x2
        if np.all(np.abs(term) <= 1e-17 * (np.abs(total) + 1e-300)):
            break
    return total


@elementwise(_NONNEG)
def cubic_gap(t):
    """Slack of the cubic bound: 2*sqrt(2)*t^3/3 - f_pinch(t) > 0 for t > 0.

    For t < 1 the direct difference cancels to noise, so the slack is summed
    from the alternating series of f beyond its leading cubic term.
    """
    small = t < 1.0
    x = np.where(small, t, 0.0) / SQRT2
    series = _cubic_gap_series(x)
    direct = 2.0 * SQRT2 * t ** 3 / 3.0 - f_pinch(t)
    return np.where(small, series, direct)


@elementwise()
def acot(x):
    """Arc-cotangent with range (0, pi): acot(x) = pi/2 - atan(x)."""
    return np.pi / 2.0 - np.arctan(x)


@elementwise(_ORDERED)
def hk_time_integral(k1, k2):
    """Tube Jacobian integrated over [0, acot(k2)] in closed form.

    Equals (1/2)*(-k1 + (1 + k1*k2)*acot(k2)); the upper limit is the focal
    time along the normal geodesic.
    """
    return 0.5 * (-k1 + (1.0 + k1 * k2) * (np.pi / 2.0 - np.arctan(k2)))


@elementwise(_ORDERED)
def prop1_integrand(k1, k2):
    """Genus-bound integrand k2 - k1 - (1 + k1*k2)*(atan k2 - atan k1)."""
    return k2 - k1 - (1.0 + k1 * k2) * (np.arctan(k2) - np.arctan(k1))


@elementwise(_NONNEG)
def beta_pinch(b):
    """Strictly increasing map b -> b + (b^2 - 1)*atan(b), evaluated as f_pinch(sqrt(2)*b)/2
    = (b - atan b) + b^2*atan(b): both terms are nonnegative, so small b does not cancel."""
    return _x_minus_atan(b) + b * b * np.arctan(b)


def beta_target(g0: int, area: float) -> float:
    """Right side 2*g0*pi^2 / area of the equation beta_solve solves."""
    if not isinstance(g0, (int, np.integer)) or g0 < 1:
        raise DomainError("g0 must be a positive integer")
    _require_finite(area)
    if area <= 0:
        raise DomainError("area must be positive")
    return 2.0 * g0 * math.pi ** 2 / area


def beta_solve(g0: int, area: float) -> RootResult:
    """Solve beta + (beta^2 - 1)*atan(beta) = beta_target(g0, area) for beta >= 0."""
    return solve_increasing(beta_pinch, beta_target(g0, area))


def min_surface_maxA_target(g: int, ambient_volume: float = S3_VOLUME) -> float:
    """Argument of f^{-1} in min_surface_maxA_bound.

    (2*pi^2*(g-1) + |M|) / (4*pi*floor((g+3)/2)); for the unit 3-sphere
    ambient this is (pi/2) * g / floor((g+3)/2).
    """
    if not isinstance(g, (int, np.integer)) or g < 1:
        raise DomainError("genus must be an integer >= 1")
    _require_finite(ambient_volume)
    if not (0.0 < ambient_volume <= S3_VOLUME):
        raise DomainError("ambient volume must lie in (0, 2*pi^2]")
    return (2.0 * math.pi ** 2 * (g - 1) + ambient_volume) / (
        4.0 * math.pi * ((g + 3) // 2)
    )


def min_surface_maxA_bound(g: int, ambient_volume: float = S3_VOLUME) -> float:
    """Lower bound on max |A| for a minimal surface of genus g.

    f^{-1} of min_surface_maxA_target(g, ambient_volume).
    """
    return f_inverse(min_surface_maxA_target(g, ambient_volume)).value


def eigenvalue_bound_rhs(area: float, integral_f: float, ambient_volume: float = S3_VOLUME) -> float:
    """Right side of the first-eigenvalue bound on lambda_1 * Area.

    16*pi - 4*|M|/pi + (2/pi)*integral_f; reduces to 8*pi + (2/pi)*integral_f
    when the ambient is the unit 3-sphere.
    """
    _require_finite(area, integral_f, ambient_volume)
    if area < 0 or integral_f < 0:
        raise DomainError("area and integral_f must be >= 0")
    if not (0.0 < ambient_volume <= S3_VOLUME):
        raise DomainError("ambient volume must lie in (0, 2*pi^2]")
    return 16.0 * math.pi - 4.0 * ambient_volume / math.pi + (2.0 / math.pi) * integral_f


def eigenvalue_bounds(genus: int, area: float, integral_f: float) -> dict[str, float]:
    """Upper bounds on lambda_1 * Area in the unit 3-sphere: the pinching bound
    (eigenvalue_bound_rhs), Yang-Yau's 8*pi*(g+1) and the improved 8*pi*floor((g+3)/2)."""
    return {
        "pinching": eigenvalue_bound_rhs(area, integral_f),
        "yang_yau": 8.0 * math.pi * (genus + 1),
        "improved": 8.0 * math.pi * ((genus + 3) // 2),
    }
