"""Pointwise extrinsic geometry of surfaces immersed in the unit 3-sphere.

A surface point carries the immersion value (a unit 4-vector) together with
first and second parameter partials.  Every 4-vector is component-first: four
components that broadcast to the batch shape, a constant one as a plain float,
so a factor of u alone or v alone keeps its (Nu, 1) or (1, Nv) shape while a
whole quadrature grid is one call; a shape-(4,) array is one point.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetric

# Relative threshold below which E*G - F^2 counts as degenerate.
DEGENERACY_RTOL = 1e-12
# Principal curvatures closer than this are reported as an exact umbilic.
UMBILIC_TOL = 1e-10


@dataclass(frozen=True)
class SurfacePoint:
    """Immersion value and parameter partials at one point (or a batch).

    Each field is a 4-sequence of components that broadcast to the batch
    shape; a constant component may be a float.  ``position`` must be a unit
    4-vector tangent-orthogonal to ``du`` and ``dv``; ``duu``, ``duv``, ``dvv``
    are the raw second partials of the immersion into 4-space.
    """

    position: Sequence
    du: Sequence
    dv: Sequence
    duu: Sequence
    duv: Sequence
    dvv: Sequence


@dataclass(frozen=True)
class CurvatureData:
    """Principal curvatures (k1 <= k2) and derived pointwise quantities."""

    k1: np.ndarray
    k2: np.ndarray
    H: np.ndarray
    traceless_norm: np.ndarray
    gauss_K: np.ndarray
    area_element: np.ndarray  # sqrt(E*G - F^2)


def dot(a: Sequence, b: Sequence):
    """Inner product of component-first 4-vectors, summed in np.sum's order and bits."""
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2] + a[3] * b[3]


def cross4(a: Sequence, b: Sequence, c: Sequence) -> tuple:
    """Generalized cross product in 4-space: n_i = eps_{ijkl} a_j b_k c_l.

    The result is orthogonal to all three arguments and its orientation is
    fixed by the argument order; its components broadcast like theirs.
    """
    # Cofactor expansion along a over the six 2x2 minors of (b, c).
    (a0, a1, a2, a3), (b0, b1, b2, b3), (c0, c1, c2, c3) = a, b, c
    m01, m02, m03 = b0 * c1 - b1 * c0, b0 * c2 - b2 * c0, b0 * c3 - b3 * c0
    m12, m13, m23 = b1 * c2 - b2 * c1, b1 * c3 - b3 * c1, b2 * c3 - b3 * c2
    return (
        a1 * m23 - a2 * m13 + a3 * m12,
        a2 * m03 - a0 * m23 - a3 * m02,
        a0 * m13 - a1 * m03 + a3 * m01,
        a1 * m02 - a0 * m12 - a2 * m01,
    )


def curvature_at(p: SurfacePoint, row0: int = 0) -> CurvatureData:
    """Principal curvatures and derived invariants at a surface point, each in
    the batch shape (that of the unit normal, to which the area element is broadcast).

    The unit normal is the normalized 4-dimensional cross product of
    ``(position, du, dv)``, hence orthogonal to the sphere radius and to both
    tangent vectors, with a deterministic orientation.  k1 <= k2 are the
    eigenvalues of the shape operator I^{-1} II, where the second fundamental
    form is read off the raw 4-space second partials through that normal
    (components along the sphere radius drop out because the normal is
    tangent to the 3-sphere).

    Raises
    ------
    DegenerateMetric
        If E*G - F^2 <= DEGENERACY_RTOL * E*G at any point of the batch; the
        message names the first, its row offset by ``row0`` (the batch's row in a grid).
    """
    E, F, G = dot(p.du, p.du), dot(p.du, p.dv), dot(p.dv, p.dv)
    det = E * G - F * F
    bad = det <= DEGENERACY_RTOL * E * G
    if np.any(bad):
        bad, det = np.atleast_1d(*np.broadcast_arrays(bad, det, *p.position, *p.du, *p.dv)[:2])
        where = tuple(np.argwhere(bad)[0])
        index = (int(where[0]) + row0, *map(int, where[1:]))
        raise DegenerateMetric(
            f"first fundamental form degenerate at batch index {index}: "
            f"EG-F^2 = {det[where]:.3e}"
        )
    nu = cross4(p.position, p.du, p.dv)
    # Every component of position, du and dv enters |nu|, so it has the batch shape.
    norm = np.sqrt(dot(nu, nu))
    nu = tuple(x / norm for x in nu)
    sqrt_det = np.sqrt(det)
    e = dot(p.duu, nu)
    f = dot(p.duv, nu)
    g = dot(p.dvv, nu)

    # Eigenvalues via the symmetric reduction M = L^-1 II L^-T with I = L L^T
    # (Cholesky): same spectrum as I^-1 II, but the eigenvalue gap comes from
    # sqrt(((m11-m22)/2)^2 + m12^2) with no catastrophic cancellation, so
    # umbilic points stay umbilic to roundoff.
    tr_s = (e * G - 2.0 * f * F + g * E) / det
    m11 = e / E
    m12 = (f * E - e * F) / (E * sqrt_det)
    m22 = tr_s - m11
    half_gap = np.sqrt(((m11 - m22) / 2.0) ** 2 + m12 ** 2)
    mean = tr_s / 2.0

    # Umbilic tie-break: suppress noise-driven splitting of equal eigenvalues.
    half_gap = np.where(2.0 * half_gap < UMBILIC_TOL, 0.0, half_gap)
    k1 = mean - half_gap
    k2 = mean + half_gap

    return CurvatureData(
        k1=k1,
        k2=k2,
        H=mean,
        traceless_norm=(k2 - k1) / np.sqrt(2.0),
        gauss_K=1.0 + k1 * k2,
        area_element=np.broadcast_to(sqrt_det, k1.shape),
    )

