import math

import numpy as np
import pytest

from s3pinch import (
    DegenerateMetric, FlatTorus, GeodesicSphere, SurfacePoint, clifford_torus,
    cross4, curvature_at,
)
from s3pinch.geometry import dot

RNG = np.random.default_rng(42)


def rows(vec):
    """A component-first 4-vector as one (..., 4) array."""
    return np.stack(np.broadcast_arrays(*vec), axis=-1)


def comps(x):
    """A (..., 4) array as a component-first 4-vector."""
    return tuple(np.moveaxis(x, -1, 0))


def unit_normal(p):
    """The frame normal, formed here from cross4 and dot: cross4(position, du, dv) normalized."""
    nu = cross4(p.position, p.du, p.dv)
    norm = np.sqrt(dot(nu, nu))
    return tuple(x / norm for x in nu)


def random_params(surface, n):
    u = RNG.uniform(*surface.domain_u, size=n)
    lo, hi = surface.domain_v
    margin = 0.0 if surface.periodic_v else 0.05 * (hi - lo)
    v = RNG.uniform(lo + margin, hi - margin, size=n)
    return u, v


def _cross4_by_det(a, b, c):
    # Reference: n_i = (-1)^i times the 3x3 minor of rows (a, b, c) without
    # column i, one np.linalg.det per component.
    m = np.stack(np.broadcast_arrays(a, b, c), axis=-2)
    out = np.empty(m.shape[:-2] + (4,), dtype=float)
    cols = np.arange(4)
    for i in range(4):
        out[..., i] = (-1.0) ** i * np.linalg.det(m[..., cols != i])
    return out


@pytest.mark.parametrize("shape", [(256, 256, 4), (4,)])
def test_cross4_matches_determinant_reference(shape):
    rng = np.random.default_rng(7)
    a, b, c = (rng.normal(size=shape) for _ in range(3))
    n = rows(cross4(comps(a), comps(b), comps(c)))
    ref = _cross4_by_det(a, b, c)
    assert n.shape == ref.shape == shape
    assert np.max(np.abs(n - ref)) < 1e-13
    # Orientation: det[n; a; b; c] = |n|^2 > 0 for the argument order (a, b, c).
    vol = np.linalg.det(np.stack([n, a, b, c], axis=-2))
    assert np.all(np.sign(vol) == np.sign(np.linalg.det(np.stack([ref, a, b, c], axis=-2))))
    assert np.allclose(vol, np.sum(n * n, axis=-1), rtol=1e-12)
    assert np.all(vol > 0)


def test_cross4_broadcasts_a_single_vector():
    rng = np.random.default_rng(8)
    a = rng.normal(size=4)
    b, c = rng.normal(size=(2, 5, 3, 4))
    n = rows(cross4(a, comps(b), comps(c)))
    assert np.max(np.abs(n - _cross4_by_det(a, b, c))) < 1e-13


def test_cross4_orthogonal_to_arguments():
    for _ in range(50):
        a, b, c = RNG.normal(size=(3, 4))
        n = np.array(cross4(a, b, c))
        assert abs(n @ a) < 1e-12 * np.linalg.norm(n)
        assert abs(n @ b) < 1e-12 * np.linalg.norm(n)
        assert abs(n @ c) < 1e-12 * np.linalg.norm(n)


@pytest.mark.parametrize("shape", [(8192, 4), (32, 256, 4), (4,)])
def test_dot_gives_numpy_sum_bits(shape):
    # Frames and S^3 samples are normalised with `dot`; equal bits keep the
    # Monte-Carlo counts and every node value identical to np.sum's.
    a, b = RNG.normal(size=(2, *shape))
    assert np.array_equal(dot(comps(a), comps(b)), np.sum(a * b, axis=-1))


def test_frame_orthonormality_on_random_points():
    for surface in (GeodesicSphere(0.9), FlatTorus(0.4), clifford_torus()):
        u, v = random_params(surface, 200)
        p = surface.point(u, v)
        E, G = dot(p.du, p.du), dot(p.dv, p.dv)
        nu, pos, du, dv = map(rows, (unit_normal(p), p.position, p.du, p.dv))
        assert np.allclose(np.linalg.norm(nu, axis=-1), 1.0, atol=1e-12)
        assert np.all(np.abs(np.sum(nu * pos, axis=-1)) < 1e-12)
        assert np.all(np.abs(np.sum(nu * du, axis=-1)) < 1e-12 * np.sqrt(E))
        assert np.all(np.abs(np.sum(nu * dv, axis=-1)) < 1e-12 * np.sqrt(G))


def test_clifford_normal_at_origin_of_chart():
    p = clifford_torus().point(0.0, 0.0)
    nu = unit_normal(p)
    expected = np.array([1.0, 0.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert np.allclose(np.abs(rows(nu) @ expected), 1.0, atol=1e-12)


def test_equator_normal_is_fourth_axis():
    surface = GeodesicSphere(math.pi / 2)
    u, v = random_params(surface, 50)
    nu = rows(unit_normal(surface.point(u, v)))
    assert np.allclose(np.abs(nu[..., 3]), 1.0, atol=1e-12)
    assert np.allclose(nu[..., :3], 0.0, atol=1e-12)


def test_degenerate_metric_raises():
    du = np.array([0.0, 1.0, 0.0, 0.0])
    p = SurfacePoint(
        position=np.array([1.0, 0.0, 0.0, 0.0]),
        du=du, dv=2.0 * du,  # parallel tangents
        duu=np.zeros(4), duv=np.zeros(4), dvv=np.zeros(4),
    )
    with pytest.raises(DegenerateMetric):
        curvature_at(p)


@pytest.mark.parametrize("axis, index", [(1, (3, 4)), (0, (5, 0))], ids=["v-only", "u-only"])
def test_degenerate_metric_of_one_parameter_names_the_node(axis, index):
    # du is constant and dv vanishes on one v column (or u row) alone, so E, F
    # and G have a (1, 7) (or (5, 1)) shape under the (5, 7) position; the
    # error names the first degenerate node of the batch, its row offset by row0.
    u, v = np.linspace(0.0, 1.0, 5)[:, None], np.linspace(0.0, 1.0, 7)[None, :]
    scale = np.where(np.arange(7 if axis else 5) == (4 if axis else 2), 0.0, 1.0)
    scale = scale[None, :] if axis else scale[:, None]
    p = SurfacePoint(position=(np.cos(u) * np.cos(v), np.sin(u) * np.cos(v), np.sin(v), 0.0),
                     du=(0.0, 0.0, 0.0, 1.0), dv=(0.0, 0.0, scale, 0.0),
                     duu=(0.0,) * 4, duv=(0.0,) * 4, dvv=(0.0,) * 4)
    assert np.shape(dot(p.dv, p.dv)) == np.shape(scale)
    with pytest.raises(DegenerateMetric, match=rf"batch index \({index[0]}, {index[1]}\):"):
        curvature_at(p, row0=3)


@pytest.mark.parametrize("r", [math.pi / 4, math.pi / 3])
def test_sphere_curvature_against_finite_difference_partials(r):
    # Independent oracle: second partials of the explicit parametrization by
    # central finite differences, never touching the analytic partials.
    sr, cr = math.sin(r), math.cos(r)

    def pos(u, v):
        return np.array([
            sr * math.sin(v) * math.cos(u),
            sr * math.sin(v) * math.sin(u),
            sr * math.cos(v),
            cr,
        ])

    h = 1e-4
    for u, v in RNG.uniform(0.3, 2.5, size=(20, 2)):
        du = (pos(u + h, v) - pos(u - h, v)) / (2 * h)
        dv = (pos(u, v + h) - pos(u, v - h)) / (2 * h)
        duu = (pos(u + h, v) - 2 * pos(u, v) + pos(u - h, v)) / h ** 2
        dvv = (pos(u, v + h) - 2 * pos(u, v) + pos(u, v - h)) / h ** 2
        duv = (pos(u + h, v + h) - pos(u + h, v - h)
               - pos(u - h, v + h) + pos(u - h, v - h)) / (4 * h ** 2)
        cd = curvature_at(SurfacePoint(pos(u, v), du, dv, duu, duv, dvv))
        assert cd.k1 == pytest.approx(1.0 / math.tan(r), abs=1e-6)
        assert cd.k2 == pytest.approx(1.0 / math.tan(r), abs=1e-6)


def test_clifford_curvature_values():
    surface = clifford_torus()
    u, v = random_params(surface, 100)
    cd = curvature_at(surface.point(u, v))
    assert np.allclose(cd.k1, -1.0, atol=1e-12)
    assert np.allclose(cd.k2, 1.0, atol=1e-12)
    assert np.allclose(cd.traceless_norm, math.sqrt(2.0), atol=1e-12)
    assert np.allclose(cd.gauss_K, 0.0, atol=1e-12)
    assert np.allclose(cd.H, 0.0, atol=1e-12)


@pytest.mark.parametrize("a", [0.3, 0.6, 0.85])
def test_flat_torus_curvatures_and_flat_metric(a):
    surface = FlatTorus(a)
    b = math.sqrt(1 - a * a)
    u, v = random_params(surface, 100)
    cd = curvature_at(surface.point(u, v))
    assert np.allclose(cd.k1, -a / b, atol=1e-12)
    assert np.allclose(cd.k2, b / a, atol=1e-12)
    assert np.allclose(cd.gauss_K, 0.0, atol=1e-14)


def test_orientation_flip_property():
    # Swapping the chart axes reverses the frame normal; curvature transforms
    # as (k1, k2) -> (-k2, -k1) with |Aring|, K, |A|^2 invariant.
    surfaces = [GeodesicSphere(1.1), FlatTorus(0.55), clifford_torus()]
    for surface in surfaces:
        u, v = random_params(surface, 334)
        p = surface.point(u, v)
        cd = curvature_at(p)
        swapped = SurfacePoint(p.position, p.dv, p.du, p.dvv, p.duv, p.duu)
        cd_rev = curvature_at(swapped)
        assert np.allclose(cd_rev.k1, -cd.k2, atol=1e-10)
        assert np.allclose(cd_rev.k2, -cd.k1, atol=1e-10)
        assert np.allclose(cd_rev.H, -cd.H, atol=1e-10)
        assert np.allclose(cd_rev.traceless_norm, cd.traceless_norm, atol=1e-10)
        assert np.allclose(cd_rev.gauss_K, cd.gauss_K, atol=1e-10)
        assert np.allclose(cd_rev.k1 ** 2 + cd_rev.k2 ** 2,
                           cd.k1 ** 2 + cd.k2 ** 2, atol=1e-10)
        assert np.allclose(rows(unit_normal(swapped)), -rows(unit_normal(p)), atol=1e-12)
        assert np.allclose(cd_rev.area_element, cd.area_element, atol=1e-12)


def test_umbilic_consistency_on_spheres():
    for r in (0.4, math.pi / 3, 2.2):
        surface = GeodesicSphere(r)
        u, v = random_params(surface, 200)
        cd = curvature_at(surface.point(u, v))
        assert np.all(cd.traceless_norm < 1e-8)


def test_gauss_identity_against_known_constants():
    for r in (0.5, 1.0, math.pi / 2):
        surface = GeodesicSphere(r)
        u, v = random_params(surface, 100)
        cd = curvature_at(surface.point(u, v))
        assert np.allclose(cd.gauss_K, 1.0 / math.sin(r) ** 2, atol=1e-8)
        assert np.allclose(cd.gauss_K, 1.0 + cd.k1 * cd.k2)
    surface = FlatTorus(0.7)
    u, v = random_params(surface, 100)
    cd = curvature_at(surface.point(u, v))
    assert np.allclose(cd.gauss_K, 0.0, atol=1e-8)


def test_principal_curvatures_satisfy_characteristic_equation():
    for surface in (GeodesicSphere(0.8), FlatTorus(0.45)):
        u, v = random_params(surface, 100)
        p = surface.point(u, v)
        nu = unit_normal(p)
        E, F, G = dot(p.du, p.du), dot(p.du, p.dv), dot(p.dv, p.dv)
        e = np.sum(rows(p.duu) * rows(nu), axis=-1)
        f = np.sum(rows(p.duv) * rows(nu), axis=-1)
        g = np.sum(rows(p.dvv) * rows(nu), axis=-1)
        cd = curvature_at(p)
        assert np.allclose(cd.area_element, np.sqrt(E * G - F * F), rtol=1e-15)
        for k in (cd.k1, cd.k2):
            det = (e - k * E) * (g - k * G) - (f - k * F) ** 2
            assert np.all(np.abs(det) < 1e-10 * (1.0 + k ** 2))
