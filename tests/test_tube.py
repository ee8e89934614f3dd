"""Tests for Heintze-Karcher tube-volume bounds and the inequality chain."""

import math

import numpy as np
import pytest

from s3pinch.catalog import (
    FlatTorus, GeodesicSphere, PerturbedSphere, clifford_torus, sample_s3,
)
from s3pinch.errors import DomainError
from s3pinch.quadrature import make_grid
from s3pinch.tube import (
    FOUR_PI_SQ,
    MC_TILE,
    S3_VOLUME,
    ChainReport,
    TubeReport,
    focal_time,
    monte_carlo_volume,
    normal_geodesic,
    side_upper_bound,
    verify_sum_inequality,
)

RTOL = 1e-8


# ---------------------------------------------------------------------------
# normal_geodesic and focal_time
# ---------------------------------------------------------------------------

def test_normal_geodesic_basic():
    p = np.array([1.0, 0.0, 0.0, 0.0])
    nu = np.array([0.0, 1.0, 0.0, 0.0])
    q = normal_geodesic(p, nu, math.pi / 2)
    assert np.allclose(q, nu, atol=1e-15)
    # Stays on the sphere for arbitrary t.
    for t in np.linspace(-3.0, 3.0, 17):
        assert abs(np.linalg.norm(normal_geodesic(p, nu, t)) - 1.0) < 1e-14


def test_normal_geodesic_rejects_bad_inputs():
    p = np.array([1.0, 0.0, 0.0, 0.0])
    nu = np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(DomainError):
        normal_geodesic(2.0 * p, nu, 0.1)
    with pytest.raises(DomainError):
        normal_geodesic(p, 0.5 * nu, 0.1)
    with pytest.raises(DomainError):
        normal_geodesic(p, (p + nu) / math.sqrt(2.0), 0.1)


def test_focal_time_examples():
    assert focal_time(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert focal_time(1.0) == pytest.approx(math.pi / 4, rel=1e-15)
    assert focal_time(-1.0) == pytest.approx(3 * math.pi / 4, rel=1e-15)
    # acot stays in (0, pi) for large |k|.
    assert 0.0 < focal_time(1e8) < 1e-7
    assert math.pi - 1e-7 < focal_time(-1e8) < math.pi


def test_focal_time_matches_jacobian_root():
    # cos(t) - k sin(t) vanishes first at t = acot(k).
    for k in (-3.0, -0.5, 0.0, 0.7, 4.0):
        t = focal_time(k)
        assert abs(math.cos(t) - k * math.sin(t)) < 1e-12


# ---------------------------------------------------------------------------
# HK bounds are exactly tight on geodesic spheres and flat tori
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [math.pi / 4, math.pi / 3, math.pi / 2])
def test_sphere_hk_tight_both_sides(r):
    s = GeodesicSphere(r)
    grid = make_grid(s, 64, 64)
    v1, v2 = s.exact_side_volumes
    assert side_upper_bound(s, 1, grid) == pytest.approx(v1, rel=1e-10)
    assert side_upper_bound(s, 2, grid) == pytest.approx(v2, rel=1e-10)


@pytest.mark.parametrize("a", [0.4, 1 / math.sqrt(2.0), 0.8])
def test_flat_torus_hk_tight_both_sides(a):
    s = FlatTorus(a)
    grid = make_grid(s, 32, 32)
    v1, v2 = s.exact_side_volumes
    assert side_upper_bound(s, 1, grid) == pytest.approx(v1, rel=1e-12)
    assert side_upper_bound(s, 2, grid) == pytest.approx(v2, rel=1e-12)


def test_clifford_sides_are_half_volumes():
    s = clifford_torus()
    grid = make_grid(s, 16, 16)
    assert side_upper_bound(s, 1, grid) == pytest.approx(math.pi ** 2, rel=1e-13)
    assert side_upper_bound(s, 2, grid) == pytest.approx(math.pi ** 2, rel=1e-13)


def test_side_upper_bound_rejects_bad_side():
    s = clifford_torus()
    grid = make_grid(s, 16, 16)
    with pytest.raises(DomainError):
        side_upper_bound(s, 3, grid)


# ---------------------------------------------------------------------------
# verify_sum_inequality: chain holds, equality cases saturate
# ---------------------------------------------------------------------------

def test_chain_equality_on_clifford():
    s = clifford_torus()
    grid = make_grid(s, 32, 32)
    cert = verify_sum_inequality(s, grid)
    assert isinstance(cert, ChainReport) and all(cert.checks.values())
    r1, r2 = cert.tube_reports
    assert isinstance(r1, TubeReport) and isinstance(r2, TubeReport)
    # Minimal equality case: the sum bound saturates at 2|M| = 4 pi^2.
    assert r1.sum_rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
    assert r1.prop1_lhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)  # genus 1
    assert r1.prop1_rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
    assert r1.hk_upper == pytest.approx(r1.exact_volume, rel=1e-12)
    assert r2.hk_upper == pytest.approx(r2.exact_volume, rel=1e-12)
    # Focal distance to the conjugate sheet is constant pi/4 from side 1.
    assert r1.focal_min == pytest.approx(math.pi / 4, rel=1e-12)
    assert r1.focal_max == pytest.approx(math.pi / 4, rel=1e-12)
    # Side 2 sees curvatures (-1, 1) again, so its focal time is also pi/4.
    assert r2.focal_min == pytest.approx(math.pi / 4, rel=1e-12)


def test_chain_on_spheres():
    for r in (math.pi / 4, math.pi / 2, 2.0):
        s = GeodesicSphere(r)
        grid = make_grid(s, 64, 64)
        r1, r2 = verify_sum_inequality(s, grid).tube_reports
        assert r1.prop1_lhs == 0.0  # genus 0
        assert r1.hk_upper == pytest.approx(r1.exact_volume, rel=1e-9)
        assert r2.hk_upper == pytest.approx(r2.exact_volume, rel=1e-9)
        assert r1.hk_upper + r2.hk_upper == pytest.approx(S3_VOLUME, rel=1e-9)
        # Both side bounds are tight, so the sum bound saturates exactly.
        assert r1.sum_rhs == pytest.approx(FOUR_PI_SQ, rel=1e-9)


def test_chain_saturates_on_every_flat_torus():
    # 1 + k1 k2 = 0 kills the arctan terms, so both the sum bound and the
    # genus bound are equalities for every flat torus, square or not.
    for a in (0.3, 0.6, 0.9):
        s = FlatTorus(a)
        grid = make_grid(s, 32, 32)
        r1, _ = verify_sum_inequality(s, grid).tube_reports
        assert r1.sum_rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
        assert r1.prop1_rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
        assert r1.prop1_lhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)


def test_chain_on_perturbed_sphere():
    s = PerturbedSphere(math.pi / 3, 0.1, 2, 0)
    grid = make_grid(s, 64, 64)
    r1, r2 = verify_sum_inequality(s, grid).tube_reports
    assert r1.sum_rhs > FOUR_PI_SQ
    assert r1.prop1_lhs == 0.0
    assert r1.prop1_rhs > 0.0
    # Sides partition S^3, so the two upper bounds overshoot the total.
    assert r1.hk_upper + r2.hk_upper >= S3_VOLUME - 1e-9


def test_chain_violation_on_doctored_report():
    # Shrinking the quadrature weights breaks the first link.
    s = clifford_torus()
    grid = make_grid(s, 32, 32)
    doctored = type(grid)(
        nodes_u=grid.nodes_u, nodes_v=grid.nodes_v,
        weights=0.5 * grid.weights,
        periodic_u=grid.periodic_u, periodic_v=grid.periodic_v,
    )
    cert = verify_sum_inequality(s, doctored)
    assert cert.checks["sum_bound"] is False
    assert not all(cert.checks.values())
    assert len(cert.tube_reports) == 2  # every link is still reported


# ---------------------------------------------------------------------------
# Monte-Carlo side volumes
# ---------------------------------------------------------------------------

def test_monte_carlo_volume_sphere():
    s = GeodesicSphere(math.pi / 3)
    est, err = monte_carlo_volume(s, 1, n_samples=200_000, seed=7)
    exact = s.exact_side_volumes[0]
    assert abs(est - exact) < 4.0 * err
    est2, _ = monte_carlo_volume(s, 2, n_samples=200_000, seed=7)
    assert est + est2 == pytest.approx(S3_VOLUME, rel=1e-12)


def test_monte_carlo_deterministic():
    s = clifford_torus()
    a = monte_carlo_volume(s, 1, n_samples=50_000, seed=3)
    b = monte_carlo_volume(s, 1, n_samples=50_000, seed=3)
    c = monte_carlo_volume(s, 1, n_samples=50_000, seed=4)
    assert a == b
    assert a != c


def test_monte_carlo_reuses_samples():
    s = GeodesicSphere(1.0)
    rng = np.random.Generator(np.random.Philox(11))
    from s3pinch.catalog import sample_s3
    pts = sample_s3(50_000, rng)
    est_a, _ = monte_carlo_volume(s, 1, samples=pts)
    est_b, _ = monte_carlo_volume(s, 1, samples=pts)
    assert est_a == est_b


def test_monte_carlo_rejects_bad_side():
    s = GeodesicSphere(1.0)
    with pytest.raises(DomainError):
        monte_carlo_volume(s, 0, n_samples=10)


def _whole_draw_volumes(surface, pts):
    # One classification of the whole sample array, side 2 as the negation.
    n = len(pts)
    inside = surface.side_classifier(pts)
    out = []
    for mask in (inside, ~inside):
        p = float(np.count_nonzero(mask)) / n
        out.append((S3_VOLUME * p, S3_VOLUME * math.sqrt(p * (1.0 - p) / n)))
    return out


@pytest.mark.parametrize("surface", [GeodesicSphere(1.0), FlatTorus(0.6)])
def test_tiled_monte_carlo_equals_whole_draw(surface):
    n, seed = 3 * MC_TILE + 12345, 9
    pts = sample_s3(n, np.random.Generator(np.random.Philox(seed)))
    expected = _whole_draw_volumes(surface, pts)
    for side in (1, 2):
        assert monte_carlo_volume(surface, side, n_samples=n, seed=seed) == expected[side - 1]
        assert monte_carlo_volume(surface, side, samples=pts) == expected[side - 1]


def test_verify_mc_volumes_bit_identical_to_whole_draw():
    s = FlatTorus(0.6)
    n, seed = MC_TILE + 4321, 5
    r1, r2 = verify_sum_inequality(s, make_grid(s, 16, 16), mc_samples=n, seed=seed).tube_reports
    expected = _whole_draw_volumes(s, sample_s3(n, np.random.Generator(np.random.Philox(seed))))
    assert r1.mc_volume == expected[0]
    assert r2.mc_volume == expected[1]


def test_verify_with_mc_attached():
    s = FlatTorus(0.6)
    grid = make_grid(s, 32, 32)
    r1, r2 = verify_sum_inequality(s, grid, mc_samples=100_000, seed=5).tube_reports
    for rep in (r1, r2):
        est, err = rep.mc_volume
        assert abs(est - rep.exact_volume) < 4.0 * err
        assert rep.hk_upper >= rep.exact_volume - 1e-9
