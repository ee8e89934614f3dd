import math
import os
import subprocess
import sys

import numpy as np
import pytest

from s3pinch import (
    DomainError, FlatTorus, GeodesicSphere, PerturbedSphere, clifford_torus,
    cross4, curvature_at, parse_surface, sample_s3,
)
from s3pinch.geometry import dot
from s3pinch.gridio import export_grid, import_surface
from s3pinch.quadrature import make_grid
from s3pinch.tube import MC_TILE

PI = math.pi
S3_VOLUME = 2 * PI ** 2
RNG = np.random.default_rng(11)


def rows(vec):
    """A component-first 4-vector as one (..., 4) array."""
    return np.stack(np.broadcast_arrays(*vec), axis=-1)


CATALOG = [
    GeodesicSphere(PI / 4), GeodesicSphere(PI / 2), FlatTorus(0.6),
    clifford_torus(), PerturbedSphere(PI / 3, 0.1, 2, 0),
]
FIELDS = ("position", "du", "dv", "duu", "duv", "dvv")


def random_params(surface, n):
    u = RNG.uniform(*surface.domain_u, size=n)
    lo, hi = surface.domain_v
    margin = 0.0 if surface.periodic_v else 0.05 * (hi - lo)
    v = RNG.uniform(lo + margin, hi - margin, size=n)
    return u, v


def test_parametrization_lands_on_sphere():
    for surface in CATALOG:
        u, v = random_params(surface, 300)
        p = surface.point(u, v)
        pos, du, dv = rows(p.position), rows(p.du), rows(p.dv)
        assert np.allclose(np.linalg.norm(pos, axis=-1), 1.0, atol=1e-12)
        assert np.all(np.abs(np.sum(pos * du, axis=-1)) < 1e-8)
        assert np.all(np.abs(np.sum(pos * dv, axis=-1)) < 1e-8)


def test_minimality_flags():
    # Every flat torus has lambda_1 = 1/max(a, b)^2; minimality is read off |H| alone.
    assert clifford_torus().exact_lambda1 == pytest.approx(2.0, rel=1e-15)
    assert FlatTorus(0.6).exact_lambda1 == pytest.approx(1 / 0.64, rel=1e-15)
    a = 1 / math.sqrt(2) + 1e-8
    assert FlatTorus(a).exact_lambda1 == pytest.approx(1 / a ** 2, rel=1e-15)
    for surface in (clifford_torus(), GeodesicSphere(PI / 2)):
        u, v = random_params(surface, 500)
        cd = curvature_at(surface.point(u, v))
        assert np.all(np.abs(cd.H) < 1e-9)


@pytest.mark.parametrize("a", [0.3, 0.6, 1 / math.sqrt(2), 0.9])
def test_flat_torus_lambda1_is_the_least_product_eigenvalue(a):
    # a^2 du^2 + b^2 dv^2 on [0, 2 pi)^2 has eigenvalues j^2/a^2 + k^2/b^2, b^2 = 1 - a^2.
    least = min(j * j / a ** 2 + k * k / (1 - a ** 2)
                for j in range(3) for k in range(3) if (j, k) != (0, 0))
    assert least == pytest.approx(1 / max(a ** 2, 1 - a ** 2), rel=1e-15)
    assert FlatTorus(a).exact_lambda1 == pytest.approx(least, rel=1e-15)


def test_geodesic_sphere_exact_data():
    eq = GeodesicSphere(PI / 2)
    assert eq.exact_area == pytest.approx(4 * PI)
    assert eq.exact_side_volumes[0] == pytest.approx(PI ** 2)
    assert eq.exact_principal_curvatures[0] == pytest.approx(0.0, abs=1e-15)
    assert eq.exact_lambda1 == pytest.approx(2.0)

    quarter = GeodesicSphere(PI / 4)
    assert quarter.exact_principal_curvatures == pytest.approx((1.0, 1.0))
    assert quarter.exact_area == pytest.approx(2 * PI)
    assert quarter.exact_side_volumes[0] == pytest.approx(PI * (PI / 2 - 1))


def test_flat_torus_exact_data():
    ct = clifford_torus()
    assert ct.exact_area == pytest.approx(S3_VOLUME)
    assert ct.exact_side_volumes == pytest.approx((PI ** 2, PI ** 2))
    t = FlatTorus(0.6)
    assert t.exact_area == pytest.approx(4 * PI ** 2 * 0.48)
    assert t.exact_side_volumes[0] + t.exact_side_volumes[1] == pytest.approx(S3_VOLUME)
    u, v = random_params(t, 50)
    cd = curvature_at(t.point(u, v))
    assert np.allclose(cd.traceless_norm, 1.0 / (math.sqrt(2) * 0.48), atol=1e-12)


def test_degenerate_parameters_rejected():
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(DomainError):
            FlatTorus(bad)
    for bad in (0.0, 5e-4, PI, PI - 5e-4, -1.0):
        with pytest.raises(DomainError):
            GeodesicSphere(bad)
    with pytest.raises(DomainError):
        PerturbedSphere(1.0, 0.5, 2, 0)   # eps above cap
    with pytest.raises(DomainError):
        PerturbedSphere(1.0, 0.1, 2, 5)   # |m| > l


def test_numerical_curvature_matches_closed_form():
    for surface in (GeodesicSphere(0.7), GeodesicSphere(2.0), FlatTorus(0.35)):
        k1_exact, k2_exact = surface.exact_principal_curvatures
        u, v = random_params(surface, 1000)
        cd = curvature_at(surface.point(u, v))
        assert np.allclose(cd.k1, k1_exact, atol=1e-8)
        assert np.allclose(cd.k2, k2_exact, atol=1e-8)


def test_side_classifier_consistent_with_normal():
    # Stepping a short way along the frame normal must land on side 1,
    # against it on side 2.
    for surface in CATALOG:
        u, v = random_params(surface, 100)
        p = surface.point(u, v)
        # The frame normal, cross4(position, du, dv) normalized.
        nu = cross4(p.position, p.du, p.dv)
        pos, nu = rows(p.position), rows(nu) / np.sqrt(dot(nu, nu))[..., None]
        for i in range(0, 100, 7):
            # The normal geodesic cos(t) p + sin(t) nu at t = +-0.01.
            fwd = math.cos(0.01) * pos[i] + math.sin(0.01) * nu[i]
            back = math.cos(0.01) * pos[i] - math.sin(0.01) * nu[i]
            assert surface.side_classifier(fwd), surface.name
            assert not surface.side_classifier(back), surface.name


def test_monte_carlo_side_volumes_within_three_sigma():
    rng = np.random.default_rng(123)
    samples = sample_s3(10 ** 6, rng)
    for surface in (GeodesicSphere(PI / 4), FlatTorus(0.6), clifford_torus()):
        inside = surface.side_classifier(samples)
        p = np.count_nonzero(inside) / len(samples)
        est = S3_VOLUME * p
        se = S3_VOLUME * math.sqrt(p * (1 - p) / len(samples))
        assert abs(est - surface.exact_side_volumes[0]) <= 3 * se, surface.name


def test_sample_s3_unit_norm_and_symmetric():
    samples = sample_s3(20000, np.random.default_rng(5))
    assert np.allclose(np.linalg.norm(samples, axis=1), 1.0, atol=1e-12)
    assert np.all(np.abs(samples.mean(axis=0)) < 0.02)


@pytest.mark.parametrize("n, seed", [(1, 0), (MC_TILE + 7, 3), (200_000, 42)])
def test_sample_s3_bits_match_normal_draw(n, seed):
    # sample_s3 fills component-first with standard_normal; the points must stay
    # those of rng.normal's (4, n) draw, so callers passing samples= see the same set.
    x = np.random.Generator(np.random.Philox(seed)).normal(size=(4, n))
    expected = (x / np.sqrt(dot(x, x))).T
    got = sample_s3(n, np.random.Generator(np.random.Philox(seed)))
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("n", [1, 7, MC_TILE])
def test_sample_s3_rows_with_contiguous_columns(n):
    x = sample_s3(n, np.random.default_rng(3))
    assert x.shape == (n, 4)
    assert all(x[:, k].flags.c_contiguous for k in range(4))


def test_perturbed_sphere_reduces_to_round_sphere_at_zero_eps():
    ps = PerturbedSphere(1.0, 0.0, 2, 0)
    gs = GeodesicSphere(1.0)
    u, v = random_params(gs, 50)
    # Both are the sphere chart's radial graph at rho = 1: at eps = 0 every rho term is a
    # zero, so the values (not the signs of zeros) are those of the constant member.
    a, b = ps.point(u, v), gs.point(u, v)
    for field in FIELDS:
        assert np.array_equal(rows(getattr(a, field)), rows(getattr(b, field))), field


def test_perturbed_sphere_nonzero_modes():
    for (l, m) in [(2, 0), (3, 1), (2, -2)]:
        ps = PerturbedSphere(PI / 2, 0.15, l, m)
        u, v = random_params(ps, 100)
        cd = curvature_at(ps.point(u, v))
        assert np.all(np.isfinite(cd.k1))
        assert np.any(cd.traceless_norm > 1e-3)


@pytest.mark.parametrize("surface", [
    GeodesicSphere(0.8), FlatTorus(0.55), PerturbedSphere(1.1, 0.08, 4, 0),
    PerturbedSphere(1.1, 0.08, 3, 2), PerturbedSphere(1.1, 0.08, 4, -3), "import",
], ids=["sphere", "torus", "psphere-m0", "psphere-m2", "psphere-m-3", "import"])
def test_tensor_product_point_gives_the_meshgrid_bits(surface, tmp_path):
    # point(u[:, None], v[None, :]) evaluates u-only and v-only factors once per
    # row or column; broadcast, its components and curvatures are bit for bit
    # those of point(U, V) on the full meshgrid.
    if surface == "import":
        export_grid(PerturbedSphere(1.0, 0.1, 3, -1), 32, 24, tmp_path / "grid.csv")
        surface = import_surface(tmp_path / "grid.csv")
        grid = surface.natural_grid()
    else:
        grid = make_grid(surface, 32, 24)
    u, v = grid.nodes_u, grid.nodes_v
    U, V = np.meshgrid(u, v, indexing="ij")

    def bits(x):
        return np.broadcast_to(x, U.shape).tobytes()

    tp, full = surface.point(u[:, None], v[None, :]), surface.point(U, V)
    for name in FIELDS:
        a, b = getattr(tp, name), getattr(full, name)
        assert len(a) == len(b) == 4
        assert [bits(x) for x in a] == [bits(x) for x in b], name
    ca, cb = curvature_at(tp), curvature_at(full)
    for name in vars(ca):
        assert bits(getattr(ca, name)) == bits(getattr(cb, name)), name
    if isinstance(surface, FlatTorus):
        # A constant radius adds no rho term: every component stays a factor of u alone,
        # of v alone, or a constant, so no (Nu, Nv) tile is formed for the torus.
        assert [np.shape(x) for x in tp.position] == [(32, 1)] * 2 + [(1, 24)] * 2
        for name in FIELDS:
            assert all(np.shape(x) in ((32, 1), (1, 24), ()) for x in getattr(tp, name)), name


def _sympy_reference(surface):
    """Position, its five partials and rho of a catalog surface, by sympy differentiating
    the surface's closed-form position in the chart coordinates (u, v).

    A psphere's Znm is real but expand_func leaves it in complex-exponential form;
    rewrite to trig and drop the identically-zero imaginary part.
    """
    import sympy as sp

    u, v = sp.symbols("u v", real=True)
    if isinstance(surface, FlatTorus):
        a, b = surface.a, surface.b
        rho = sp.acos(a)
        pos = [a * sp.cos(u), a * sp.sin(u), b * sp.cos(v), b * sp.sin(v)]
    else:  # the sphere chart: u the azimuth, v the polar angle
        rho = sp.Float(surface.r)
        if isinstance(surface, PerturbedSphere):
            harmonic = sp.Znm(surface.l, surface.m, v, u)
            rho += surface.eps * sp.re(sp.expand(sp.expand_func(harmonic).rewrite(sp.cos)))
        direction = [sp.sin(v) * sp.cos(u), sp.sin(v) * sp.sin(u), sp.cos(v)]
        pos = [sp.sin(rho) * d for d in direction] + [sp.cos(rho)]
    fields = [pos, [sp.diff(e, u) for e in pos], [sp.diff(e, v) for e in pos],
              [sp.diff(e, u, 2) for e in pos], [sp.diff(e, u, v) for e in pos],
              [sp.diff(e, v, 2) for e in pos], rho]
    return sp.lambdify((u, v), fields, "numpy", cse=True)


def _assert_matches_sympy(surface, reference, rng):
    u = rng.uniform(0.0, 2 * PI, 240)
    if surface.periodic_v:
        v = rng.uniform(0.0, 2 * PI, 240)
    else:
        v = np.concatenate([rng.uniform(0.0, PI, 200), np.repeat([0.0, PI], 20)])
    *fields, _ = reference(u, v)
    p = surface.point(u, v)
    for name, ref in zip(FIELDS, fields):
        ref = np.stack([np.broadcast_to(np.asarray(c, dtype=float), u.shape) for c in ref], -1)
        got = rows(getattr(p, name))
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), (surface.name, name)


@pytest.mark.parametrize("surface", [
    GeodesicSphere(0.8), GeodesicSphere(2.2), FlatTorus(0.6), clifford_torus(),
], ids=["sphere-0.8", "sphere-2.2", "torus-0.6", "clifford"])
def test_constant_radius_members_match_sympy_oracle(surface):
    # Geodesic spheres and flat tori have no partials of their own: the chain rule's
    # constant-rho case must give their closed forms' derivatives.
    _assert_matches_sympy(surface, _sympy_reference(surface), np.random.default_rng(8))


@pytest.mark.parametrize("l, m", [
    (0, 0), (1, -1), (2, -1), (2, 2), (3, 1), (3, -2), (4, -3), (5, 0), (6, 4),
])
def test_perturbed_sphere_matches_sympy_oracle(l, m):
    ps = PerturbedSphere(1.2, 0.09, l, m)
    reference = _sympy_reference(ps)
    _assert_matches_sympy(ps, reference, np.random.default_rng(100 * l + m))

    x = sample_s3(20000, np.random.default_rng(7))
    psi = np.arccos(np.clip(x[:, 3], -1.0, 1.0))
    theta = np.arccos(np.clip(x[:, 2] / np.linalg.norm(x[:, :3], axis=1), -1.0, 1.0))
    phi = np.arctan2(x[:, 1], x[:, 0])
    rho = np.broadcast_to(np.asarray(reference(phi, theta)[-1], dtype=float), psi.shape)
    assert np.array_equal(ps.side_classifier(x), psi < rho)


def _exact_harmonic(l, a, theta):
    """Z_la at phi = 0 and its first two theta-partials, (-1)^a sqrt(2) N d^k/dtheta^k of
    sin^a(theta) Q(cos theta), Q = d^a P_l / dx^a, from P_l's exact integer coefficients
    (Rodrigues) by the product rule in 150-digit arithmetic: no recurrence is involved."""
    import mpmath as mp

    with mp.workdps(150):
        poly = {l - 2 * j: (-1) ** j * math.comb(l, j) * math.comb(2 * l - 2 * j, l)
                for j in range(l // 2 + 1)}  # 2^l P_l

        def q(x, n):  # d^(a+n) P_l / dx^(a+n) at x
            return sum(cp * math.perm(p, a + n) * x ** (p - a - n)
                       for p, cp in poly.items() if p >= a + n) / mp.mpf(2) ** l

        scale = (-1) ** a * mp.sqrt(2 * (2 * l + 1) / (4 * mp.pi)
                                    * mp.factorial(l - a) / mp.factorial(l + a))
        out = []
        for t in theta:
            s, c = mp.sin(mp.mpf(t)), mp.cos(mp.mpf(t))
            q0, q1, q2 = q(c, 0), q(c, 1), q(c, 2)
            out.append([scale * v for v in (
                s ** a * q0, a * s ** (a - 1) * c * q0 - s ** (a + 1) * q1,
                a * (a - 1) * s ** (a - 2) * c * c * q0 - a * s ** a * q0
                - (2 * a + 1) * s ** a * c * q1 + s ** (a + 2) * q2)])
        return np.array(out, dtype=float).T


@pytest.mark.parametrize("l, m", [(85, 43), (60, 30), (85, 10)])
def test_high_degree_harmonic_matches_exact_expansion(l, m):
    # Z_lm and its theta-partials hold to rounding at the largest degrees, poles included.
    theta = np.linspace(0.0, PI, 61)
    eps = 0.3
    ps = PerturbedSphere(PI / 2, eps, l, m)
    c, s, _, rho_t, _, _, rho_tt = ps._radius(0.0, theta)
    got = np.array([np.arctan2(s, c) - PI / 2, rho_t, rho_tt]) / eps
    for name, g, ref in zip(("f", "f_theta", "f_thetatheta"), got, _exact_harmonic(l, m, theta)):
        assert np.max(np.abs(g - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref))), name


@pytest.mark.parametrize("l, m", [(2, 0), (6, 3), (4, -3), (8, -8)])
def test_side_classifier_matches_polar_angle_route(l, m):
    # x4 > cos rho gives the bits of psi < rho with psi, theta, phi from arccos and arctan2.
    ps = PerturbedSphere(1.2, 0.25, l, m)
    x = sample_s3(100_000, np.random.default_rng(1000 + 100 * l + m))
    psi = np.arccos(np.clip(x[:, 3], -1.0, 1.0))
    theta = np.arccos(np.clip(x[:, 2] / np.linalg.norm(x[:, :3], axis=1), -1.0, 1.0))
    c, s = ps._radius(np.arctan2(x[:, 1], x[:, 0]), theta)[:2]
    got = ps.side_classifier(x)
    assert np.array_equal(got, psi < np.arctan2(s, c))
    assert np.any(got != GeodesicSphere(1.2).side_classifier(x))


def test_import_does_not_load_sympy():
    # numpy is the only runtime dependency; a stray import fails here.  Nor may the
    # CLI load concurrent.futures: that import alone costs a cold process milliseconds.
    import s3pinch

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(s3pinch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, s3pinch.cli; assert 'sympy' not in sys.modules, 'sympy loaded'; "
            "assert 'concurrent' not in sys.modules, 'concurrent loaded'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_psphere_check_does_not_load_numpy_polynomial():
    # A perturbed sphere's harmonic comes from its own recurrence: a cold check process
    # never pays for importing numpy.polynomial.
    import s3pinch

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(s3pinch.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, s3pinch.cli; s3pinch.cli.main(['--samples', '1000', '--resolution', "
            "'16', 'check', 'psphere:r=1.0,eps=0.1,l=2,m=0']); "
            "assert 'numpy.polynomial' not in sys.modules, 'numpy.polynomial loaded'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True, stdout=subprocess.DEVNULL)


def test_parse_surface():
    assert isinstance(parse_surface("sphere:r=0.7853981634"), GeodesicSphere)
    assert isinstance(parse_surface("torus:a=0.7071067812"), FlatTorus)
    ps = parse_surface("psphere:r=1.0,eps=0.1,l=2,m=0")
    assert isinstance(ps, PerturbedSphere)
    for bad in ("torus:a=1.5", "sphere:r=nope", "blob:x=1", "torus:", "torus:a"):
        with pytest.raises(DomainError):
            parse_surface(bad)

