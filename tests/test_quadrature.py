import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from s3pinch import (
    DegenerateMetric, FlatTorus, GenusDetectionFailure, GeodesicSphere,
    NotMinimal, NumericalFailure, PerturbedSphere, acot, clifford_torus, export_grid, f_pinch,
    f_series, eigen_report, gap_report, genus_report, hk_time_integral, import_surface,
    make_grid, prop1_integrand, quadrature, verify_sum_inequality,
)
from s3pinch.quadrature import NodeSums, _node_data, node_sums

PI = math.pi
FOUR_PI_SQ = 4 * PI ** 2


def integrate(surface, field, grid):
    """Integral of field(curvature data) over the surface from the node data."""
    cd, w = _node_data(surface, grid)
    return float(np.sum(w * field(cd)))


def test_weights_sum_to_domain_measure():
    grid = make_grid(clifford_torus(), 64, 64)
    total = np.sum(grid.weights_u) * np.sum(grid.weights_v)
    assert total == pytest.approx(4 * PI ** 2, abs=1e-12 * 4 * PI ** 2)
    # A polar direction's weights integrate sin(v) times a smooth function, so they
    # do not sum to the interval's length; against sin(v) they give its integral, 2.
    grid = make_grid(GeodesicSphere(1.0), 64, 64)
    assert np.sum(grid.weights_u) == pytest.approx(2 * PI, abs=1e-14)
    assert np.sum(grid.weights_v * np.sin(grid.nodes_v)) == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("n", [16, 48, 64, 2048])
def test_half_rule_nests_bit_for_bit(n):
    # The n/2-cell rule's nodes are the grid's even cell ends, bit for bit, and the
    # grid stores that rule's weights on them and 0 on every other node.
    sphere = GeodesicSphere(1.0)
    grid = make_grid(sphere, n, n)
    for nodes, stored, domain, periodic in ((grid.nodes_u, grid.half_u, sphere.domain_u, True),
                                            (grid.nodes_v, grid.half_v, sphere.domain_v, False)):
        half_nodes, half_weights = quadrature._line_rule(*domain, n // 2, periodic)
        on = np.zeros(len(nodes), dtype=bool)
        on[0 if periodic else 1::2] = True
        assert np.array_equal(nodes[on], half_nodes)
        assert np.array_equal(stored[on], half_weights) and not np.any(stored[~on])


POLAR_RULES = [(n, centres) for centres in (False, True) for n in (4, 5, 16, 17, 64)]


@pytest.mark.parametrize("n, centres", POLAR_RULES,
                         ids=[f"centres-{n}" if centres else str(n) for n, centres in POLAR_RULES])
def test_polar_rule_integrates_every_resolved_sine_exactly(n, centres):
    # Fejer's second rule in cos(theta), on the n - 1 interior cell ends of a catalog grid, is
    # exact for sin(k theta), 1 <= k < n; his first rule, on the n cell centres a grid file
    # holds, for 1 <= k <= n.
    nodes, weights = quadrature._line_rule(0.0, PI, n, False, centres)
    assert len(nodes) == (n if centres else n - 1) and np.all((0.0 < nodes) & (nodes < PI))
    for k in range(1, n + 1 if centres else n):
        exact = 2.0 / k if k % 2 else 0.0
        assert abs(np.sum(weights * np.sin(k * nodes)) - exact) <= 1e-14, k
    lo, hi = -0.3, 2.9  # theta = pi (x - lo)/(hi - lo) on any interval
    nodes, weights = quadrature._line_rule(lo, hi, n, False, centres)
    got = np.sum(weights * np.sin(PI * (nodes - lo) / (hi - lo)))
    assert got == pytest.approx(2.0 * (hi - lo) / PI, abs=1e-14)


def test_sphere_chart_reports_convergence_from_16_cells():
    # 16 cells per direction are 15 polar nodes: the half rule still nests.
    for surface in (GeodesicSphere(1.0), PerturbedSphere(1.2, 0.1, 3, 2)):
        rep = genus_report(surface, make_grid(surface, 16, 16))
        assert rep.resolution == (16, 15) and rep.convergence is not None
        assert genus_report(surface, make_grid(surface, 8, 8)).convergence is None
    assert rep.convergence > 1e-8  # the perturbed sphere's probe measures a real change


def test_periodic_nodes_exclude_duplicate_endpoint():
    grid = make_grid(clifford_torus(), 16, 16)
    assert grid.nodes_u[0] == 0.0
    assert grid.nodes_u[-1] < 2 * PI
    assert len(np.unique(grid.nodes_u)) == 16


@pytest.mark.parametrize("r", [PI / 6, PI / 4, 1.0, PI / 2])
def test_sphere_area(r):
    surface = GeodesicSphere(r)
    grid = make_grid(surface, 64, 64)
    area = integrate(surface, lambda cd: 1.0, grid)
    assert area == pytest.approx(4 * PI * math.sin(r) ** 2, abs=1e-8)


@pytest.mark.parametrize("a", [0.3, 0.6, 1 / math.sqrt(2)])
def test_torus_area(a):
    surface = FlatTorus(a)
    grid = make_grid(surface, 32, 32)
    area = integrate(surface, lambda cd: 1.0, grid)
    assert area == pytest.approx(surface.exact_area, abs=1e-10)


def test_clifford_gauss_curvature_integrates_to_zero():
    surface = clifford_torus()
    grid = make_grid(surface, 64, 64)
    assert integrate(surface, lambda cd: cd.gauss_K, grid) == pytest.approx(0.0, abs=1e-10)


def test_gauss_bonnet_across_catalog():
    cases = [
        (GeodesicSphere(PI / 6), 2), (GeodesicSphere(PI / 2), 2),
        (FlatTorus(0.4), 0), (clifford_torus(), 0),
        (PerturbedSphere(PI / 3, 0.1, 2, 0), 2),
        (PerturbedSphere(PI / 2, 0.2, 3, 1), 2),
    ]
    for surface, chi in cases:
        grid = make_grid(surface, 64, 64)
        rep = genus_report(surface, grid)
        assert abs(rep.total_K - 2 * PI * chi) < 1e-6, surface.name
        assert rep.euler_char == chi
        assert rep.genus == (2 - chi) // 2


def test_clifford_equality_report():
    surface = clifford_torus()
    rep = genus_report(surface, make_grid(surface, 64, 64))
    assert rep.genus == 1
    assert rep.integral_f == pytest.approx(FOUR_PI_SQ, rel=1e-12)
    assert abs(rep.slack) < 1e-8
    assert rep.gap_integral == pytest.approx(4 * math.sqrt(2) * PI ** 2, rel=1e-12)
    assert rep.gap_below is False


def test_geodesic_sphere_report():
    surface = GeodesicSphere(PI / 3)
    rep = genus_report(surface, make_grid(surface, 64, 64))
    assert rep.genus == 0
    assert rep.integral_f < 1e-10
    links = verify_sum_inequality(surface, make_grid(surface, 64, 64)).links
    assert links["theorem2"].lhs == 0.0
    assert rep.slack >= 0.0
    assert links["cubic"].rhs == pytest.approx(0.0, abs=1e-10)


def test_flat_torus_strict_slack_frozen_value():
    # 4 pi^2 ab f(1/(sqrt(2) ab)) - 4 pi^2 at a = 0.6, from a 40-digit
    # evaluation of the closed forms.
    surface = FlatTorus(0.6)
    rep = genus_report(surface, make_grid(surface, 64, 64))
    assert rep.genus == 1
    assert rep.slack == pytest.approx(2.5979674924640017, abs=1e-10)
    assert rep.slack > 0


def test_theorem2_bound_on_random_perturbed_spheres():
    rng = np.random.default_rng(3)
    for _ in range(5):
        r = rng.uniform(0.8, 2.0)
        eps = rng.uniform(0.0, 0.3)
        l = int(rng.integers(1, 4))
        m = int(rng.integers(-l, l + 1))
        surface = PerturbedSphere(r, eps, l, m)
        rep = genus_report(surface, make_grid(surface, 64, 64))
        assert rep.slack >= -1e-6 * (1.0 + abs(rep.bound_rhs)), surface.name


def test_cubic_bound_strict_for_tori():
    for a in (0.35, 0.5, 1 / math.sqrt(2), 0.8):
        surface = FlatTorus(a)
        cubic = verify_sum_inequality(surface, make_grid(surface, 32, 32)).links["cubic"]
        assert cubic.rhs > cubic.lhs, surface.name


def test_integral_f_consistent_with_series_route():
    # Where |Aring| < sqrt(2) everywhere, the closed form and the truncated
    # series must agree within the integrated series error bound.
    surface = PerturbedSphere(PI / 3, 0.1, 2, 0)
    grid = make_grid(surface, 32, 32)
    via_closed = integrate(surface, lambda cd: f_pinch(cd.traceless_norm), grid)

    def series_field(cd):
        flat = np.ravel(cd.traceless_norm)
        assert np.all(flat < math.sqrt(2))
        vals = np.array([f_series(float(t), 30)[0] for t in flat])
        return vals.reshape(np.shape(cd.traceless_norm))

    def series_bound_field(cd):
        flat = np.ravel(cd.traceless_norm)
        vals = np.array([f_series(float(t), 30)[1] for t in flat])
        return vals.reshape(np.shape(cd.traceless_norm))

    via_series = integrate(surface, series_field, grid)
    bound = integrate(surface, series_bound_field, grid)
    assert abs(via_closed - via_series) <= bound + 1e-12


def test_genus_detection_failure_on_tight_tolerance(monkeypatch):
    surface = PerturbedSphere(1.0, 0.25, 3, 1)
    grid = make_grid(surface, 8, 8)
    monkeypatch.setattr(quadrature, "EULER_ROUNDING_TOL", 1e-14)
    with pytest.raises(GenusDetectionFailure):
        genus_report(surface, grid)


def test_gap_report_matches_report_and_rejects_non_minimal():
    surface = clifford_torus()
    grid = make_grid(surface, 32, 32)
    assert gap_report(surface, grid).integral_A3 == genus_report(surface, grid).gap_integral
    with pytest.raises(NotMinimal):
        gap_report(FlatTorus(0.6), make_grid(FlatTorus(0.6), 32, 32))


def test_genus_and_gap_reports_share_the_minimality_rule():
    # Off the Clifford torus by 1e-8 (no closed-form lambda_1), but max |H| is far
    # below MINIMAL_H_TOL.
    surface = FlatTorus(1 / math.sqrt(2) + 1e-8)
    grid = make_grid(surface, 64, 64)
    assert surface.exact_lambda1 is None
    rep, gap = genus_report(surface, grid), gap_report(surface, grid)
    assert rep.gap_integral == gap.integral_A3 == pytest.approx(55.8309, abs=1e-4)
    assert rep.gap_below is gap.below_threshold is False
    assert genus_report(FlatTorus(0.6), make_grid(FlatTorus(0.6), 32, 32)).gap_integral is None


def test_grid_reduction_memory_does_not_grow_with_resolution():
    # A grid is its two line rules: no (Nu, Nv) array is stored or built, so
    # the 2048^2 reduction peaks at its tiles (a stored weight array alone is 32 MB).
    surface = GeodesicSphere(1.0)
    tracemalloc.start()
    try:
        node_sums(surface, make_grid(surface, 2048, 2048))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


def test_sweep_and_eigen_read_each_grid_once(monkeypatch):
    # One node pass per report: the convergence probe is read off the same nodes.
    calls, node_sums = [], quadrature.node_sums
    monkeypatch.setattr(quadrature, "node_sums",
                        lambda s, g: (calls.append(g.resolution), node_sums(s, g))[1])
    quadrature.sweep_tori(0.3, 0.9, 61, 64)
    assert calls == [(64, 64)] * 61
    calls.clear()
    sphere = GeodesicSphere(1.0)
    eigen_report(sphere, make_grid(sphere, 32, 32), 1e-8)
    assert calls == [(32, 31)]


def test_eigen_report_rejects_a_planted_lambda1_above_the_bound():
    # A geodesic sphere is the equality case lambda_1 * Area = 8 pi of every bound.
    sphere = GeodesicSphere(1.0)
    grid = make_grid(sphere, 32, 32)
    rep = eigen_report(sphere, grid, 1e-8)
    assert rep.links["pinching"].lhs == pytest.approx(8 * PI, rel=1e-14)
    assert rep.passed and rep.equality_discrepancy is None
    sphere.exact_lambda1 *= 1.0 + 1e-6
    planted = eigen_report(sphere, grid, 1e-8)
    assert not planted.checks["pinching"] and not planted.passed


def test_report_embeds_resolution_and_convergence():
    surface = clifford_torus()
    rep = genus_report(surface, make_grid(surface, 32, 32))
    assert rep.resolution == (32, 32)
    assert rep.convergence < 1e-12


@pytest.mark.parametrize("surface", [
    FlatTorus(0.6), GeodesicSphere(1.0), PerturbedSphere(1.2, 0.1, 3, 2),
], ids=["torus", "sphere", "psphere"])
def test_tiled_sums_match_whole_grid_sums(surface, monkeypatch):
    # 5 rows of 32 per tile: seven tiles, the last holding only two rows.
    monkeypatch.setattr(quadrature, "NODE_TILE", 5 * 32 + 7)
    grid = make_grid(surface, 32, 32)
    sums = quadrature.node_sums(surface, grid)
    cd, w = _node_data(surface, grid)
    k1, k2, t = cd.k1, cd.k2, cd.traceless_norm
    whole = {
        "area": np.sum(w),
        "total_K": np.sum(w * cd.gauss_K),
        "integral_f": np.sum(w * f_pinch(t)),
        "integral_A3": np.sum(w * t ** 3),
        "integral_absA3": np.sum(w * (k1 ** 2 + k2 ** 2) ** 1.5),
        "hk_upper": [np.sum(w * hk_time_integral(k1, k2)),
                     np.sum(w * hk_time_integral(-k2, -k1))],
        "integral_prop1": np.sum(w * prop1_integrand(k1, k2)),
    }
    for name, value in whole.items():
        np.testing.assert_allclose(getattr(sums, name), value, rtol=1e-13, atol=1e-13, err_msg=name)
    focal = acot(k2), acot(-k1)
    assert sums.focal_min == tuple(float(np.min(f)) for f in focal)
    assert sums.focal_max == tuple(float(np.max(f)) for f in focal)
    assert sums.max_H == float(np.max(np.abs(cd.H)))


class _PinchedTorus(FlatTorus):
    """A flat torus whose u-partial vanishes at one node, (row, col), of its
    32x32 grid."""

    row, col = 30, 7

    def point(self, u, v):
        p = super().point(u, v)
        grid = make_grid(self, 32, 32)
        bad = (u == grid.nodes_u[self.row]) & (v == grid.nodes_v[self.col])
        return dataclasses.replace(p, du=tuple(np.where(bad, 0.0, x) for x in p.du))


def test_degenerate_metric_names_the_grid_node_in_the_last_tile(monkeypatch):
    monkeypatch.setattr(quadrature, "NODE_TILE", 4 * 32)
    surface = _PinchedTorus(0.6)
    with pytest.raises(DegenerateMetric, match=r"batch index \(30, 7\):"):
        quadrature.node_sums(surface, make_grid(surface, 32, 32))


def _reference_sums(surface, grid):
    """`node_sums` reduced from the public elementwise functions, over the same tiles in the
    same order, so every float it adds is the one `node_sums` should add."""
    step = max(1, quadrature.NODE_TILE // grid.resolution[1])
    sums, half_f, lo, hi, max_H = np.zeros(8), 0.0, np.full(2, np.inf), np.full(2, -np.inf), 0.0
    for start in range(0, grid.resolution[0], step):
        rows = slice(start, start + step)
        cd, w = _node_data(surface, grid, rows)
        k1, k2, t = cd.k1, cd.k2, cd.traceless_norm
        f = f_pinch(t)
        sums += [np.sum(w * x) for x in (
            1.0, cd.gauss_K, f, t ** 3, (k1 ** 2 + k2 ** 2) ** 1.5,
            hk_time_integral(k1, k2), hk_time_integral(-k2, -k1), prop1_integrand(k1, k2))]
        if grid.half_u is not None:
            half_f += np.sum(grid.half_u[rows, None] * grid.half_v * cd.area_element * f)
        focal = acot(k2), acot(-k1)
        lo = np.minimum(lo, [np.min(x) for x in focal])
        hi = np.maximum(hi, [np.max(x) for x in focal])
        max_H = max(max_H, float(np.max(np.abs(cd.H))))
    area, total_K, int_f, int_A3, abs_A3, hk1, hk2, prop1 = map(float, sums)
    return NodeSums(area, total_K, int_f, int_A3, abs_A3, (hk1, hk2), prop1,
                    tuple(map(float, lo)), tuple(map(float, hi)), max_H,
                    None if grid.half_u is None else abs(int_f - float(half_f)) / (1.0 + abs(int_f)))


@pytest.mark.parametrize("n", [16, 64])
@pytest.mark.parametrize("surface", [
    FlatTorus(0.6), GeodesicSphere(1.0), PerturbedSphere(1.2, 0.1, 6, 3),
    PerturbedSphere(1.0, 0.2, 2, 0),
], ids=["torus", "sphere", "psphere63", "psphere20"])
def test_node_sums_equal_the_public_functions_bit_for_bit(surface, n):
    # The tile takes three arctangents instead of the public functions' eight, and no
    # validation: every sum, extreme and the convergence probe keep their bits (repr
    # tells -0.0 from 0.0).
    grid = make_grid(surface, n, n)
    assert repr(node_sums(surface, grid)) == repr(_reference_sums(surface, grid))


def test_imported_node_sums_equal_the_public_functions_bit_for_bit(tmp_path):
    export_grid(GeodesicSphere(1.0), 32, 16, tmp_path / "sphere.csv")
    surface = import_surface(tmp_path / "sphere.csv")
    grid = surface.natural_grid()
    assert grid.resolution == (32, 16)
    assert repr(node_sums(surface, grid)) == repr(_reference_sums(surface, grid))


class _OverflowingTorus(FlatTorus):
    """A flat torus whose second u-partial is scaled by 1e308 from grid row 9 of 16 on,
    so its curvatures there overflow to inf or nan."""

    def point(self, u, v):
        p = super().point(u, v)
        scale = np.where(u >= make_grid(self, 16, 16).nodes_u[9], 1e308, 1.0)
        return dataclasses.replace(p, duu=tuple(scale * x for x in p.duu))


def test_non_finite_curvature_is_a_numerical_failure_naming_its_row(monkeypatch):
    # Row 9 lies in the third tile of four rows: the message offsets it by the tile's start.
    monkeypatch.setattr(quadrature, "NODE_TILE", 4 * 16)
    surface = _OverflowingTorus(0.6)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NumericalFailure, match=r"non-finite curvature at grid row 9: "):
            node_sums(surface, make_grid(surface, 16, 16))
