"""Tests for Heintze-Karcher tube-volume bounds and the inequality chain."""

import dataclasses
import gc
import json
import math
import sys
import time
import weakref

import numpy as np
import pytest

from s3pinch import tube
from s3pinch.catalog import (
    FlatTorus, GeodesicSphere, PerturbedSphere, clifford_torus, sample_s3,
)
from s3pinch.errors import DegenerateMetric, DomainError
from s3pinch.cli import main
from s3pinch.gridio import GridSurface, export_grid, import_surface
from s3pinch.pinch import acot
from s3pinch.quadrature import genus_report, make_grid
from s3pinch.tube import (
    FOUR_PI_SQ,
    MC_TILE,
    S3_VOLUME,
    ChainReport,
    TubeReport,
    monte_carlo_volume,
    side_upper_bound,
    verify_sum_inequality,
)

RTOL = 1e-8


# ---------------------------------------------------------------------------
# focal times
# ---------------------------------------------------------------------------

def test_focal_time_examples():
    assert acot(0.0) == pytest.approx(math.pi / 2, rel=1e-15)
    assert acot(1.0) == pytest.approx(math.pi / 4, rel=1e-15)
    assert acot(-1.0) == pytest.approx(3 * math.pi / 4, rel=1e-15)
    # acot stays in (0, pi) for large |k|.
    assert 0.0 < acot(1e8) < 1e-7
    assert math.pi - 1e-7 < acot(-1e8) < math.pi


def test_focal_time_matches_jacobian_root():
    # cos(t) - k sin(t) vanishes first at t = acot(k).
    for k in (-3.0, -0.5, 0.0, 0.7, 4.0):
        t = acot(k)
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
    sum_bound, genus_bound = cert.links["sum_bound"], cert.links["genus_bound"]
    # Minimal equality case: the sum bound saturates at 2|M| = 4 pi^2.
    assert sum_bound.rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
    assert genus_bound.lhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)  # genus 1
    assert genus_bound.rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
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
        cert = verify_sum_inequality(s, grid)
        r1, r2 = cert.tube_reports
        assert cert.links["genus_bound"].lhs == 0.0  # genus 0
        assert r1.hk_upper == pytest.approx(r1.exact_volume, rel=1e-9)
        assert r2.hk_upper == pytest.approx(r2.exact_volume, rel=1e-9)
        assert r1.hk_upper + r2.hk_upper == pytest.approx(S3_VOLUME, rel=1e-9)
        # Both side bounds are tight, so the sum bound saturates exactly.
        assert cert.links["sum_bound"].rhs == pytest.approx(FOUR_PI_SQ, rel=1e-9)


def test_chain_saturates_on_every_flat_torus():
    # 1 + k1 k2 = 0 kills the arctan terms, so both the sum bound and the
    # genus bound are equalities for every flat torus, square or not.
    for a in (0.3, 0.6, 0.9):
        s = FlatTorus(a)
        grid = make_grid(s, 32, 32)
        links = verify_sum_inequality(s, grid).links
        assert links["sum_bound"].rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
        assert links["genus_bound"].rhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)
        assert links["genus_bound"].lhs == pytest.approx(FOUR_PI_SQ, rel=1e-12)


def test_chain_on_perturbed_sphere():
    s = PerturbedSphere(math.pi / 3, 0.1, 2, 0)
    grid = make_grid(s, 64, 64)
    cert = verify_sum_inequality(s, grid)
    r1, r2 = cert.tube_reports
    assert cert.links["sum_bound"].rhs > FOUR_PI_SQ
    assert cert.links["genus_bound"].lhs == 0.0
    assert cert.links["genus_bound"].rhs > 0.0
    # Sides partition S^3, so the two upper bounds overshoot the total.
    assert r1.hk_upper + r2.hk_upper >= S3_VOLUME - 1e-9


def test_chain_violation_on_doctored_report():
    # Shrinking the quadrature weights breaks the first link.
    s = clifford_torus()
    grid = make_grid(s, 32, 32)
    doctored = dataclasses.replace(grid, weights_u=0.5 * grid.weights_u)
    cert = verify_sum_inequality(s, doctored)
    assert cert.checks["sum_bound"] is False
    assert not all(cert.checks.values())
    assert len(cert.tube_reports) == 2  # every link is still reported
    # Each verdict is its link's margin, rhs + tol*(1 + |rhs|) - lhs, against 0.
    for name, link in cert.links.items():
        assert link.margin == link.rhs + link.tol * (1.0 + abs(link.rhs)) - link.lhs, name
        assert cert.checks[name] == (link.margin >= 0), name
    assert cert.links["sum_bound"].margin < 0


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


@pytest.mark.parametrize("kwargs", [{"n_samples": 0}, {"n_samples": -5},
                                    {"samples": np.empty((0, 4))}],
                         ids=["zero", "negative", "empty-samples"])
def test_monte_carlo_rejects_fewer_than_one_sample(kwargs):
    with pytest.raises(DomainError, match="at least one Monte-Carlo sample"):
        monte_carlo_volume(GeodesicSphere(1.0), 1, **kwargs)


def _whole_draw_volumes(surface, pts):
    # One classification of the whole sample array, side 2 as the negation.
    n = len(pts)
    inside = surface.side_classifier(pts)
    out = []
    for mask in (inside, ~inside):
        p = float(np.count_nonzero(mask)) / n
        out.append((S3_VOLUME * p, S3_VOLUME * math.sqrt(p * (1.0 - p) / n)))
    return out


def _tile_draws(n, seed):
    # Tile t of the n samples comes from the seed's t-th spawned stream.
    return np.concatenate([
        sample_s3(min(MC_TILE, n - i), np.random.Generator(np.random.SFC64(
            np.random.SeedSequence(seed).spawn(i // MC_TILE + 1)[-1])))
        for i in range(0, n, MC_TILE)])


@pytest.mark.parametrize("surface", [GeodesicSphere(1.0), FlatTorus(0.6)])
def test_tiled_monte_carlo_equals_whole_draw(surface):
    n, seed = 3 * MC_TILE + 12345, 9
    pts = _tile_draws(n, seed)
    expected = _whole_draw_volumes(surface, pts)
    for side in (1, 2):
        assert monte_carlo_volume(surface, side, n_samples=n, seed=seed) == expected[side - 1]
        assert monte_carlo_volume(surface, side, samples=pts) == expected[side - 1]


def test_verify_mc_volumes_bit_identical_to_whole_draw():
    s = FlatTorus(0.6)
    n, seed = MC_TILE + 4321, 5
    r1, r2 = verify_sum_inequality(s, make_grid(s, 16, 16), mc_samples=n, seed=seed).tube_reports
    expected = _whole_draw_volumes(s, _tile_draws(n, seed))
    assert r1.mc_volume == expected[0]
    assert r2.mc_volume == expected[1]


@pytest.fixture
def tile_per_worker(monkeypatch):
    # A worker per tile, so draws of a few tiles still start threads.
    monkeypatch.setattr(tube, "MC_WORKER_SAMPLES", MC_TILE)


@pytest.mark.usefixtures("tile_per_worker")
@pytest.mark.parametrize("n", [3 * MC_TILE + 12345, 1000])
def test_monte_carlo_same_for_every_worker_count(monkeypatch, n):
    s, seed = FlatTorus(0.6), 13
    pts = _tile_draws(n, seed)
    expected = _whole_draw_volumes(s, pts)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches than cores: a lost count would show
    try:
        for workers in (1, 2, 3, 5):
            monkeypatch.setattr(tube, "MC_WORKERS", workers)
            for side in (1, 2):
                assert monte_carlo_volume(s, side, n_samples=n, seed=seed) == expected[side - 1]
                assert monte_carlo_volume(s, side, samples=pts) == expected[side - 1]
    finally:
        sys.setswitchinterval(interval)


def test_monte_carlo_starts_no_thread_below_one_tile(monkeypatch):
    started = []
    monkeypatch.setattr(tube, "MC_WORKERS", 4)
    monkeypatch.setattr(tube.threading.Thread, "start", lambda self: started.append(self))
    monte_carlo_volume(FlatTorus(0.6), 1, n_samples=MC_TILE - 1)
    assert started == []


@pytest.mark.parametrize("n, threads", [(2 * tube.MC_WORKER_SAMPLES - 1, 0),
                                        (2 * tube.MC_WORKER_SAMPLES, 1)])
def test_monte_carlo_worker_takes_at_least_min_samples(monkeypatch, n, threads):
    started, start = [], tube.threading.Thread.start
    monkeypatch.setattr(tube, "MC_WORKERS", 4)
    monkeypatch.setattr(tube.threading.Thread, "start", lambda self: (started.append(self), start(self)))
    monte_carlo_volume(FlatTorus(0.6), 1, n_samples=n)
    assert len(started) == threads


class _FailsFirst(GeodesicSphere):
    """Raises on its first call; every later call is slow but succeeds."""

    def __init__(self):
        super().__init__(1.0)
        self.calls = []

    def side_classifier(self, x):
        self.calls.append(len(x))
        if len(self.calls) == 1:
            raise ValueError("classifier failed")
        time.sleep(0.05)
        return np.zeros(len(x), dtype=bool)


@pytest.mark.usefixtures("tile_per_worker")
@pytest.mark.parametrize("workers", [1, 2, 3, None])
def test_monte_carlo_worker_failure_stops_every_worker(monkeypatch, workers):
    if workers is not None:
        monkeypatch.setattr(tube, "MC_WORKERS", workers)
    s = _FailsFirst()
    with pytest.raises(ValueError, match="classifier failed"):
        monte_carlo_volume(s, 1, n_samples=50 * MC_TILE)
    assert 1 <= len(s.calls) <= tube.MC_WORKERS


@pytest.mark.usefixtures("tile_per_worker")
@pytest.mark.parametrize("n, workers", [(1000, None), (3 * MC_TILE, 3)])
def test_imported_surface_freed_without_gc_after_mc(tmp_path, monkeypatch, n, workers):
    # verify_sum_inequality skips MC on an imported grid; its report must still
    # leave no reference cycle holding the surface.
    if workers is not None:
        monkeypatch.setattr(tube, "MC_WORKERS", workers)
    path = tmp_path / "torus.csv"
    export_grid(FlatTorus(0.6), 32, 32, path)
    gc.collect()
    gc.disable()
    try:
        surface = import_surface(path)
        ref = weakref.ref(surface)
        cert = verify_sum_inequality(surface, surface.natural_grid(), mc_samples=n)
        assert cert.tube_reports[0].mc_volume is None
        del surface
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.usefixtures("tile_per_worker")
@pytest.mark.parametrize("n, workers", [(1000, None), (3 * MC_TILE, 3)])
def test_imported_surface_freed_without_gc_after_direct_mc(tmp_path, monkeypatch, n, workers):
    # The classifier of an imported grid raises in every worker; re-raising
    # one error must leave no reference cycle holding the surface.
    if workers is not None:
        monkeypatch.setattr(tube, "MC_WORKERS", workers)
    path = tmp_path / "torus.csv"
    export_grid(FlatTorus(0.6), 32, 32, path)
    gc.collect()
    gc.disable()
    try:
        surface = import_surface(path)
        ref = weakref.ref(surface)
        with pytest.raises(NotImplementedError):
            monte_carlo_volume(surface, 1, n_samples=n)
        del surface
        assert ref() is None
    finally:
        gc.enable()


def test_imported_check_draws_no_samples(tmp_path, monkeypatch, capsys):
    # At 2**19 samples a catalog surface would start a worker thread; an
    # imported grid has no classifier, so its certificate draws nothing.
    started, classified, start = [], [], tube.threading.Thread.start
    monkeypatch.setattr(tube, "MC_WORKERS", 4)
    monkeypatch.setattr(tube.threading.Thread, "start", lambda self: (started.append(self), start(self)))
    monkeypatch.setattr(tube, "sample_s3", lambda *a: classified.append("draw"))
    monkeypatch.setattr(GridSurface, "side_classifier", lambda self, x: classified.append(x))
    path = tmp_path / "torus.csv"
    export_grid(FlatTorus(0.6), 32, 32, path)
    assert main(["--samples", str(2 ** 19), "import", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["tube_reports"][0]["mc_volume"] is None
    assert started == [] and classified == []


@pytest.mark.parametrize("seed", [0, 5, 2 ** 40 + 7])
def test_tile_generators_are_spawn_key_streams(monkeypatch, seed):
    # Tile t's generator must have the state of SFC64(SeedSequence(seed, spawn_key=(t,))).
    tiles, states = (0, 1, 2, 7, 244, 1000), []
    monkeypatch.setattr(tube, "MC_WORKERS", 1)
    monkeypatch.setattr(tube, "sample_s3", lambda n, rng: (
        states.append(rng.bit_generator.state), np.empty((n, 4)))[1])
    monkeypatch.setattr(GeodesicSphere, "side_classifier", lambda self, x: np.zeros(len(x), bool))
    monte_carlo_volume(GeodesicSphere(1.0), 1, n_samples=(tiles[-1] + 1) * MC_TILE, seed=seed)
    for t in tiles:
        np.testing.assert_equal(states[t], np.random.SFC64(
            np.random.SeedSequence(seed, spawn_key=(t,))).state)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None, "3", np.float64(2.0)])
def test_monte_carlo_rejects_a_seed_that_is_not_an_integer_ge_0(seed):
    s = FlatTorus(0.6)
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        monte_carlo_volume(s, 1, n_samples=100, seed=seed)
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        verify_sum_inequality(s, make_grid(s, 16, 16), mc_samples=100, seed=seed)


@pytest.mark.parametrize("seed", [0, np.int64(7), 2 ** 130])
def test_monte_carlo_takes_any_integer_seed_ge_0(seed):
    s, n = FlatTorus(0.6), MC_TILE + 1
    assert monte_carlo_volume(s, 1, n_samples=n, seed=seed) == _whole_draw_volumes(
        s, _tile_draws(n, seed))[0]


def test_verify_with_mc_attached():
    s = FlatTorus(0.6)
    grid = make_grid(s, 32, 32)
    r1, r2 = verify_sum_inequality(s, grid, mc_samples=100_000, seed=5).tube_reports
    for rep in (r1, r2):
        est, err = rep.mc_volume
        assert abs(est - rep.exact_volume) < 4.0 * err
        assert rep.hk_upper >= rep.exact_volume - 1e-9


# ---------------------------------------------------------------------------
# verify_sum_inequality draws the tiles while the node field is reduced
# ---------------------------------------------------------------------------

@pytest.mark.usefixtures("tile_per_worker")
@pytest.mark.parametrize("surface", [FlatTorus(0.6), GeodesicSphere(1.0)])
def test_overlapped_check_same_report_for_every_worker_count(monkeypatch, surface):
    grid, n, seed = make_grid(surface, 32, 32), 3 * MC_TILE + 123, 11
    expected = _whole_draw_volumes(surface, _tile_draws(n, seed))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more thread switches than cores: a lost count would show
    try:
        reports = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(tube, "MC_WORKERS", workers)
            reports.append(verify_sum_inequality(surface, grid, mc_samples=n, seed=seed))
    finally:
        sys.setswitchinterval(interval)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0].genus_report == genus_report(surface, grid)
    assert [t.mc_volume for t in reports[0].tube_reports] == expected


class _NodeFieldFails(GeodesicSphere):
    """`point` raises DegenerateMetric once the workers have had time to classify tiles;
    `side_classifier` counts its calls and, if asked, fails on the first."""

    def __init__(self, classifier_fails):
        super().__init__(1.0)
        self.classifier_fails = classifier_fails
        self.calls, self.calls_at_raise = [], None

    def point(self, u, v):
        time.sleep(0.05)
        self.calls_at_raise = len(self.calls)
        raise DegenerateMetric("planted node-field failure")

    def side_classifier(self, x):
        self.calls.append(len(x))
        if self.classifier_fails:
            raise ValueError("classifier failed")
        return np.zeros(len(x), dtype=bool)


@pytest.mark.parametrize("classifier_fails", [False, True])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_node_field_error_wins_and_stops_the_draw(monkeypatch, workers, classifier_fails):
    monkeypatch.setattr(tube, "MC_WORKERS", workers)
    s = _NodeFieldFails(classifier_fails)
    with pytest.raises(DegenerateMetric, match="planted"):
        verify_sum_inequality(s, make_grid(s, 16, 16), mc_samples=10 ** 9)
    # A worker finishes the tile it holds, then stops: 10**9 samples are 122071 tiles.
    assert len(s.calls) - s.calls_at_raise <= tube.MC_WORKERS
    if workers == 1:
        assert s.calls == []


@pytest.mark.parametrize("n, workers, threads", [
    (10 ** 5, 1, 0), (10 ** 5, 2, 1), (10 ** 5, 3, 1),
    # From 2**19 samples the draw alone starts these threads, one per 2**18 samples.
    (2 ** 19, 1, 0), (2 ** 19, 2, 1), (2 ** 19, 4, 1), (2 ** 20, 4, 3)])
def test_overlapped_check_thread_count(monkeypatch, n, workers, threads):
    started, start = [], tube.threading.Thread.start
    monkeypatch.setattr(tube, "MC_WORKERS", workers)
    monkeypatch.setattr(tube.threading.Thread, "start", lambda self: (started.append(self), start(self)))
    s = FlatTorus(0.6)
    verify_sum_inequality(s, make_grid(s, 16, 16), mc_samples=n)
    assert len(started) == threads


@pytest.mark.parametrize("fails", [False, True], ids=["passes", "node-field-error"])
def test_catalog_surface_freed_without_gc_after_overlapped_check(monkeypatch, fails):
    monkeypatch.setattr(tube, "MC_WORKERS", 2)
    gc.collect()
    gc.disable()
    try:
        surface = _NodeFieldFails(classifier_fails=True) if fails else FlatTorus(0.6)
        ref = weakref.ref(surface)
        try:
            cert = verify_sum_inequality(surface, make_grid(surface, 16, 16), mc_samples=10 ** 5)
            assert not fails and cert.tube_reports[0].mc_volume is not None
        except DegenerateMetric:
            assert fails
        del surface
        assert ref() is None
    finally:
        gc.enable()
