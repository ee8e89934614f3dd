"""Tests for grid export/import and finite-difference reconstruction."""

import math

import numpy as np
import pytest

from s3pinch.catalog import FlatTorus, GeodesicSphere, clifford_torus
from s3pinch.errors import FormatError, OffSampleGrid, OffSphere, ResolutionTooCoarse
from s3pinch.gridio import GridSurface, export_grid, import_surface
from s3pinch.quadrature import genus_report


def _round_trip(tmp_path, surface, nu, nv, name="grid.csv"):
    path = tmp_path / name
    export_grid(surface, nu, nv, path)
    return path, import_surface(path)


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------

def test_clifford_round_trip_genus_and_slack(tmp_path):
    _, gs = _round_trip(tmp_path, clifford_torus(), 64, 64)
    rep = genus_report(gs, gs.natural_grid())
    assert rep.genus == 1
    assert abs(rep.slack) < 1e-4
    assert rep.area == pytest.approx(2 * math.pi ** 2, rel=1e-6)


def test_flat_torus_round_trip_curvatures(tmp_path):
    src = FlatTorus(0.6)
    _, gs = _round_trip(tmp_path, src, 64, 64)
    grid = gs.natural_grid()
    u, v = np.meshgrid(grid.nodes_u, grid.nodes_v, indexing="ij")
    from s3pinch.geometry import curvature_at
    cd = curvature_at(gs.point(u, v))
    k1_exact, k2_exact = src.exact_principal_curvatures
    assert np.max(np.abs(cd.k1 - k1_exact)) < 1e-6
    assert np.max(np.abs(cd.k2 - k2_exact)) < 1e-6


def test_sphere_round_trip_genus_zero(tmp_path):
    _, gs = _round_trip(tmp_path, GeodesicSphere(math.pi / 3), 64, 64)
    rep = genus_report(gs, gs.natural_grid())
    assert rep.genus == 0
    assert rep.bound_lhs == 0.0


def test_imported_metadata_matches_source(tmp_path):
    src = GeodesicSphere(1.0)
    _, gs = _round_trip(tmp_path, src, 32, 32)
    assert gs.periodic_u and not gs.periodic_v
    assert gs.domain_u == pytest.approx(src.domain_u)
    assert gs.domain_v == pytest.approx(src.domain_v)


def test_point_only_defined_at_nodes(tmp_path):
    _, gs = _round_trip(tmp_path, clifford_torus(), 32, 32)
    grid = gs.natural_grid()
    u0, v0 = grid.nodes_u[3], grid.nodes_v[5]
    p = gs.point(u0, v0)
    assert abs(np.linalg.norm(p.position) - 1.0) < 1e-12
    with pytest.raises(OffSampleGrid):
        gs.point(u0 + 1e-3, v0)


def test_sphere_chart_import_has_no_coarse_probe(tmp_path):
    # Gauss-Legendre coarse nodes miss the cell-centre samples of a sphere
    # chart, so the convergence probe is skipped rather than failed.
    _, gs = _round_trip(tmp_path, GeodesicSphere(1.0), 32, 32)
    assert math.isnan(genus_report(gs, gs.natural_grid()).convergence)


@pytest.mark.parametrize("row, col, text", [(0, 2, "nan"), (37, 5, "inf"), (1023, 0, "-inf"),
                                            (500, 1, "NaN")])
def test_non_finite_value_rejected(tmp_path, row, col, text):
    path = tmp_path / "grid.csv"
    export_grid(FlatTorus(0.6), 32, 32, path)
    lines = path.read_text().splitlines()
    cols = lines[2 + row].split(",")
    cols[col] = text
    lines[2 + row] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"non-finite value in data row {row + 1}:"):
        import_surface(path)


# ---------------------------------------------------------------------------
# Validation failure modes
# ---------------------------------------------------------------------------

def test_off_sphere_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    cols = lines[10].split(",")
    cols[2] = repr(float(cols[2]) + 1e-3)
    lines[10] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(OffSphere):
        import_surface(path)


def test_truncated_file_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


def test_bad_header_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    lines[1] = "u,v,x,y,z"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


def test_missing_metadata_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[1:]) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


def test_non_numeric_row_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",oops"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


def test_too_coarse_periodic_grid_rejected(tmp_path):
    path = tmp_path / "coarse.csv"
    export_grid(clifford_torus(), 8, 32, path)
    with pytest.raises(ResolutionTooCoarse):
        import_surface(path)


def test_single_row_grid_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(ResolutionTooCoarse, match="16 nodes per periodic"):
        import_surface(path)


def test_too_coarse_non_periodic_grid_rejected(tmp_path):
    path = tmp_path / "coarse.csv"
    export_grid(GeodesicSphere(1.0), 32, 6, path)
    with pytest.raises(ResolutionTooCoarse, match="7 per non-periodic"):
        import_surface(path)
    export_grid(GeodesicSphere(1.0), 32, 7, path)
    assert import_surface(path).positions.shape == (32, 7, 4)


def test_nonuniform_spacing_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    cols = lines[5].split(",")
    cols[1] = repr(float(cols[1]) + 1e-4)
    lines[5] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


# ---------------------------------------------------------------------------
# Finite-difference accuracy of the reconstruction
# ---------------------------------------------------------------------------

def test_fd_derivative_order(tmp_path):
    # Halving h on a smooth surface should shrink the slack fast (6th-order
    # interior stencils); just confirm clear improvement.
    slacks = []
    for n in (32, 64):
        _, gs = _round_trip(tmp_path, clifford_torus(), n, n, name=f"g{n}.csv")
        rep = genus_report(gs, gs.natural_grid())
        slacks.append(abs(rep.slack))
    assert slacks[1] < slacks[0] / 4.0


def test_grid_surface_is_a_surface(tmp_path):
    _, gs = _round_trip(tmp_path, GeodesicSphere(0.9), 32, 32)
    assert isinstance(gs, GridSurface)
    assert gs.exact_area is None
    assert not gs.is_minimal
