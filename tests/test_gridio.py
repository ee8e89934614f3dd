"""Tests for grid export/import and the reconstruction of its partials."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3pinch import quadrature
from s3pinch.catalog import FlatTorus, GeodesicSphere, PerturbedSphere, Surface, clifford_torus
from s3pinch.cli import main
from s3pinch.errors import (
    FormatError, OffSampleGrid, OffSphere, ResolutionTooCoarse, S3PinchError,
)
from s3pinch.geometry import SurfacePoint
from s3pinch.gridio import GridSurface, _partials, export_grid, import_surface
from s3pinch.pinch import f_pinch
from s3pinch.quadrature import genus_report, make_grid, node_sums
from s3pinch.tube import CHAIN_TOL, verify_sum_inequality


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
    assert verify_sum_inequality(gs, gs.natural_grid()).links["theorem2"].lhs == 0.0


def test_imported_metadata_matches_source(tmp_path):
    src = GeodesicSphere(1.0)
    _, gs = _round_trip(tmp_path, src, 32, 32)
    assert gs.periodic_u and not gs.periodic_v
    assert gs.domain_u == pytest.approx(src.domain_u)
    assert gs.domain_v == pytest.approx(src.domain_v)
    # The positions are copied once into the surface's own array: no view of the parse table.
    assert gs.positions.flags.c_contiguous and gs.positions.base is gs._fields


def test_point_only_defined_at_nodes(tmp_path):
    _, gs = _round_trip(tmp_path, clifford_torus(), 32, 32)
    grid = gs.natural_grid()
    u0, v0 = grid.nodes_u[3], grid.nodes_v[5]
    p = gs.point(u0, v0)
    assert abs(np.linalg.norm(p.position) - 1.0) < 1e-12
    with pytest.raises(OffSampleGrid):
        gs.point(u0 + 1e-3, v0)


@pytest.mark.parametrize("surface, nu, nv", [(clifford_torus(), 32, 32),
                                             (PerturbedSphere(1.0, 0.05, 3, 2), 24, 40)])
def test_point_on_natural_grid_rows_gives_the_gather_bits(tmp_path, surface, nu, nv):
    # _node_data asks for whole u-rows; they must carry the bits of a node-by-node gather.
    _, gs = _round_trip(tmp_path, surface, nu, nv)
    grid = gs.natural_grid()
    for rows in (slice(0, 5), slice(8, nu)):
        u, v = grid.nodes_u[rows], grid.nodes_v
        tensor = gs.point(u[:, None], v[None, :])
        gather = gs.point(*np.meshgrid(u, v, indexing="ij"))
        for a, b in zip(vars(tensor).values(), vars(gather).values()):
            np.testing.assert_array_equal(np.asarray(a).view(np.int64), np.asarray(b).view(np.int64))
        with pytest.raises(OffSampleGrid):
            gs.point(u[:, None] + 1e-3, v[None, :])
        with pytest.raises(OffSampleGrid):
            gs.point(u[:, None], v[None, :] + 1e-3)


def _reference_export(surface, nu, nv, path):
    """The per-value writer export_grid replaced: one repr(float) per value."""
    def nodes(domain, n, periodic):
        lo, hi = domain
        return lo + (hi - lo) * (np.arange(n) + (0.0 if periodic else 0.5)) / n

    xu = nodes(surface.domain_u, nu, surface.periodic_u)
    xv = nodes(surface.domain_v, nv, surface.periodic_v)
    pos = np.stack(np.broadcast_arrays(
        *surface.point(*np.meshgrid(xu, xv, indexing="ij")).position), axis=-1)

    def fmt(x):
        return repr(float(x))

    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"# periodic_u={str(surface.periodic_u).lower()} "
            f"periodic_v={str(surface.periodic_v).lower()} "
            f"domain_u=[{fmt(surface.domain_u[0])},{fmt(surface.domain_u[1])}] "
            f"domain_v=[{fmt(surface.domain_v[0])},{fmt(surface.domain_v[1])}]\n"
        )
        fh.write("u,v,x1,x2,x3,x4\n")
        for i in range(nu):
            for j in range(nv):
                row = [xu[i], xv[j], *pos[i, j]]
                fh.write(",".join(fmt(x) for x in row) + "\n")
    return xu, xv


class _SignedZeros(Surface):
    """A great circle in v, the same for every u, with x3 = +-0.0 and x4 = -x3
    alternating along v: 0.0 and -0.0 side by side, repeated in every row tile."""

    name = "signed-zeros"

    def point(self, u, v):
        zero = np.where(np.arange(v.shape[-1]) % 2, -0.0, 0.0) * np.ones_like(u)
        return SurfacePoint((np.cos(v), np.sin(v), zero, -zero), *[(0.0,) * 4] * 5)


# Rows per export tile are 2**11 // nv: 24x40 and 70x100 are one and 3.5 tiles, 16x2100
# has rows longer than a tile, and 300x16 repeats the signed zeros in 3 tiles.
@pytest.mark.parametrize("surface, nu, nv", [(clifford_torus(), 32, 32),
                                             (GeodesicSphere(1.1), 24, 40),
                                             (PerturbedSphere(1.0, 0.05, 6, 4), 40, 24),
                                             (FlatTorus(0.5), 70, 100),
                                             (FlatTorus(0.6), 16, 2100),
                                             (_SignedZeros(), 300, 16)])
def test_export_bytes_match_reference_and_import_is_exact(tmp_path, surface, nu, nv):
    path = tmp_path / "grid.csv"
    export_grid(surface, nu, nv, path)
    xu, xv = _reference_export(surface, nu, nv, tmp_path / "reference.csv")
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    gs = import_surface(path)
    exact = np.array(np.broadcast_arrays(
        *surface.point(*np.meshgrid(xu, xv, indexing="ij")).position))
    assert np.array_equal(gs.nodes_u, xu) and np.array_equal(gs.nodes_v, xv)
    assert np.array_equal(gs.positions, exact)
    assert np.array_equal(np.signbit(gs.positions), np.signbit(exact))


def test_blank_lines_and_spaces_around_commas_import(tmp_path):
    path, gs = _round_trip(tmp_path, GeodesicSphere(0.8), 16, 12)
    lines = path.read_text().splitlines()
    padded = [lines[0], "", lines[1].replace(",", " , ")]
    for k, ln in enumerate(lines[2:]):
        padded.append(ln.replace(",", " ,  ") if k % 2 else ln)
        if k % 5 == 0:
            padded.append("  \t" if k % 10 else "")
    path.write_text("\n".join(padded) + "\n")
    assert np.array_equal(import_surface(path).positions, gs.positions)
    # Non-finite rows are numbered among the non-blank data rows.
    padded[-1] = "nan," + padded[-1].split(",", 1)[1]
    path.write_text("\n".join(padded) + "\n")
    with pytest.raises(FormatError, match=f"data row {len(lines) - 2}:"):
        import_surface(path)


@pytest.mark.parametrize("n", [7, 8, 16, 17, 32])
@pytest.mark.parametrize("order", [1, 2])
def test_periodic_derivative_is_exact_on_trig_polynomials(n, order):
    # Every mode of degree < n/2, plus cos(n x / 2) when n is even (its odd derivatives
    # vanish at the nodes), is differentiated to rounding error on either axis.
    rng = np.random.default_rng(n * 10 + order)
    h = 2.0 * math.pi / n
    x = h * np.arange(n)
    k = np.arange(n // 2 + 1)[:, None]
    for axis, shape in ((0, (n, 3)), (1, (3, n))):
        a, b = rng.uniform(-1.0, 1.0, (2, len(k), 1))
        b[k == n / 2] = 0.0  # sin(n x / 2) is 0 at every node
        f = (a * np.cos(k * x) + b * np.sin(k * x)).sum(axis=0)
        phase = k * x + order * math.pi / 2  # d/dx shifts cos and sin by a quarter turn
        exact = (k ** order * (a * np.cos(phase) + b * np.sin(phase))).sum(axis=0)
        along = [-1 if d == axis else 1 for d in range(2)]
        values = np.broadcast_to(f.reshape(along), shape).copy()
        got = np.empty((2, *shape))
        _partials(values, axis, h, True, got)
        got = got[order - 1]
        err = np.abs(got - exact.reshape(along))
        assert np.max(err) <= 1e-12 * np.max(np.abs(exact))


def test_sphere_chart_import_has_no_coarse_probe(tmp_path):
    # An import's natural grid nests no half rule (a sphere chart's cell-centre
    # samples are not the polar rule's nodes), so no convergence is reported.
    _, gs = _round_trip(tmp_path, GeodesicSphere(1.0), 32, 32)
    assert genus_report(gs, gs.natural_grid()).convergence is None


def test_periodic_import_reports_no_convergence(tmp_path, capsys):
    # Half-resolution nodes of an imported torus are every other sample, so a
    # probe would re-read the same samples; the spectral partials leave
    # integral_f on its closed form to rounding.
    s = FlatTorus(0.55)
    path, gs = _round_trip(tmp_path, s, 64, 64)
    rep = genus_report(gs, gs.natural_grid())
    exact = f_pinch((s.a / s.b + s.b / s.a) / math.sqrt(2.0)) * s.exact_area
    assert abs(rep.integral_f - exact) <= 1e-14 * exact
    assert rep.convergence is None
    assert genus_report(s, make_grid(s, 64, 64)).convergence < 1e-12
    assert main(["--samples", "1000", "import", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["genus_report"]["convergence"] is None


@pytest.mark.parametrize("surface", [FlatTorus(0.55), clifford_torus()], ids=["a=0.55", "clifford"])
@pytest.mark.parametrize("n", [17, 32, 64])
def test_library_and_cli_agree_on_imported_grid(tmp_path, capsys, surface, n):
    # sum_bound is a Heintze-Karcher equality on flat tori: an imported torus, odd n
    # included, holds it at CHAIN_TOL, the tolerance of every catalog certificate.
    path, gs = _round_trip(tmp_path, surface, n, n)
    cert = verify_sum_inequality(gs, gs.natural_grid(), tol=CHAIN_TOL)
    assert cert.checks["sum_bound"] and cert.passed
    assert main(["--samples", "0", "--tol", repr(CHAIN_TOL), "import", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == cert.checks


@pytest.mark.parametrize("n", [64, 256])
def test_imported_flat_torus_sum_bound_catches_a_small_error(tmp_path, monkeypatch, n):
    # A Heintze-Karcher bound 1e-5 too small must fail the flat torus's equality.
    path, gs = _round_trip(tmp_path, FlatTorus(0.55), n, n)
    assert verify_sum_inequality(gs, gs.natural_grid()).checks["sum_bound"]
    hk = quadrature._hk  # the Heintze-Karcher expression node_sums reduces
    monkeypatch.setattr(quadrature, "_hk", lambda *args: (1.0 - 1e-5) * hk(*args))
    assert not verify_sum_inequality(gs, gs.natural_grid()).checks["sum_bound"]


@pytest.mark.parametrize("n", [16, 64])
def test_clifford_import_is_an_equality(tmp_path, capsys, n):
    # 4 pi^2 g = integral of f(|Aring|) on the Clifford torus, to rounding, at any n.
    path, gs = _round_trip(tmp_path, clifford_torus(), n, n)
    assert abs(genus_report(gs, gs.natural_grid()).slack) <= 1e-12
    assert main(["--samples", "0", "--tol", "1e-12", "import", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["theorem2"]


@pytest.mark.parametrize("nu, nv", [(16, 16), (17, 16), (64, 64), (256, 256)])
@pytest.mark.parametrize("r", [0.5, 1.0, 2.6])
def test_sphere_chart_import_is_an_equality(tmp_path, r, nu, nv):
    # Continued across its poles, the polar direction is differentiated spectrally and
    # weighted by Fejer's first rule, so the area and the Heintze-Karcher equality
    # 2 (bound1 + bound2) = 4 pi^2 hold to rounding, an odd u count included.
    path, gs = _round_trip(tmp_path, GeodesicSphere(r), nu, nv)
    sums = node_sums(gs, gs.natural_grid())
    assert abs(sums.area / (4.0 * math.pi * math.sin(r) ** 2) - 1.0) <= 1e-14
    assert abs(2.0 * sum(sums.hk_upper) - 4.0 * math.pi ** 2) <= 1e-12
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["--samples", "0", "--tol", "1e-12", "import", str(path)]) == 0


def test_imported_sphere_sum_bound_catches_a_tiny_error(tmp_path, monkeypatch):
    # A Heintze-Karcher bound 1e-10 too small must fail the sphere's equality at
    # --tol 1e-12 (an O(h^2) polar rule's upward error hid one 1e-5 too small).
    _, gs = _round_trip(tmp_path, GeodesicSphere(1.0), 64, 64)
    assert verify_sum_inequality(gs, gs.natural_grid(), tol=1e-12).checks["sum_bound"]
    hk = quadrature._hk  # the Heintze-Karcher expression node_sums reduces
    monkeypatch.setattr(quadrature, "_hk", lambda *args: (1.0 - 1e-10) * hk(*args))
    assert not verify_sum_inequality(gs, gs.natural_grid(), tol=1e-12).checks["sum_bound"]


def _fields(p):
    return [np.array(np.broadcast_arrays(*x)) for x in vars(p).values()]


@pytest.mark.parametrize("surface, nu, nv, tol", [(GeodesicSphere(1.0), 16, 16, 1e-13),
                                                  (GeodesicSphere(2.6), 17, 16, 1e-13),
                                                  (PerturbedSphere(1.2, 0.1, 6, 3), 64, 64, 1e-11)])
def test_polar_partials_match_the_chart(tmp_path, surface, nu, nv, tol):
    _, gs = _round_trip(tmp_path, surface, nu, nv)
    u, v = np.meshgrid(gs.nodes_u, gs.nodes_v, indexing="ij")
    for got, exact in zip(_fields(gs.point(u, v)), _fields(surface.point(u, v))):
        assert np.max(np.abs(got - exact)) <= tol


def test_polar_direction_may_be_u(tmp_path):
    # The sphere chart with u and v swapped has the swapped partials and the same sums.
    _, gs = _round_trip(tmp_path, GeodesicSphere(1.0), 17, 16)
    swapped = GridSurface(gs.nodes_v, gs.nodes_u, gs.positions.transpose(0, 2, 1),
                          gs.domain_v, gs.domain_u, False, True)
    u, v = np.meshgrid(gs.nodes_u, gs.nodes_v, indexing="ij")
    x, xu, xv, xuu, xuv, xvv = _fields(gs.point(u, v))
    y, yu, yv, yuu, yuv, yvv = (f.transpose(0, 2, 1) for f in _fields(swapped.point(v.T, u.T)))
    for a, b in ((x, y), (xu, yv), (xv, yu), (xuu, yvv), (xuv, yuv), (xvv, yuu)):
        assert np.max(np.abs(a - b)) <= 1e-13
    assert node_sums(swapped, swapped.natural_grid()).area == pytest.approx(
        node_sums(gs, gs.natural_grid()).area, rel=1e-14)


def test_perturbed_sphere_import_matches_the_catalog(tmp_path, capsys):
    # psphere l=6,m=3 imports at 16^2 (the stencil's chi was 1.96: exit 4), and at 64^2
    # its integral of f(|Aring|) is within 2e-6 of the catalog's at 512^2.
    surface = PerturbedSphere(1.2, 0.1, 6, 3)
    path, _ = _round_trip(tmp_path, surface, 16, 16)
    assert main(["--samples", "0", "import", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["genus_report"]["genus"] == 0
    _, gs = _round_trip(tmp_path, surface, 64, 64)
    ref = node_sums(surface, make_grid(surface, 512, 512)).integral_f
    assert abs(node_sums(gs, gs.natural_grid()).integral_f / ref - 1.0) <= 2e-6


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


def test_grid_surface_built_off_the_sphere_is_rejected():
    # A GridSurface built in code, not read from a file, is held to S^3 too: a sphere chart
    # scaled by 1.001 would otherwise pass every link of the sum inequality.
    sphere = GeodesicSphere(0.9)
    nodes = [quadrature._line_rule(*domain, 32, periodic, centres=True)[0] for domain, periodic
             in ((sphere.domain_u, sphere.periodic_u), (sphere.domain_v, sphere.periodic_v))]
    position = sphere.point(nodes[0][:, None], nodes[1][None, :]).position
    with pytest.raises(OffSphere, match=r"grid index \(\d+, \d+\) has norm 1\.00"):
        GridSurface(*nodes, tuple(1.001 * x for x in position), sphere.domain_u,
                    sphere.domain_v, sphere.periodic_u, sphere.periodic_v)
    # A NaN position has a NaN norm, which no tolerance test may read as on the sphere.
    torus = clifford_torus()
    nodes = [quadrature._line_rule(*torus.domain_u, 32, True)[0]] * 2
    position = np.array(np.broadcast_arrays(
        *torus.point(nodes[0][:, None], nodes[1][None, :]).position))
    position[2, 5, 7] = np.nan
    with pytest.raises(OffSphere, match=r"grid index \(5, 7\) has norm nan"):
        GridSurface(*nodes, position, torus.domain_u, torus.domain_v, True, True)


def _torus_nodes(n):
    torus = clifford_torus()
    return torus, [quadrature._line_rule(*torus.domain_u, n, True)[0]] * 2


@pytest.mark.parametrize("positions", [
    lambda nodes: clifford_torus().point(nodes[0][::2, None], nodes[1][None, ::2]).position,
    lambda nodes: np.broadcast_to([[[1.0]], [[0.0]], [[0.0]]], (3, 32, 32)),
    lambda nodes: [np.full((32, 32), 0.5)],
], ids=["16x16-positions-on-32x32-nodes", "3-components", "1-component"])
def test_grid_surface_refuses_positions_that_do_not_fit_its_nodes(positions):
    # Refused when built, not by a numpy broadcast deep in node_sums. The unit vectors
    # (1, 0, 0) pass the norm check, and so would one component 0.5 spread over all four.
    torus, nodes = _torus_nodes(32)
    with pytest.raises(ValueError):
        GridSurface(*nodes, positions(nodes), torus.domain_u, torus.domain_v, True, True)


def _delete_last_row(lines):
    del lines[-1]


def _swap_first_u_run_rows(lines):
    lines[2], lines[3] = lines[3], lines[2]


@pytest.mark.parametrize("edit, message", [
    (_delete_last_row, "expected 32x32 rows, got 1023"),
    (_swap_first_u_run_rows, "rows are not row-major over a uniform grid"),
    (None, "grid nodes are not uniformly spaced"),
], ids=["last-row-deleted", "first-u-run-rows-swapped", "code-built-nodes-nonuniform"])
def test_format_error_names_its_fault(tmp_path, capsys, edit, message):
    torus, nodes = _torus_nodes(32)
    if edit is None:  # built in code: one u node moved by 1e-6
        nodes[0] = nodes[0] + 1e-6 * (np.arange(32) == 5)
        position = torus.point(nodes[0][:, None], nodes[1][None, :]).position
        with pytest.raises(FormatError, match=message):
            GridSurface(*nodes, position, torus.domain_u, torus.domain_v, True, True)
        return
    path, _ = _round_trip(tmp_path, torus, 32, 32)
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=message):
        import_surface(path)
    assert main(["--samples", "0", "import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err


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


@pytest.mark.parametrize("keep, message", [(0, "missing metadata comment line"),
                                           (1, "missing metadata comment line"),
                                           (2, "no data rows follow the header")],
                         ids=["empty", "header-only", "no-rows"])
def test_file_without_data_rows_rejected(tmp_path, capsys, keep, message):
    path, _ = _round_trip(tmp_path, clifford_torus(), 16, 16)
    lines = path.read_text().splitlines()
    path.write_text("".join(ln + "\n" for ln in lines[2 - keep:2]))
    with pytest.raises(FormatError, match=f"^{message}$"):
        import_surface(path)
    assert main(["import", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("domain", ["[0.0]", "[0.0,1.0,2.0]", "[1.0,0.0]", "[0.0,inf]", "[nan,1.0]"])
def test_bad_domain_metadata_rejected(tmp_path, domain):
    path, _ = _round_trip(tmp_path, clifford_torus(), 16, 16)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].rsplit("=", 1)[0] + "=" + domain
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match="bad metadata line"):
        import_surface(path)


@pytest.mark.parametrize("flag", ["True", "yes", "1"])
def test_periodic_flag_other_than_true_or_false_rejected(tmp_path, flag):
    path, _ = _round_trip(tmp_path, FlatTorus(0.6), 32, 32)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("periodic_u=true", f"periodic_u={flag}")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=f"bad metadata line: '{flag}'"):
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
    with pytest.raises(ResolutionTooCoarse):
        export_grid(clifford_torus(), 8, 32, path)
    assert not path.exists()
    _reference_export(clifford_torus(), 8, 32, path)
    with pytest.raises(ResolutionTooCoarse):
        import_surface(path)


@pytest.mark.parametrize("surface, nu, nv", [(clifford_torus(), 0, 0), (clifford_torus(), 4, 4),
                                             (clifford_torus(), 16, 15),
                                             (GeodesicSphere(1.0), 16, 6)])
def test_export_refuses_what_import_rejects(tmp_path, surface, nu, nv):
    # The import floor (16 per periodic, 8 per polar direction) is checked before the
    # file is opened.
    path = tmp_path / "coarse.csv"
    with pytest.raises(ResolutionTooCoarse, match=f"got {nu}x{nv}"):
        export_grid(surface, nu, nv, path)
    assert not path.exists()


def test_single_row_grid_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3]) + "\n")
    with pytest.raises(ResolutionTooCoarse, match="16 nodes per periodic"):
        import_surface(path)


def test_too_coarse_non_periodic_grid_rejected(tmp_path):
    # A polar direction's continued line is a periodic line of twice its nodes, so its
    # floor is half the periodic one: 8.
    path = tmp_path / "coarse.csv"
    with pytest.raises(ResolutionTooCoarse, match="got 32x7"):
        export_grid(GeodesicSphere(1.0), 32, 7, path)
    _reference_export(GeodesicSphere(1.0), 32, 7, path)
    with pytest.raises(ResolutionTooCoarse, match="8 per polar"):
        import_surface(path)
    export_grid(GeodesicSphere(1.0), 32, 8, path)
    assert import_surface(path).positions.shape == (4, 32, 8)


def test_nonuniform_spacing_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    cols = lines[5].split(",")
    cols[1] = repr(float(cols[1]) + 1e-4)
    lines[5] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


SHIFT = 0.3 * 2 * math.pi / 32  # 0.3 of a 32-cell torus's node spacing


@pytest.mark.parametrize("surface, old, new, dropped_rows", [
    (FlatTorus(0.6), "domain_u=[0.0,6.283185307179586]", "domain_u=[0.0,12.566370614359172]", 0),
    (FlatTorus(0.6), "", "", 32),
    (GeodesicSphere(1.0), "domain_v=[0.0,3.141592653589793]", "domain_v=[0.0,3.0]", 0),
    (FlatTorus(0.6), "domain_u=[0.0,6.283185307179586]",
     f"domain_u=[{-SHIFT!r},{2 * math.pi - SHIFT!r}]", 0),
], ids=["torus-domain-u-doubled", "torus-last-u-row-deleted", "sphere-wrong-domain-v",
        "torus-u-nodes-shifted"])
def test_nodes_that_do_not_tile_their_domain_rejected(tmp_path, capsys, surface, old, new,
                                                      dropped_rows):
    # natural_grid weighs nodes by domain/n, the partials by the node spacing: the
    # doubled torus domain would certify twice the area, the missing row a chi of 0.074.
    # Periodic nodes start at lo: u-nodes 0.3 of a cell past it tile no 32-cell rule.
    path, _ = _round_trip(tmp_path, surface, 32, 32)
    lines = path.read_text().splitlines()
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new)
    path.write_text("\n".join(lines[:len(lines) - dropped_rows]) + "\n")
    with pytest.raises(FormatError, match="do not tile"):
        import_surface(path)
    assert main(["--samples", "1000", "import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "do not tile" in err


def test_grid_surface_refuses_nodes_that_do_not_tile_its_domain():
    # 32 nodes spaced 0.1 cover 3.2 of a 2 pi domain: refused when built, before any
    # partial or weight is read off them.
    torus, nodes = FlatTorus(0.6), 0.1 * np.arange(32)
    position = torus.point(nodes[:, None], nodes[None, :]).position
    with pytest.raises(FormatError, match="do not tile"):
        GridSurface(nodes, nodes, position, torus.domain_u, torus.domain_v, True, True)


def _relabel(path, old, new):
    lines = path.read_text().splitlines()
    for a, b in zip(old, new):
        assert a in lines[0]
        lines[0] = lines[0].replace(a, b)
    path.write_text("\n".join(lines) + "\n")


def test_non_periodic_endpoint_nodes_tile_their_domain(tmp_path, capsys):
    # A torus's v-nodes read as a non-periodic direction that holds both endpoints tile
    # [0, last node], but as an open patch: a non-periodic direction is polar, sampled
    # at its cell centres.
    path, gs = _round_trip(tmp_path, FlatTorus(0.6), 32, 32)
    _relabel(path, ["periodic_v=true", "domain_v=[0.0,6.283185307179586]"],
             ["periodic_v=false", f"domain_v=[0.0,{float(gs.nodes_v[-1])!r}]"])
    with pytest.raises(FormatError, match="at its cell centres, as a polar direction must"):
        import_surface(path)
    assert main(["--samples", "0", "import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "polar" in err


class _Square(Surface):
    """A chart with no periodic direction, so neither can be polar."""

    periodic_u = periodic_v = False

    def point(self, u, v):
        return clifford_torus().point(u, v)


def test_grid_without_a_periodic_direction_rejected(tmp_path, capsys):
    path = tmp_path / "square.csv"
    with pytest.raises(FormatError, match="no periodic direction"):
        export_grid(_Square(), 32, 32, path)
    assert not path.exists()
    path, _ = _round_trip(tmp_path, GeodesicSphere(1.0), 32, 32)
    _relabel(path, ["periodic_u=true"], ["periodic_u=false"])
    with pytest.raises(FormatError, match="no periodic direction"):
        import_surface(path)
    assert main(["--samples", "0", "import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "polar" in err


# ---------------------------------------------------------------------------
# Fuzzed grid files
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    bases = []
    for k, (surface, nu, nv) in enumerate([(clifford_torus(), 16, 16),
                                           (GeodesicSphere(1.0), 16, 24)]):
        export_grid(surface, nu, nv, root / f"base{k}.csv")
        bases.append((root / f"base{k}.csv").read_text().splitlines())
    return root / "fuzz.csv", bases


_JUNK = st.sampled_from(["", " ", "junk", "nan", "-inf", "1e999", "0x10", "1_0", "#", "1;2", "1,2"])


@st.composite
def _mutations(draw):
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "drop_col", "add_col", "delete", "truncate",
                                     "blank", "spaces"]))
        edits.append((kind, draw(st.integers(0, 10 ** 6)), draw(_JUNK)))
    bad_utf8 = draw(st.none() | st.tuples(st.integers(0, 10 ** 6),
                                          st.sampled_from([b"\xff", b"\xc3\x28", b"\x80"])))
    return draw(st.integers(0, 1)), edits, bad_utf8


def _mutate(lines, edits, bad_utf8):
    lines = list(lines)
    for kind, at, junk in edits:
        i = at % len(lines)
        cols = lines[i].split(",")
        if kind == "token":
            cols[at % len(cols)] = junk
        elif kind == "drop_col":
            cols.pop()
        elif kind == "add_col":
            cols.append("0.5")
        elif kind == "spaces":
            cols = [f" {c}\t" for c in cols]
        lines[i] = ",".join(cols)
        if kind == "delete":
            del lines[i]
        elif kind == "truncate":
            lines = lines[:i + 1]
            lines[i] = lines[i][:at % (len(lines[i]) + 1)]
        elif kind == "blank":
            lines.insert(i, junk if junk.isspace() else "")
        if not lines:
            break
    data = ("\n".join(lines) + "\n").encode()
    if bad_utf8 is not None:
        at = bad_utf8[0] % (len(data) + 1)
        data = data[:at] + bad_utf8[1] + data[at:]
    return data


@settings(max_examples=100, deadline=None)
@given(case=_mutations())
def test_fuzzed_grid_file_fails_cleanly(fuzz_files, case):
    path, bases = fuzz_files
    base, edits, bad_utf8 = case
    path.write_bytes(_mutate(bases[base], edits, bad_utf8))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second stderr line
        try:
            import_surface(path)
        except S3PinchError:
            pass
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--samples", "1000", "import", str(path)])
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()


def test_grid_surface_is_a_surface(tmp_path):
    _, gs = _round_trip(tmp_path, GeodesicSphere(0.9), 32, 32)
    assert isinstance(gs, GridSurface)
    assert gs.exact_area is None
