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
from s3pinch.gridio import GridSurface, _derivative, export_grid, import_surface
from s3pinch.pinch import f_pinch
from s3pinch.quadrature import genus_report, make_grid
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


def _reference_derivative(values, axis, h, order):
    """The per-row Vandermonde solve the vectorised non-periodic stencil replaced."""
    vals = np.moveaxis(values, axis, 0)
    n = len(vals)
    res = np.empty_like(vals)
    rhs = np.zeros(7)
    rhs[order] = math.factorial(order)
    for i in range(n):
        start = min(max(i - 3, 0), n - 7)
        offs = np.arange(start, start + 7) - i
        w = np.linalg.solve(np.vander(offs, 7, increasing=True).T, rhs)
        res[i] = np.tensordot(w, vals[i + offs], axes=(0, 0))
    return np.moveaxis(res, 0, axis) / h ** order


@pytest.mark.parametrize("n", [7, 8, 32])
@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("periodic", [False])  # a periodic axis: the exactness test below
def test_derivative_matches_per_row_reference(n, order, periodic):
    rng = np.random.default_rng(n * 10 + order)
    for axis, shape in ((0, (n, 5, 4)), (1, (3, n, 4))):
        values = rng.uniform(-1.0, 1.0, shape)
        got = _derivative(values, axis, 1.0, order, periodic)
        ref = _reference_derivative(values, axis, 1.0, order)
        assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("n", [7, 8, 16, 17, 32])
@pytest.mark.parametrize("order", [1, 2])
def test_periodic_derivative_is_exact_on_trig_polynomials(n, order):
    # Every mode of degree < n/2, plus cos(n x / 2) when n is even (its odd derivatives
    # vanish at the nodes), is differentiated to rounding error on either axis.
    rng = np.random.default_rng(n * 10 + order)
    h = 2.0 * math.pi / n
    x = h * np.arange(n)
    k = np.arange(n // 2 + 1)[:, None]
    for axis, shape in ((0, (n, 3, 4)), (1, (3, n, 4))):
        a, b = rng.uniform(-1.0, 1.0, (2, len(k), 1))
        b[k == n / 2] = 0.0  # sin(n x / 2) is 0 at every node
        f = (a * np.cos(k * x) + b * np.sin(k * x)).sum(axis=0)
        phase = k * x + order * math.pi / 2  # d/dx shifts cos and sin by a quarter turn
        exact = (k ** order * (a * np.cos(phase) + b * np.sin(phase))).sum(axis=0)
        along = [-1 if d == axis else 1 for d in range(3)]
        values = np.broadcast_to(f.reshape(along), shape).copy()
        got = _derivative(values, axis, h, order, True)
        err = np.abs(got - exact.reshape(along))
        assert np.max(err) <= 1e-12 * np.max(np.abs(exact))


def test_sphere_chart_import_has_no_coarse_probe(tmp_path):
    # Gauss-Legendre coarse nodes miss the cell-centre samples of a sphere
    # chart, so the convergence probe is skipped rather than failed.
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
    hk = quadrature.hk_time_integral
    monkeypatch.setattr(quadrature, "hk_time_integral", lambda k1, k2: (1.0 - 1e-5) * hk(k1, k2))
    assert not verify_sum_inequality(gs, gs.natural_grid()).checks["sum_bound"]


@pytest.mark.parametrize("n", [16, 64])
def test_clifford_import_is_an_equality(tmp_path, capsys, n):
    # 4 pi^2 g = integral of f(|Aring|) on the Clifford torus, to rounding, at any n.
    path, gs = _round_trip(tmp_path, clifford_torus(), n, n)
    assert abs(genus_report(gs, gs.natural_grid()).slack) <= 1e-12
    assert main(["--samples", "0", "--tol", "1e-12", "import", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["theorem2"]


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
    # The import floor (16 per periodic, 7 per non-periodic direction) is checked
    # before the file is opened.
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
    path = tmp_path / "coarse.csv"
    _reference_export(GeodesicSphere(1.0), 32, 6, path)
    with pytest.raises(ResolutionTooCoarse, match="7 per non-periodic"):
        import_surface(path)
    export_grid(GeodesicSphere(1.0), 32, 7, path)
    assert import_surface(path).positions.shape == (4, 32, 7)


def test_nonuniform_spacing_rejected(tmp_path):
    path, _ = _round_trip(tmp_path, clifford_torus(), 32, 32)
    lines = path.read_text().splitlines()
    cols = lines[5].split(",")
    cols[1] = repr(float(cols[1]) + 1e-4)
    lines[5] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        import_surface(path)


@pytest.mark.parametrize("surface, old, new, dropped_rows", [
    (FlatTorus(0.6), "domain_u=[0.0,6.283185307179586]", "domain_u=[0.0,12.566370614359172]", 0),
    (FlatTorus(0.6), "", "", 32),
    (GeodesicSphere(1.0), "domain_v=[0.0,3.141592653589793]", "domain_v=[0.0,3.0]", 0),
], ids=["torus-domain-u-doubled", "torus-last-u-row-deleted", "sphere-wrong-domain-v"])
def test_nodes_that_do_not_tile_their_domain_rejected(tmp_path, surface, old, new, dropped_rows):
    # natural_grid weighs nodes by domain/n, the partials by the node spacing: the
    # doubled torus domain would certify twice the area, the missing row a chi of 0.074.
    path, _ = _round_trip(tmp_path, surface, 32, 32)
    lines = path.read_text().splitlines()
    assert old in lines[0]
    lines[0] = lines[0].replace(old, new)
    path.write_text("\n".join(lines[:len(lines) - dropped_rows]) + "\n")
    with pytest.raises(FormatError, match="do not tile"):
        import_surface(path)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(["--samples", "1000", "import", str(path)]) == 2


def test_non_periodic_endpoint_nodes_tile_their_domain(tmp_path):
    # A torus's v-nodes read as a non-periodic direction that holds both endpoints.
    path, gs = _round_trip(tmp_path, FlatTorus(0.6), 32, 32)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("periodic_v=true", "periodic_v=false").replace(
        "domain_v=[0.0,6.283185307179586]", f"domain_v=[0.0,{float(gs.nodes_v[-1])!r}]")
    path.write_text("\n".join(lines) + "\n")
    assert not import_surface(path).periodic_v


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


# ---------------------------------------------------------------------------
# Finite-difference accuracy of the reconstruction
# ---------------------------------------------------------------------------

def test_fd_derivative_order():
    # The stencil of a non-periodic axis is 6th order: halving h shrinks its interior
    # error on a smooth non-polynomial function at least 32x (a 4th-order one gives 16x).
    for order in (1, 2):
        errors = []
        for n in (33, 65):
            x = np.linspace(0.0, 2.0, n)
            f = np.exp(np.sin(3.0 * x))
            exact = (3.0 * np.cos(3.0 * x) * f if order == 1
                     else 9.0 * (np.cos(3.0 * x) ** 2 - np.sin(3.0 * x)) * f)
            got = _derivative(np.stack([f, -f]), 1, x[1] - x[0], order, False)
            errors.append(np.max(np.abs(got - [exact, -exact])[:, 3:-3]))
        assert errors[1] < errors[0] / 32.0


def test_grid_surface_is_a_surface(tmp_path):
    _, gs = _round_trip(tmp_path, GeodesicSphere(0.9), 32, 32)
    assert isinstance(gs, GridSurface)
    assert gs.exact_area is None
