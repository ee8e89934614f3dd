"""End-to-end tests of the command-line interface."""

import ast
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3pinch import catalog, cli, errors, pinch, quadrature
from s3pinch.cli import MAX_RESOLUTION, MAX_SAMPLES, build_parser, main
from s3pinch.quadrature import MAX_SWEEP_STEPS, sweep_tori
from s3pinch.gridio import export_grid
from s3pinch.catalog import FlatTorus, GeodesicSphere, clifford_torus
from s3pinch.pinch import SOLVE_TOL, RootResult, beta_target, min_surface_maxA_bound

SQRT_HALF = 1.0 / math.sqrt(2.0)


def child_env(**extra):
    """os.environ with this checkout's src first on PYTHONPATH, for `python -m s3pinch.cli`."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(catalog.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_clifford_equalities(capsys):
    code, doc = run_json(
        capsys, "--resolution", "32", "--samples", "20000",
        "check", f"torus:a={SQRT_HALF:.10f}")
    assert code == 0
    assert doc["schema"] == 3
    assert doc["genus_report"]["genus"] == 1
    assert abs(doc["genus_report"]["slack"]) < 1e-6
    assert all(doc["checks"].values())


def test_check_sphere(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "--samples", "20000",
                         "check", "sphere:r=1.0")
    assert code == 0
    assert doc["genus_report"]["genus"] == 0
    assert all(doc["checks"].values())


def test_check_perturbed_sphere(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "--samples", "20000",
                         "check", "psphere:r=1.0,eps=0.1,l=2,m=0")
    assert code == 0
    assert doc["genus_report"]["genus"] == 0
    assert doc["genus_report"]["slack"] > 0.0


class _OverflowingTorus(FlatTorus):
    def point(self, u, v):  # duu scaled by 1e308: every curvature overflows to inf or nan
        p = super().point(u, v)
        return dataclasses.replace(p, duu=tuple(1e308 * x for x in p.duu))


def test_non_finite_curvature_exits_4_with_one_line(capsys, monkeypatch):
    monkeypatch.setattr(catalog, "parse_surface", lambda spec: _OverflowingTorus(0.6))
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["--resolution", "16", "--samples", "1000", "check", "torus:a=0.6"])
    err = capsys.readouterr().err
    assert code == 4
    assert err == "numerical failure: non-finite curvature at grid row 0: rescale the surface\n"


def test_wrong_exact_volume_fails_hk_link_and_reports_everything(capsys, monkeypatch):
    surface = FlatTorus(0.6)
    v1, v2 = surface.exact_side_volumes
    surface.exact_side_volumes = (1.01 * v1, v2)
    monkeypatch.setattr(catalog, "parse_surface", lambda spec: surface)
    code, doc = run_json(capsys, "--resolution", "32", "--samples", "1000",
                         "check", "torus:a=0.6")
    assert code == 3 and doc["pass"] is False
    assert doc["checks"]["hk_side1"] is False
    assert doc["checks"]["hk_side2"] is True and doc["checks"]["sum_bound"] is True
    assert [t["side"] for t in doc["tube_reports"]] == [1, 2]
    assert doc["tube_reports"][0]["exact_volume"] == 1.01 * v1
    assert doc["genus_report"]["genus"] == 1


def test_check_bad_surface_spec_exits_2(capsys):
    assert main(["check", "torus:a=2.0"]) == 2
    assert main(["check", "blob:q=1"]) == 2


@pytest.mark.parametrize("spec, code", [
    ("psphere:r=1,eps=0.1,l=171,m=0", 2),  # these three exceed the degree cap _L_MAX = 85
    ("psphere:r=1,eps=0.1,l=86,m=86", 2),
    ("psphere:r=1,eps=0.1,l=99999999999999999999,m=0", 2),
    ("psphere:r=1,eps=0.1,l=85,m=85", 4),  # the largest degree: unresolved at 64^2
    ("torus:a=0.5,b=1", 2),                 # an unknown, an empty and a repeated key
    ("torus:a=0.5,=3", 2),
    ("torus:a=0.5,a=0.6", 2),
])
def test_bad_or_extreme_spec_exits_with_one_line(capsys, spec, code):
    assert main(["--samples", "0", "check", spec]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    if code == 2:
        assert captured.err.startswith(f"error: bad surface spec '{spec}': ")


@pytest.mark.parametrize("spec", [
    "psphere:r=0.01,eps=0.3,l=1,m=0",
    "psphere:r=0.05,eps=-0.1,l=20,m=0",  # leaves (0, pi) only near the poles
    "psphere:r=0.05,eps=0.0247,l=85,m=-43",  # beyond the bound, though max |eps Z_lm| = 0.025
])
def test_perturbed_radius_leaving_0_pi_exits_2(capsys, spec):
    assert main(["--samples", "0", "check", spec]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "leaves (0, pi)" in err


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


@pytest.mark.parametrize("exc", sorted(set(_subclasses(errors.S3PinchError)), key=str),
                         ids=lambda exc: exc.__name__)
def test_every_error_class_maps_to_its_exit_code(capsys, monkeypatch, exc):
    def fail(spec):
        raise exc("it broke")
    monkeypatch.setattr(catalog, "parse_surface", fail)
    code = main(["check", "sphere:r=1.0"])
    err = capsys.readouterr().err
    if issubclass(exc, errors.NumericalFailure):
        assert (code, err) == (4, "numerical failure: it broke\n")
    else:
        assert (code, err) == (2, "error: it broke\n")


def test_bad_resolution_exits_2(capsys):
    assert main(["--resolution", "33", "check", "sphere:r=1.0"]) == 2
    assert main(["--resolution", "4", "check", "sphere:r=1.0"]) == 2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def test_solve_finv(capsys):
    code, doc = run_json(capsys, "solve", "finv", str(math.pi / 4))
    assert code == 0
    assert doc["result"]["value"] == pytest.approx(0.9938351982148463, rel=1e-10)


def test_solve_beta(capsys):
    area = 2.0 * math.pi ** 2
    code, doc = run_json(capsys, "solve", "beta", "2", str(area))
    assert code == 0
    assert doc["target"] == beta_target(2, area)
    assert doc["result"]["value"] == pytest.approx(1.3186938761353901, rel=1e-10)


def test_solve_maxA(capsys):
    code, doc = run_json(capsys, "solve", "maxA", "2")
    assert code == 0
    assert doc["result"]["value"] > 0.0
    assert doc["target"] == pytest.approx(
        (2 * math.pi ** 2 + 2 * math.pi ** 2) / (4 * math.pi * 2))
    assert doc["result"]["value"] == min_surface_maxA_bound(2)


def test_solve_bad_args_exit_2(capsys):
    assert main(["solve", "finv", "not-a-number"]) == 2
    assert main(["solve", "finv", "-1.0"]) == 2
    assert main(["solve", "beta", "0", "1.0"]) == 2
    assert main(["solve", "maxA", "0"]) == 2
    capsys.readouterr()
    # Too few or too many arguments for the chosen solve.
    for argv in (["beta", "1"], ["finv", "1", "2"], ["maxA", "2", "5", "7"], ["beta"]):
        assert main(["solve", *argv]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


def test_solve_residual_above_solve_tol_exits_4_and_prints(capsys, monkeypatch):
    # Above SOLVE_TOL*(1 + |target|) but far inside --tol's default 1e-8.
    bad = RootResult(0.5, 2.0 * SOLVE_TOL * (1.0 + 1.0), (0.0, 1.0), 3)
    monkeypatch.setattr(pinch, "f_inverse", lambda y: bad)
    code, doc = run_json(capsys, "solve", "finv", "1.0")
    assert code == 4
    assert doc["target"] == 1.0 and doc["result"]["residual"] == bad.residual


@pytest.mark.parametrize("argv, flag", [
    (["--tol", "nan", "check", "sphere:r=1.0"], "--tol"),
    (["--tol", "inf", "check", "sphere:r=1.0"], "--tol"),
    (["--tol", "0", "check", "sphere:r=1.0"], "--tol"),
    (["--samples", "-5", "check", "sphere:r=1.0"], "--samples"),
    (["--samples", str(MAX_SAMPLES + 1), "check", "sphere:r=1.0"], "--samples"),
    (["--resolution", str(2 * MAX_RESOLUTION), "check", "sphere:r=1.0"], "--resolution"),
    (["--seed", "-1", "check", "sphere:r=1.0"], "--seed"),
    (["--seed", "-1", "--samples", "0", "check", "sphere:r=1.0"], "--seed"),
    (["--seed", "-1", "import", "no-such-grid.csv"], "--seed"),
])
def test_bad_global_flag_exits_2_with_one_line(capsys, argv, flag):
    assert main(["--resolution", "16", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


def test_negative_seed_rejected_before_any_work(capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("a certificate was started")

    monkeypatch.setattr(quadrature, "make_grid", no_work)
    monkeypatch.setattr(catalog, "parse_surface", no_work)
    assert main(["--seed", "-1", "check", "sphere:r=1.0"]) == 2
    assert capsys.readouterr().err == "error: --seed must be >= 0, got -1\n"


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def test_gap_equator_below_threshold(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "gap",
                         f"sphere:r={math.pi / 2}")
    assert code == 0
    assert doc["integral_absA3"] == pytest.approx(0.0, abs=1e-10)
    assert doc["below_threshold"] is True


def test_gap_clifford_at_threshold(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "gap",
                         f"torus:a={SQRT_HALF:.16f}")
    assert code == 0
    # integral |A|^3 = 2sqrt(2) * 2pi^2 = 4sqrt(2)pi^2, above the threshold 3sqrt(2)pi^2
    assert doc["integral_absA3"] == pytest.approx(
        2.0 ** 1.5 * 2.0 * math.pi ** 2, rel=1e-10)
    assert doc["threshold"] == pytest.approx(3.0 * math.sqrt(2.0) * math.pi ** 2)


def test_gap_non_minimal_exits_2(capsys):
    assert main(["gap", "sphere:r=1.0"]) == 2
    assert main(["gap", "torus:a=0.6"]) == 2


# ---------------------------------------------------------------------------
# eigen
# ---------------------------------------------------------------------------

def test_eigen_sphere(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "eigen", "sphere:r=1.0")
    assert code == 0
    assert all(doc["checks"].values())
    assert doc["equality_discrepancy"] is None


def test_eigen_clifford_flags_discrepancy(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "eigen",
                         f"torus:a={SQRT_HALF:.16f}")
    assert code == 0
    assert all(doc["checks"].values())
    assert doc["links"]["pinching"]["lhs"] == pytest.approx(4.0 * math.pi ** 2, rel=1e-9)
    note = doc["equality_discrepancy"]
    assert note is not None and "not asserted" in note


def test_eigen_planted_lambda1_above_bound_exits_3(capsys, monkeypatch):
    # sphere:r=1 is the equality case lambda_1 * Area = 8 pi.
    sphere = GeodesicSphere(1.0)
    sphere.exact_lambda1 *= 1.0 + 1e-6
    monkeypatch.setattr(catalog, "parse_surface", lambda spec: sphere)
    code, doc = run_json(capsys, "--resolution", "32", "eigen", "sphere:r=1.0")
    assert code == 3
    assert doc["checks"]["pinching"] is False


def test_eigen_no_spectral_data_exits_2(capsys):
    assert main(["eigen", "psphere:r=1.0,eps=0.1,l=2,m=0"]) == 2
    assert main(["--resolution", "32", "eigen", "torus:a=0.6"]) == 0  # lambda_1 = 1/max(a, b)^2


def test_eigen_on_a_non_minimal_flat_torus(capsys):
    # lambda_1 * Area = (1/b^2) * 4 pi^2 a b = 3 pi^2 at a = 0.6, b = 0.8; |H| > 0, so no note.
    code, doc = run_json(capsys, "--resolution", "32", "eigen", "torus:a=0.6")
    assert code == 0
    assert doc["links"]["pinching"]["lhs"] == pytest.approx(3.0 * math.pi ** 2, rel=1e-14)
    assert doc["equality_discrepancy"] is None


@pytest.mark.parametrize("command, spec", [
    ("gap", f"torus:a={SQRT_HALF:.16f}"), ("eigen", "sphere:r=1.0"),
])
def test_gap_and_eigen_docs_carry_the_check_convergence(command, spec, capsys):
    # The same node pass as check's genus_report, so the same figure.
    code, doc = run_json(capsys, "--resolution", "32", command, spec)
    assert code == 0
    _, checked = run_json(capsys, "--resolution", "32", "--samples", "0", "check", spec)
    assert doc["convergence"] == checked["genus_report"]["convergence"]
    assert 0.0 <= doc["convergence"] < 1e-12


# ---------------------------------------------------------------------------
# sweep-tori
# ---------------------------------------------------------------------------

def test_sweep_tori_cli(capsys):
    code, doc = run_json(capsys, "--resolution", "16",
                         "sweep-tori", "0.5", "0.9", "5")
    assert code == 0
    rows = doc["rows"]
    assert len(rows) == 5
    assert [r["a"] for r in rows] == pytest.approx([0.5, 0.6, 0.7, 0.8, 0.9])
    assert all(r["slack"] >= -1e-10 for r in rows)


def test_sweep_steps_above_cap_exit_2_without_sweeping(capsys, monkeypatch):
    def no_grid(*args):
        raise AssertionError("the sweep ran")
    monkeypatch.setattr(quadrature, "make_grid", no_grid)
    assert main(["sweep-tori", "0.5", "0.9", str(MAX_SWEEP_STEPS + 1)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(MAX_SWEEP_STEPS) in err


def test_sweep_tori_library_minimum_near_clifford():
    rows = sweep_tori(0.5, 0.9, 41, 16)
    best = min(rows, key=lambda r: r["slack"])
    assert abs(best["a"] - SQRT_HALF) <= 0.01 + 1e-12


def test_sweep_csv_format(capsys):
    code, out = run(capsys, "--format", "csv", "--resolution", "16",
                    "sweep-tori", "0.5", "0.7", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("a,")
    assert len(lines) == 4
    header, *rows = csv.reader(io.StringIO(out))
    assert len(rows) == 3 and all(len(row) == len(header) for row in rows)


@pytest.mark.parametrize("command", [
    ["check", "sphere:r=1.0"], ["solve", "finv", "1.0"], ["gap", f"sphere:r={math.pi / 2!r}"],
    ["eigen", "sphere:r=1.0"], ["import", "missing.csv"],
])
def test_csv_format_rejected_for_non_row_documents(capsys, command):
    # Only sweep-tori prints rows; the other documents are nested.
    assert main(["--format", "csv", "--resolution", "16", *command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "--format csv" in captured.err


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------

def test_import_round_trip(capsys, tmp_path):
    path = tmp_path / "clifford.csv"
    export_grid(clifford_torus(), 32, 16, path)
    code, doc = run_json(capsys, "--samples", "20000", "import", str(path))
    assert code == 0
    assert doc["genus_report"]["genus"] == 1
    # An import runs on the file's own grid, so that is the resolution it reports,
    # not the --resolution flag it ignores.
    assert doc["resolution"] == doc["genus_report"]["resolution"] == [32, 16]


def test_import_bad_file_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("not,a,grid\n")
    assert main(["import", str(path)]) == 2
    capsys.readouterr()
    # A missing file and a directory get the same one-line exit 2.
    for target in (tmp_path / "missing.csv", tmp_path):
        assert main(["import", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("nu, nv, rows", [(32, 32, 1), (32, 5, None)])
def test_import_too_coarse_exits_2(capsys, tmp_path, nu, nv, rows):
    # One data row, and a sphere chart below the polar floor: export_grid refuses
    # nv < 8, so keep the first nv nodes of each u-line of a wider grid.
    path = tmp_path / "coarse.csv"
    width = max(nv, 8)
    export_grid(GeodesicSphere(1.0), nu, width, path)
    lines = path.read_text().splitlines()
    data = [ln for k, ln in enumerate(lines[2:]) if k % width < nv][:rows]
    path.write_text("\n".join(lines[:2] + data) + "\n")
    assert main(["import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "8 per polar (non-periodic) direction" in err


def test_import_non_finite_exits_2_with_one_line(capsys, tmp_path):
    path = tmp_path / "nan.csv"
    export_grid(clifford_torus(), 32, 32, path)
    lines = path.read_text().splitlines()
    cols = lines[40].split(",")
    cols[3] = "nan"
    lines[40] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    assert main(["import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("error: non-finite value in data row 39:")


def test_import_off_sphere_exits_2(capsys, tmp_path):
    path = tmp_path / "off.csv"
    export_grid(GeodesicSphere(1.0), 32, 32, path)
    lines = path.read_text().splitlines()
    cols = lines[40].split(",")
    cols[3] = repr(float(cols[3]) + 1e-3)
    lines[40] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")
    assert main(["import", str(path)]) == 2


# ---------------------------------------------------------------------------
# output contract
# ---------------------------------------------------------------------------

def _counting(cls, *params):
    """An instance of surface class cls that records every (u, v) node its point is asked for."""
    class Counting(cls):
        def point(self, u, v):
            u, v = np.broadcast_arrays(u, v)
            self.nodes += zip(u.ravel().tolist(), v.ravel().tolist())
            return super().point(u, v)

    surface = Counting(*params)
    surface.nodes = []
    return surface


@pytest.mark.parametrize("cls, params, spec", [
    (FlatTorus, (0.6,), "torus:a=0.6"), (GeodesicSphere, (1.0,), "sphere:r=1"),
], ids=["torus", "sphere"])
def test_check_evaluates_each_grid_node_once(cls, params, spec, capsys, monkeypatch):
    # Tiles of 160 nodes (5 rows of 32), so the grid does not fit in one call; every
    # node of the one grid is still evaluated exactly once, and no other node is: the
    # convergence probe reads the nested half rule's nodes off the same pass.
    monkeypatch.setattr(quadrature, "NODE_TILE", 5 * 32)
    surface = _counting(cls, *params)
    monkeypatch.setattr(catalog, "parse_surface", lambda spec: surface)
    code, doc = run_json(capsys, "--resolution", "32", "--samples", "1000", "check", spec)
    assert code == 0 and doc["pass"]
    assert doc["genus_report"]["convergence"] is not None
    grid = quadrature.make_grid(surface, 32, 32)
    U, V = np.meshgrid(grid.nodes_u, grid.nodes_v, indexing="ij")
    assert sorted(surface.nodes) == sorted(zip(U.ravel().tolist(), V.ravel().tolist()))


def test_check_memory_does_not_grow_with_resolution():
    # A fresh 1024^2 check; the node field and the samples stream in tiles.
    # A child's ru_maxrss starts at the resident size of the process that
    # forked it, so the check is started from a small interpreter, not pytest.
    env = child_env()
    spawn = ("import resource, subprocess, sys; "
             "rc = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL); "
             "print(rc, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)")
    out = subprocess.run(
        [sys.executable, "-c", spawn, sys.executable, "-m", "s3pinch.cli", "--resolution", "1024",
         "--samples", "100000", "check", "torus:a=0.6"],
        env=env, capture_output=True, text=True, check=True).stdout
    rc, maxrss_kb = map(int, out.split())
    assert rc == 0
    assert maxrss_kb <= 80 * 1024, f"peak RSS {maxrss_kb / 1024:.0f} MB"


def test_json_output_is_deterministic(capsys):
    _, out1 = run(capsys, "--resolution", "16", "--samples", "10000",
                  "check", "torus:a=0.6")
    _, out2 = run(capsys, "--resolution", "16", "--samples", "10000",
                  "check", "torus:a=0.6")
    assert out1 == out2
    _, out3 = run(capsys, "--resolution", "16", "--samples", "10000",
                  "--seed", "1", "check", "torus:a=0.6")
    assert out3 != out1  # provenance records the seed


def test_provenance_fields(capsys):
    _, doc = run_json(capsys, "--resolution", "16", "--samples", "10000",
                      "--seed", "9", "check", "sphere:r=1.0")
    assert doc["schema"] == 3
    assert doc["resolution"] == 16
    assert doc["seed"] == 9
    assert doc["samples"] == 10000


def test_documents_hold_exactly_their_keys(capsys, tmp_path):
    # Each value is printed once: a link's inputs in `links`, the gap certificate by `gap`
    # alone. A copied field coming back fails here.
    export_grid(FlatTorus(0.6), 32, 32, tmp_path / "torus.csv")
    provenance = {"schema", "resolution", "seed", "samples", "command", "surface"}
    chain = {"theorem2", "cubic", "sum_bound", "genus_bound"}
    genus = {"area", "total_K", "euler_char", "genus", "integral_f", "integral_A3", "bound_rhs",
             "slack", "convergence", "resolution"}
    side = {"side", "hk_upper", "exact_volume", "mc_volume", "focal_min", "focal_max"}
    for argv, keys, links in (
        (["check", "torus:a=0.6"], {"genus_report", "tube_reports"},
         chain | {"hk_side1", "hk_side2"}),
        (["import", str(tmp_path / "torus.csv")], {"genus_report", "tube_reports"}, chain),
        (["eigen", f"torus:a={SQRT_HALF:.16f}"],
         {"lambda1", "equality_discrepancy", "convergence"}, {"pinching", "yang_yau", "improved"}),
        (["gap", "sphere:r=1.5707963267948966"],
         {"integral_absA3", "threshold", "below_threshold", "convergence"}, None),
    ):
        code, doc = run_json(capsys, "--resolution", "16", "--samples", "1000", *argv)
        assert code == 0 and doc["schema"] == 3, argv
        if links is None:
            assert doc.keys() == provenance | keys, argv
            continue
        assert doc.keys() == provenance | keys | {"links", "checks", "pass"}, argv
        assert doc["links"].keys() == doc["checks"].keys() == links, argv
        for link in doc["links"].values():
            assert link.keys() == {"lhs", "rhs", "margin", "tol"}, argv
        if "genus_report" in keys:
            assert doc["genus_report"].keys() == genus, argv
            assert [rep.keys() for rep in doc["tube_reports"]] == [side, side], argv


def test_text_format_runs(capsys):
    code, out = run(capsys, "--format", "text", "solve", "finv", "1.0")
    assert code == 0
    assert "value" in out


def test_text_format_sorts_top_level_keys_and_keeps_field_order_below(capsys):
    code, out = run(capsys, "--format", "text", "--resolution", "16", "--samples", "1000",
                    "check", "torus:a=0.6")
    assert code == 0
    lines = dict(line.split(": ", 1) for line in out.splitlines())
    assert list(lines) == sorted(lines)
    links = ast.literal_eval(lines["links"])
    assert list(links) == ["theorem2", "cubic", "sum_bound", "genus_bound", "hk_side1",
                           "hk_side2"]
    assert all(list(link) == ["lhs", "rhs", "tol", "margin"] for link in links.values())


@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [
    ["--resolution", "16", "--samples", "1000", "check", "sphere:r=1.0"],
    ["--format", "text", "solve", "finv", "1.0"],
], ids=["check", "text-solve"])
def test_closed_stdout_ends_in_one_line(argv, buffered):
    # The reader is gone before the report is written: one stderr line and exit 2, both
    # when print writes at once and when the write waits for `_emit`'s flush.
    env = child_env(PYTHONUNBUFFERED="" if buffered else "1")
    with subprocess.Popen([sys.executable, "-m", "s3pinch.cli", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err.startswith("error: cannot write output: ") and err.count("\n") == 1, err
    assert "Traceback" not in err and "Exception ignored" not in err


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["check", "sphere:r=1.0"])
    assert args.surface == "sphere:r=1.0"


def test_two_main_calls_build_the_parser_at_most_once(capsys, monkeypatch):
    # Building the argparse tree costs about a millisecond: main builds it once per process.
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    assert main(["solve", "finv", "1.0"]) == 0
    assert main(["--format", "text", "solve", "finv", "2.0"]) == 0
    assert built.count("s3pinch") <= 1


# ---------------------------------------------------------------------------
# argv fuzz: every input ends in a known exit code and at most one line
# ---------------------------------------------------------------------------

_SPECS = st.sampled_from([
    "torus:a=0.6", f"torus:a={SQRT_HALF!r}", "sphere:r=1.0", f"sphere:r={math.pi / 2!r}",
    "psphere:r=1.0,eps=0.1,l=2,m=0", "psphere:r=1.2,eps=-0.08,l=3,m=1",
    "torus:a=2", "torus:a=nan", "sphere:r=inf", "psphere:r=1.0,eps=0.5,l=2,m=0",
    "psphere:r=1.0,eps=0.1,l=2,m=5", "psphere:r=1,eps=0.1,l=-1,m=0", "blob:q=1",
    "torus:", "torus:a=0.6,a=0.7", "sphere:r=1e-9", "torus:a=0.6\nx", "",
]) | st.text(max_size=12)
_NUMBERS = st.one_of(
    st.sampled_from(["0.5", "0.9", "0.3", "0.999999", "1e-300", "2", "x", "", "1e400", "-0"]),
    st.integers(-3, 5).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_FLAGS = st.tuples(
    st.sampled_from(["8", "16", "32", "33", "0", "-8", "x"]),
    st.sampled_from(["0", "100", "1000", "-1", "x"]),
    st.sampled_from([[], ["--tol", "1e-8"], ["--tol", "0.5"], ["--tol", "-1"], ["--seed", "-1"],
                     ["--seed", "7"], ["--format", "csv"], ["--format", "text"],
                     ["--format", "xml"]]),
).map(lambda f: ["--resolution", f[0], "--samples", f[1], *f[2]])
_COMMANDS = st.one_of(
    st.tuples(st.sampled_from(["check", "gap", "eigen"]), _SPECS).map(list),
    st.tuples(st.just("solve"), st.sampled_from(["beta", "finv", "maxA", "zeta"]),
              st.lists(_NUMBERS, max_size=3)).map(lambda c: [c[0], c[1], *c[2]]),
    st.tuples(st.just("sweep-tori"), _NUMBERS, _NUMBERS,
              (st.integers(-2, 4) | st.just(MAX_SWEEP_STEPS + 1)).map(str)).map(list),
)


@settings(max_examples=150, deadline=None)
@given(flags=_FLAGS, command=_COMMANDS)
def test_fuzzed_argv_exits_cleanly(flags, command):
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would print a second stderr line
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*flags, *command])
    assert code in (0, 2, 3, 4)
    assert err.getvalue().count("\n") <= 1 and "Traceback" not in err.getvalue()
