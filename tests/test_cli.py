"""End-to-end tests of the command-line interface."""

import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from s3pinch import catalog, quadrature
from s3pinch.cli import (
    MAX_RESOLUTION, MAX_SAMPLES, MAX_SWEEP_STEPS, build_parser, main, sweep_tori,
)
from s3pinch.gridio import export_grid
from s3pinch.catalog import FlatTorus, GeodesicSphere, clifford_torus
from s3pinch.pinch import beta_target, min_surface_maxA_bound

SQRT_HALF = 1.0 / math.sqrt(2.0)


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
    assert doc["schema"] == 1
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


@pytest.mark.parametrize("argv, flag", [
    (["--tol", "nan", "check", "sphere:r=1.0"], "--tol"),
    (["--tol", "inf", "check", "sphere:r=1.0"], "--tol"),
    (["--tol", "0", "check", "sphere:r=1.0"], "--tol"),
    (["--samples", "-5", "check", "sphere:r=1.0"], "--samples"),
    (["--samples", str(MAX_SAMPLES + 1), "check", "sphere:r=1.0"], "--samples"),
    (["--resolution", str(2 * MAX_RESOLUTION), "check", "sphere:r=1.0"], "--resolution"),
])
def test_bad_global_flag_exits_2_with_one_line(capsys, argv, flag):
    assert main(["--resolution", "16", *argv]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err


# ---------------------------------------------------------------------------
# gap
# ---------------------------------------------------------------------------

def test_gap_equator_below_threshold(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "gap",
                         f"sphere:r={math.pi / 2}")
    assert code == 0
    assert doc["integral_A3"] == pytest.approx(0.0, abs=1e-10)
    assert doc["below_threshold"] is True


def test_gap_clifford_at_threshold(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "gap",
                         f"torus:a={SQRT_HALF:.16f}")
    assert code == 0
    # integral |A|^3 = 2sqrt(2) * 2pi^2 = threshold value 3*sqrt(2)*pi^2...
    assert doc["integral_A3"] == pytest.approx(
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
    assert all(doc["holds"].values())
    assert doc["equality_discrepancy"] is None


def test_eigen_clifford_flags_discrepancy(capsys):
    code, doc = run_json(capsys, "--resolution", "32", "eigen",
                         f"torus:a={SQRT_HALF:.16f}")
    assert code == 0
    assert all(doc["holds"].values())
    assert doc["lambda1_area"] == pytest.approx(4.0 * math.pi ** 2, rel=1e-9)
    note = doc["equality_discrepancy"]
    assert note is not None and "not asserted" in note


def test_eigen_no_spectral_data_exits_2(capsys):
    assert main(["eigen", "psphere:r=1.0,eps=0.1,l=2,m=0"]) == 2
    assert main(["eigen", "torus:a=0.6"]) == 2


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


# ---------------------------------------------------------------------------
# import
# ---------------------------------------------------------------------------

def test_import_round_trip(capsys, tmp_path):
    path = tmp_path / "clifford.csv"
    export_grid(clifford_torus(), 32, 32, path)
    code, doc = run_json(capsys, "--samples", "20000", "import", str(path))
    assert code == 0
    assert doc["genus_report"]["genus"] == 1


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
    # One data row, and a sphere chart below the 7-point stencil.
    path = tmp_path / "coarse.csv"
    export_grid(GeodesicSphere(1.0), nu, nv, path)
    if rows is not None:
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:2 + rows]) + "\n")
    assert main(["import", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "per non-periodic direction" in err


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

class _CountingTorus(FlatTorus):
    def __init__(self, a):
        super().__init__(a)
        self.point_shapes = []

    def point(self, u, v):
        self.point_shapes.append(np.shape(u))
        return super().point(u, v)


def test_check_evaluates_fine_and_coarse_grid_once(capsys, monkeypatch):
    surface = _CountingTorus(0.6)
    monkeypatch.setattr(catalog, "parse_surface", lambda spec: surface)
    code, doc = run_json(capsys, "--resolution", "32", "--samples", "1000",
                         "check", "torus:a=0.6")
    assert code == 0 and doc["pass"]
    assert surface.point_shapes == [(32, 32), (16, 16)]


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
    assert doc["schema"] == 1
    assert doc["resolution"] == 16
    assert doc["seed"] == 9
    assert doc["samples"] == 10000


def test_text_format_runs(capsys):
    code, out = run(capsys, "--format", "text", "solve", "finv", "1.0")
    assert code == 0
    assert "value" in out


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert capsys.readouterr().err.count("\n") == 1


def test_parser_builds():
    parser = build_parser()
    args = parser.parse_args(["check", "sphere:r=1.0"])
    assert args.surface == "sphere:r=1.0"


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
