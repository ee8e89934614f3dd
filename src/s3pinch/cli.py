"""Command-line front end.

Subcommands: check, sweep-tori, solve, gap, eigen, import.
Exit codes: 0 ok, 2 usage/parse error, 3 bound violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import catalog, gridio, pinch, quadrature, tube
from .errors import (
    BracketFailure, DegenerateMetric, DomainError, FormatError,
    GenusDetectionFailure, ImmersionFailure, NoSpectralData, NotMinimal,
)

SCHEMA = 1
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_NUMERIC = 4
FD_FLOOR_TOL = 1e-4
# Node fields and Monte-Carlo draws stream in tiles: both caps bound run time only.
MAX_RESOLUTION = 2048
MAX_SAMPLES = 10 ** 9
MAX_SWEEP_STEPS = 10 ** 4
# (fewest, most) positional arguments of each `solve`.
SOLVE_ARITY = {"beta": (2, 2), "finv": (1, 1), "maxA": (1, 2)}

_PARSE_ERRORS = (DomainError, FormatError, NotMinimal, NoSpectralData, ValueError)
_NUMERIC_ERRORS = (DegenerateMetric, GenusDetectionFailure, BracketFailure,
                   ImmersionFailure)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {k: _jsonable(v) for k, v in dataclasses.asdict(obj).items()}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(_jsonable(doc), sort_keys=True, indent=2))
    elif fmt == "csv":  # `main` allows csv only for row documents (sweep-tori)
        cols = list(doc["rows"][0])
        print(",".join(cols))
        for row in doc["rows"]:
            print(",".join(repr(_jsonable(row[c])) for c in cols))
    else:
        for key, val in sorted(_jsonable(doc).items()):
            print(f"{key}: {val}")


def _provenance(args) -> dict:
    return {
        "schema": SCHEMA,
        "resolution": args.resolution,
        "seed": args.seed,
        "samples": args.samples,
    }


def _validate_resolution(n: int) -> None:
    if not 8 <= n <= MAX_RESOLUTION or n & (n - 1) != 0:
        raise DomainError(f"--resolution must be a power of 2 in [8, {MAX_RESOLUTION}], got {n}")


def _check_surface(surface, grid, args) -> int:
    cert = tube.verify_sum_inequality(surface, grid, mc_samples=args.samples,
                                      seed=args.seed, tol=args.tol)
    passed = all(cert.checks.values())
    _emit({**_provenance(args), "command": "check", "surface": surface.name,
           **vars(cert), "pass": passed}, args.format)
    return EXIT_OK if passed else EXIT_BOUND


def sweep_tori(a_min: float, a_max: float, steps: int, resolution: int):
    """Theorem-2 slack across the flat-torus family; rows for cmd_sweep_tori."""
    if not (0.0 < a_min < a_max < 1.0):
        raise DomainError("need 0 < a_min < a_max < 1")
    if not 2 <= steps <= MAX_SWEEP_STEPS:
        raise DomainError(f"steps must be in [2, {MAX_SWEEP_STEPS}], got {steps}")
    rows = []
    for a in np.linspace(a_min, a_max, steps):
        surface = catalog.FlatTorus(float(a))
        grid = quadrature.make_grid(surface, resolution, resolution)
        rep = quadrature.genus_report(surface, grid)
        rows.append({
            "a": float(a),
            "area": rep.area,
            "traceless_norm": 1.0 / (math.sqrt(2.0) * surface.a * surface.b),
            "integral_f": rep.integral_f,
            "slack": rep.slack,
        })
    return rows


def _cmd_check(args) -> int:
    surface = catalog.parse_surface(args.surface)
    grid = quadrature.make_grid(surface, args.resolution, args.resolution)
    return _check_surface(surface, grid, args)


def _cmd_import(args) -> int:
    try:
        surface = gridio.import_surface(args.file)
    except OSError as exc:  # a missing file, a directory, no permission
        return _fail(f"error: cannot read grid file: {exc}", EXIT_USAGE)
    # Curvatures of an imported grid carry finite-difference error, so the
    # certificate tolerance cannot be tighter than the FD floor.
    args.tol = max(args.tol, FD_FLOOR_TOL)
    return _check_surface(surface, surface.natural_grid(), args)


def _cmd_sweep(args) -> int:
    rows = sweep_tori(args.a_min, args.a_max, args.steps, args.resolution)
    doc = {**_provenance(args), "command": "sweep-tori", "rows": rows}
    _emit(doc, args.format)
    return EXIT_OK


def _cmd_solve(args) -> int:
    lo, hi = SOLVE_ARITY[args.what]
    if not lo <= len(args.args) <= hi:
        count = str(lo) if lo == hi else f"{lo} or {hi}"
        raise DomainError(f"solve {args.what} takes {count} argument(s), got {len(args.args)}")
    if args.what == "beta":
        g0, area = int(args.args[0]), float(args.args[1])
        target = pinch.beta_target(g0, area)
        result = pinch.beta_solve(g0, area)
    elif args.what == "finv":
        target = float(args.args[0])
        result = pinch.f_inverse(target)
    else:  # maxA
        ambient = float(args.args[1]) if len(args.args) > 1 else pinch.S3_VOLUME
        target = pinch.min_surface_maxA_target(int(args.args[0]), ambient)
        result = pinch.f_inverse(target)
    doc = {**_provenance(args), "command": f"solve {args.what}",
           "target": target, "result": result}
    _emit(doc, args.format)
    ok = abs(result.residual) <= 1e-11 * (1.0 + abs(target))
    return EXIT_OK if ok else EXIT_NUMERIC


def _cmd_gap(args) -> int:
    surface = catalog.parse_surface(args.surface)
    grid = quadrature.make_grid(surface, args.resolution, args.resolution)
    integral = quadrature.gap_integral(surface, grid)
    threshold = quadrature.GAP_THRESHOLD
    doc = {
        **_provenance(args),
        "command": "gap",
        "surface": surface.name,
        "integral_A3": integral,
        "threshold": threshold,
        "below_threshold": integral < threshold,
        "certificate": "below threshold (equator range)" if integral < threshold
                       else "above threshold",
    }
    _emit(doc, args.format)
    return EXIT_OK


def _cmd_eigen(args) -> int:
    surface = catalog.parse_surface(args.surface)
    if surface.exact_lambda1 is None:
        raise NoSpectralData(f"no closed-form lambda_1 for '{surface.name}'")
    grid = quadrature.make_grid(surface, args.resolution, args.resolution)
    rep = quadrature.genus_report(surface, grid)
    lam_area = surface.exact_lambda1 * surface.exact_area
    bound_pinch = pinch.eigenvalue_bound_rhs(rep.area, rep.integral_f)
    bound_yy = 8.0 * math.pi * (rep.genus + 1)
    bound_improved = 8.0 * math.pi * ((rep.genus + 3) // 2)
    clifford_note = None
    if isinstance(surface, catalog.FlatTorus) and surface.is_minimal:
        clifford_note = (
            "stated equality case not observed: lambda1*Area = 4*pi^2 "
            f"({lam_area:.6f}) differs from the bound 16*pi ({bound_pinch:.6f}); "
            "both values reported, equality not asserted"
        )
    doc = {
        **_provenance(args),
        "command": "eigen",
        "surface": surface.name,
        "lambda1": surface.exact_lambda1,
        "lambda1_area": lam_area,
        "bounds": {
            "pinching": bound_pinch,
            "yang_yau": bound_yy,
            "improved": bound_improved,
        },
        "holds": {
            "pinching": pinch.at_most(lam_area, bound_pinch, args.tol),
            "yang_yau": pinch.at_most(lam_area, bound_yy, args.tol),
            "improved": pinch.at_most(lam_area, bound_improved, args.tol),
        },
        "equality_discrepancy": clifford_note,
    }
    _emit(doc, args.format)
    return EXIT_OK if all(doc["holds"].values()) else EXIT_BOUND


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one line from main instead of the usage text
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="s3pinch",
        description="Genus, curvature and tube-volume certificates for "
                    "surfaces in the unit 3-sphere.",
    )
    parser.add_argument("--resolution", type=int, default=quadrature.DEFAULT_RESOLUTION,
                        help=f"grid resolution per direction (power of 2, 8..{MAX_RESOLUTION})")
    parser.add_argument("--seed", type=int, default=0, help="Monte-Carlo seed")
    parser.add_argument("--samples", type=int, default=tube.DEFAULT_SAMPLES,
                        help=f"Monte-Carlo sample count (<= {MAX_SAMPLES:.0e})")
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument("--tol", type=float, default=tube.CHAIN_TOL,
                        help="acceptance tolerance for inequality checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run every certificate for one surface")
    p.add_argument("surface")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("sweep-tori", help="Theorem-2 slack across flat tori")
    p.add_argument("a_min", type=float)
    p.add_argument("a_max", type=float)
    p.add_argument("steps", type=int)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve", help="scalar solves: beta g0 area, finv y, maxA g [ambient]")
    p.add_argument("what", choices=tuple(SOLVE_ARITY))
    p.add_argument("args", nargs="+")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("gap", help="L^3 gap-theorem certificate (minimal surfaces)")
    p.add_argument("surface")
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("eigen", help="first-eigenvalue certificates")
    p.add_argument("surface")
    p.set_defaults(func=_cmd_eigen)

    p = sub.add_parser("import", help="check a surface from a grid file")
    p.add_argument("file")
    p.set_defaults(func=_cmd_import)

    return parser


def _fail(message: str, code: int) -> int:
    # User text quoted in a message (a spec, a path) may hold line breaks.
    print(message.replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.format == "csv" and args.command != "sweep-tori":
            raise DomainError(f"--format csv applies to sweep-tori only, not {args.command}")
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise DomainError(f"--tol must be finite and positive, got {args.tol}")
        if not 0 <= args.samples <= MAX_SAMPLES:
            raise DomainError(f"--samples must be in [0, {MAX_SAMPLES}], got {args.samples}")
        if args.seed < 0:
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        _validate_resolution(args.resolution)
        return args.func(args)
    except _PARSE_ERRORS as exc:
        return _fail(f"error: {exc}", EXIT_USAGE)
    except _NUMERIC_ERRORS as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERIC)
    except SystemExit:  # --help; usage errors raise DomainError through _Parser
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
