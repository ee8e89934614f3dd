"""Command-line front end: each subcommand (check, sweep-tori, solve, gap, eigen,
import) parses its arguments, calls one library function that returns a report,
prints it and takes its exit code from the report's verdict.
Exit codes: 0 ok, 2 usage/parse error, 3 bound violation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

from . import catalog, gridio, pinch, quadrature, tube
from .errors import DomainError, NumericalFailure, S3PinchError

SCHEMA = 2
EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BOUND = 3
EXIT_NUMERIC = 4
# Node fields and Monte-Carlo draws stream in tiles: both caps bound run time only.
MAX_RESOLUTION = 2048
MAX_SAMPLES = 10 ** 9


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _emit(args, command: str, fields: dict) -> None:
    doc = {"schema": SCHEMA, "resolution": args.resolution, "seed": args.seed,
           "samples": args.samples, "command": command, **fields}
    if args.format == "json":
        print(json.dumps(_jsonable(doc), sort_keys=True, indent=2))
    elif args.format == "csv":  # `main` allows csv only for row documents (sweep-tori)
        cols = list(doc["rows"][0])
        print(",".join(cols))
        for row in doc["rows"]:
            print(",".join(repr(_jsonable(row[c])) for c in cols))
    else:
        for key, val in sorted(_jsonable(doc).items()):
            print(f"{key}: {val}")


def _certify(args, command: str, surface, report, **fields) -> int:
    """Print a report decided by its links with their `checks` and `pass`; exit from `passed`."""
    _emit(args, command, {"surface": surface.name, **vars(report), "checks": report.checks,
                          "pass": report.passed, **fields})
    return EXIT_OK if report.passed else EXIT_BOUND


def _check_surface(surface, grid, args, **fields) -> int:
    cert = tube.verify_sum_inequality(surface, grid, mc_samples=args.samples,
                                      seed=args.seed, tol=args.tol)
    return _certify(args, "check", surface, cert, **fields)


def _cmd_check(args) -> int:
    surface = catalog.parse_surface(args.surface)
    grid = quadrature.make_grid(surface, args.resolution, args.resolution)
    return _check_surface(surface, grid, args)


def _cmd_import(args) -> int:
    try:
        surface = gridio.import_surface(args.file)
    except OSError as exc:  # a missing file, a directory, no permission
        return _fail(f"error: cannot read grid file: {exc}", EXIT_USAGE)
    grid = surface.natural_grid()  # its own resolution, not --resolution's
    return _check_surface(surface, grid, args, resolution=grid.resolution)


def _cmd_sweep(args) -> int:
    rows = quadrature.sweep_tori(args.a_min, args.a_max, args.steps, args.resolution)
    _emit(args, "sweep-tori", {"rows": rows})
    return EXIT_OK


def _cmd_solve(args) -> int:
    if args.what == "beta":
        target, result = pinch.beta_target(args.g, args.area), pinch.beta_solve(args.g, args.area)
    else:
        target = (args.y if args.what == "finv"
                  else pinch.min_surface_maxA_target(args.g, args.ambient))
        result = pinch.f_inverse(target)
    _emit(args, f"solve {args.what}", {"target": target, "result": result})
    return EXIT_OK if result.solves(target) else EXIT_NUMERIC


def _cmd_gap(args) -> int:
    surface = catalog.parse_surface(args.surface)
    grid = quadrature.make_grid(surface, args.resolution, args.resolution)
    _emit(args, "gap", {"surface": surface.name, **vars(quadrature.gap_report(surface, grid))})
    return EXIT_OK  # either side of the threshold is a valid certificate


def _cmd_eigen(args) -> int:
    surface = catalog.parse_surface(args.surface)
    grid = quadrature.make_grid(surface, args.resolution, args.resolution)
    return _certify(args, "eigen", surface, quadrature.eigen_report(surface, grid, args.tol))


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
                        choices=[2 ** k for k in range(3, MAX_RESOLUTION.bit_length())],
                        help="grid resolution per direction")
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
    p.set_defaults(func=_cmd_solve)
    solve = p.add_subparsers(dest="what", required=True)
    q = solve.add_parser("beta")
    q.add_argument("g", type=int)
    q.add_argument("area", type=float)
    solve.add_parser("finv").add_argument("y", type=float)
    q = solve.add_parser("maxA")
    q.add_argument("g", type=int)
    q.add_argument("ambient", type=float, nargs="?", default=pinch.S3_VOLUME)

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


_parser = functools.cache(build_parser)  # main's parser, built once: parse_args leaves it as is


def _fail(message: str, code: int) -> int:
    # User text quoted in a message (a spec, a path) may hold line breaks.
    print(message.replace("\n", "\\n"), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.format == "csv" and args.command != "sweep-tori":
            raise DomainError(f"--format csv applies to sweep-tori only, not {args.command}")
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise DomainError(f"--tol must be finite and positive, got {args.tol}")
        if not 0 <= args.samples <= MAX_SAMPLES:
            raise DomainError(f"--samples must be in [0, {MAX_SAMPLES}], got {args.samples}")
        if args.seed < 0:
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except NumericalFailure as exc:
        return _fail(f"numerical failure: {exc}", EXIT_NUMERIC)
    except (S3PinchError, ValueError) as exc:
        return _fail(f"error: {exc}", EXIT_USAGE)
    except SystemExit:  # --help; usage errors raise DomainError through _Parser
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
