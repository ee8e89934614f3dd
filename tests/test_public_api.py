"""Every public name has a caller outside the unit tests.

A name exported by `s3pinch` must be referenced by the library itself, the
benchmark harness or the acceptance gate; otherwise it is code only its own
tests reach.  Names kept on purpose sit on the allowlist with their reason.
"""

import ast
import pathlib
import types

import s3pinch

ROOT = pathlib.Path(__file__).resolve().parents[1]

ALLOWED_UNREFERENCED = {
    "lemma3_dFds": "the paper's Lemma 3 partial dF/ds",
    "min_surface_maxA_bound": "the paper's max|A| corollary, shown in the README",
}


def _names(path: pathlib.Path) -> set[str]:
    """Every name, attribute, imported name and string constant in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)  # perfbench/tracing.py names its targets as strings
    return names


def _referenced_names() -> set[str]:
    files = [p for p in (ROOT / "src" / "s3pinch").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    return set().union(*map(_names, files))


def test_every_public_name_has_a_caller():
    public = {name for name in s3pinch.__all__
              if not isinstance(getattr(s3pinch, name), types.ModuleType)}
    # Equality also fails on an allowlist entry whose name is gone or has a caller.
    assert public - _referenced_names() == set(ALLOWED_UNREFERENCED)


# Names whose use in the CLI would mean it derives a bound or applies an
# acceptance rule itself instead of reading a library report's verdict.
VERDICT_NAMES = {"at_most", "pi", "GAP_THRESHOLD", "exact_lambda1", "eigenvalue_bound_rhs",
                 "EULER_ROUNDING_TOL", "MINIMAL_H_TOL"}


def test_cli_holds_no_verdict():
    assert _names(ROOT / "src" / "s3pinch" / "cli.py") & VERDICT_NAMES == set()


def test_polar_weights_are_only_read_through_the_line_rule():
    # `quadrature._line_rule` is the one place that places a grid direction's nodes and
    # weighs them, for catalog grids and imported files alike.
    files = [*(ROOT / "src" / "s3pinch").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert {p.name for p in files if "_polar_weights" in _names(p)} == {"quadrature.py"}


def _callers(path: pathlib.Path, callee: str) -> set[str]:
    """The innermost functions ('<module>' at top level) of a source file that call `callee`."""
    found = set()

    def visit(node, owner):
        if isinstance(node, ast.Call) and callee in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.add(owner)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_frame_normal_is_only_formed_in_curvature_at():
    # The unit normal decides side 1 of every certificate; `geometry.curvature_at` is the
    # one place that forms it, with the metric it checks for degeneracy.
    callers = {(p.name, owner) for p in (ROOT / "src" / "s3pinch").glob("*.py")
               for owner in _callers(p, "cross4")}
    assert callers == {("geometry.py", "curvature_at")}


def test_links_are_decided_only_by_the_verdict_rule():
    # `Verdict.checks` turns every report's links into its verdict; another caller of
    # `at_most` in the library would be a second place that decides a link.
    callers = {(p.name, owner) for p in (ROOT / "src" / "s3pinch").glob("*.py")
               for owner in _callers(p, "at_most")}
    assert callers == {("pinch.py", "solves"), ("pinch.py", "checks")}
