"""Independent checks of s3pinch `check`/`import` certificates.

No value here comes from the library. Genus, area, side volumes and the
pinching integral of tori and geodesic spheres are closed forms written out
again below; the side volumes of a perturbed sphere come from a separate
spectral quadrature of the ball volume over S^2.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

S3_VOLUME = 2.0 * math.pi ** 2
FOUR_PI_SQ = 4.0 * math.pi ** 2
CLIFFORD_A = 1.0 / math.sqrt(2.0)
TOL = 1e-8          # the CLI's default --tol
QUAD_RTOL = 1e-8    # trapezoid / Gauss-Legendre error on analytic catalog charts
PSPHERE_HK_RTOL = 1e-6
MC_SIGMAS = 5.0


def f_pinch(t: float) -> float:
    return math.sqrt(2.0) * t + (t * t - 2.0) * math.atan(t / math.sqrt(2.0))


def _zlm(l: int, m: int, theta, phi):
    """Real spherical harmonic with unit L^2 norm on S^2.

    The sign convention may differ from sympy's Znm; a sign flip changes a
    side volume only at O(eps^3), far below the Monte-Carlo error checked.
    """
    am = abs(m)
    leg = np.polynomial.Legendre.basis(l).deriv(am)(np.cos(theta)) * np.sin(theta) ** am
    norm = math.sqrt((2 * l + 1) / (4 * math.pi) * math.factorial(l - am) / math.factorial(l + am))
    if m == 0:
        return norm * leg
    trig = np.cos(am * phi) if m > 0 else np.sin(am * phi)
    return math.sqrt(2.0) * norm * leg * trig


@functools.lru_cache(maxsize=None)
def psphere_volumes(r: float, eps: float, l: int, m: int, n: int = 96) -> tuple[float, float]:
    """Side volumes of the graph psi = r + eps*Z_lm: the ball psi < rho(theta, phi)
    has volume integral over S^2 of (rho/2 - sin(2 rho)/4)."""
    x, w = np.polynomial.legendre.leggauss(n)
    theta = (x + 1.0) * math.pi / 2.0
    phi = np.arange(2 * n) * math.pi / n
    T, P = np.meshgrid(theta, phi, indexing="ij")
    rho = r + eps * _zlm(l, m, T, P)
    integrand = (rho / 2.0 - np.sin(2.0 * rho) / 4.0) * np.sin(T)
    ball = float(np.sum(w[:, None] * integrand)) * (math.pi / 2.0) * (math.pi / n)
    return ball, S3_VOLUME - ball


def expected(kind: str, params: tuple) -> dict:
    """Closed-form genus, area, side volumes and integral of f(|A|)."""
    if kind == "torus":
        a = params[0]
        b = math.sqrt(1.0 - a * a)
        area = FOUR_PI_SQ * a * b
        return {"genus": 1, "area": area, "volumes": (S3_VOLUME * a * a, S3_VOLUME * b * b),
                "integral_f": f_pinch((a / b + b / a) / math.sqrt(2.0)) * area,
                "hk_tight": True, "slack_zero": abs(a - CLIFFORD_A) < 1e-12}
    if kind == "sphere":
        r = params[0]
        ball = math.pi * (2.0 * r - math.sin(2.0 * r))
        return {"genus": 0, "area": 4.0 * math.pi * math.sin(r) ** 2,
                "volumes": (ball, S3_VOLUME - ball), "integral_f": 0.0,
                "hk_tight": True, "slack_zero": True}
    return {"genus": 0, "area": None, "volumes": psphere_volumes(*params),
            "integral_f": None, "hk_tight": False, "slack_zero": False}


def check(doc: dict, inp) -> list[str]:
    """Every way the certificate `doc` for input `inp` misses the oracle."""
    exp = expected(inp.kind, inp.params)
    imported = inp.grid_path is not None
    # An imported grid is sampled at cell centres, so its area and volumes
    # carry the midpoint rule's O(h^2) error; (pi/n)^2/6 is 4x its constant.
    rtol = (math.pi / inp.resolution) ** 2 / 6.0 if imported else QUAD_RTOL
    tol = max(TOL, rtol) if imported else TOL
    gr = doc["genus_report"]
    miss = []

    def need(ok, what):
        if not ok:
            miss.append(what)

    need(doc.get("pass") is True, "certificate does not pass")
    need(all(doc["checks"].values()), f"failed checks {doc['checks']}")
    need(gr["genus"] == exp["genus"], f"genus {gr['genus']} != {exp['genus']}")
    if exp["area"] is not None:
        need(abs(gr["area"] - exp["area"]) <= rtol * exp["area"],
             f"area {gr['area']!r} != {exp['area']!r}")
    need(gr["slack"] >= -tol * (1.0 + abs(gr["bound_rhs"])), f"theorem-2 slack {gr['slack']!r} < 0")
    if exp["slack_zero"]:
        need(abs(gr["slack"]) <= rtol * (1.0 + abs(gr["bound_rhs"])),
             f"theorem-2 slack {gr['slack']!r} != 0 on an equality case")
    if exp["integral_f"] is not None and not imported:
        need(abs(gr["integral_f"] - exp["integral_f"]) <= QUAD_RTOL * (1.0 + exp["integral_f"]),
             f"integral of f {gr['integral_f']!r} != {exp['integral_f']!r}")

    hk_rtol = rtol if imported else (QUAD_RTOL if exp["hk_tight"] else PSPHERE_HK_RTOL)
    for rep, vol in zip(doc["tube_reports"], exp["volumes"]):
        side = rep["side"]
        need(rep["hk_upper"] >= vol - hk_rtol * (1.0 + vol),
             f"hk_side{side} {rep['hk_upper']!r} below exact volume {vol!r}")
        if exp["hk_tight"]:
            need(abs(rep["hk_upper"] - vol) <= hk_rtol * (1.0 + vol),
                 f"hk_side{side} {rep['hk_upper']!r} not tight at {vol!r}")
        if rep["exact_volume"] is not None:
            need(abs(rep["exact_volume"] - vol) <= 1e-12 * (1.0 + vol),
                 f"side {side} exact volume {rep['exact_volume']!r} != {vol!r}")
        if rep["mc_volume"] is not None:
            est, err = rep["mc_volume"]
            need(abs(est - vol) <= MC_SIGMAS * err,
                 f"side {side} MC volume {est!r} +- {err!r} misses {vol!r}")
    return miss


def doctored(doc: dict, inp) -> list[tuple[str, dict]]:
    """Copies of a good certificate, each with one planted error."""
    vol = expected(inp.kind, inp.params)["volumes"][0]
    out = []

    def plant(label, edit):
        bad = copy.deepcopy(doc)
        edit(bad)
        out.append((label, bad))

    plant("genus", lambda d: d["genus_report"].update(genus=d["genus_report"]["genus"] + 1))
    plant("slack", lambda d: d["genus_report"].update(slack=-0.1 * (1.0 + abs(d["genus_report"]["bound_rhs"]))))
    plant("hk", lambda d: d["tube_reports"][0].update(hk_upper=0.9 * vol))
    if doc["tube_reports"][0]["mc_volume"] is not None:
        def shift_mc(d):
            est, err = d["tube_reports"][0]["mc_volume"]
            d["tube_reports"][0]["mc_volume"] = [est + 10.0 * err, err]
        plant("mc", shift_mc)
    return out


def self_check(doc: dict, inp) -> list[str]:
    """Labels of planted errors the oracle failed to catch (empty when sound)."""
    return [label for label, bad in doctored(doc, inp) if not check(bad, inp)]
