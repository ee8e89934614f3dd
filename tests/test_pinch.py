import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from s3pinch import (
    BracketFailure, DomainError, RootResult, acot, at_most, beta_pinch, beta_solve,
    beta_target, cubic_gap, eigenvalue_bound_rhs, eigenvalue_bounds, f_inverse, f_pinch,
    f_series, hk_time_integral, lemma3_F, lemma3_d2Fdtds, lemma3_dFds, lemma3_gap,
    min_surface_maxA_bound, prop1_integrand,
)
from s3pinch import pinch
from s3pinch.pinch import SOLVE_TOL

SQRT2 = math.sqrt(2.0)
RNG = np.random.default_rng(7)

# Frozen with a 40-digit mpmath evaluation of the closed forms.
F_AT_ONE = 0.79873385370270770773
BETA_RHS2 = 1.3186938761353900536       # root of b + (b^2-1) atan b = 2
FINV_PI_OVER_4 = 0.9938351982148462631
FINV_2PI_OVER_3 = 1.4398544174845594877


class TestFPinch:
    def test_examples(self):
        assert f_pinch(0.0) == 0.0
        assert f_pinch(SQRT2) == pytest.approx(2.0, abs=1e-14)
        assert f_pinch(1.0) == pytest.approx(F_AT_ONE, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            f_pinch(-0.1)
        with pytest.raises(DomainError):
            f_pinch(float("nan"))
        with pytest.raises(DomainError):
            f_pinch(float("inf"))

    # The root solves bisect f_pinch and beta_pinch, so both must increase in floats too.
    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    @example(1e-9, 2e-9)
    def test_strictly_increasing(self, a, b):
        if a == b:
            return
        lo, hi = min(a, b), max(a, b)
        for func in (f_pinch, beta_pinch):
            assert func(lo) <= func(hi)
            # f(t) ~ t^3 underflows to 0.0 below t ~ 1e-108, and for arguments an
            # ulp apart the outputs can coincide; strictness is only representable
            # for well-separated arguments.
            if hi >= 1e-100 and hi - lo > 1e-12 * (1.0 + hi):
                assert func(lo) < func(hi)


def assert_adjacent_bracket(res, func, target):
    """The solve's contract: lo and hi adjacent doubles, func(lo) < target <= func(hi),
    and the root is hi."""
    lo, hi = res.bracket
    assert np.nextafter(lo, math.inf) == hi
    assert res.value == hi
    assert func(lo) < target <= func(hi)
    assert res.residual == func(hi) - target


def mp_root(closed_form, target):
    """Root of closed_form(x) = target at 100 digits, which survive the closed forms'
    cancellation at x ~ 1e-20: halve [1, 2] to a bracket [x, 2x], then Anderson-Bjorck."""
    with mp.workdps(100):
        y, hi = mp.mpf(target), mp.mpf(2)
        while closed_form(hi / 2) >= y:
            hi /= 2
        return float(mp.findroot(lambda x: closed_form(x) - y, (hi / 2, hi), solver="anderson"))


def mp_f(t):
    return mp.sqrt(2) * t + (t * t - 2) * mp.atan(t / mp.sqrt(2))


def mp_beta(b):
    return b + (b * b - 1) * mp.atan(b)


class TestFSeries:
    def test_zero(self):
        assert f_series(0.0, 10) == (0.0, 0.0)

    def test_matches_closed_form_at_one(self):
        value, bound = f_series(1.0, 30)
        assert value == pytest.approx(f_pinch(1.0), abs=1e-9)
        assert abs(value - f_pinch(1.0)) <= bound

    def test_slow_convergence_near_radius(self):
        value, bound = f_series(1.41, 200)
        target = f_pinch(1.41)
        assert bound > 0
        nxt, _ = f_series(1.41, 201)
        assert min(value, nxt) <= target <= max(value, nxt)

    def test_consecutive_partial_sums_bracket(self):
        for t in RNG.uniform(0.05, 1.4, size=50):
            L = int(RNG.integers(1, 40))
            a, _ = f_series(t, L)
            b, _ = f_series(t, L + 1)
            target = f_pinch(t)
            slack = 1e-14 * (1.0 + abs(target))  # fp ties once converged
            assert min(a, b) - slack <= target <= max(a, b) + slack

    def test_rejects_radius_and_beyond(self):
        with pytest.raises(DomainError):
            f_series(SQRT2, 10)
        with pytest.raises(DomainError):
            f_series(2.0, 10)

    @pytest.mark.parametrize("t, terms", [
        (np.array([0.1, 0.2]), 3), (0.1, 2.5), (0.1, -1), (0.1, True), (True, 3),
        (0.5j, 2), ("0.1", 2), (None, 2), (0.1, np.array([2])), (math.nan, 2),
    ], ids=["array-t", "float-terms", "negative-terms", "bool-terms", "bool-t",
            "complex-t", "str-t", "none-t", "array-terms", "nan-t"])
    def test_rejects_all_but_a_real_scalar_and_an_int(self, t, terms):
        with pytest.raises(DomainError):
            f_series(t, terms)

    @pytest.mark.parametrize("t, terms", [(0.5, 3), (np.array(0.5), np.array(3)),
                                          (np.float32(0.5), np.int64(3))],
                             ids=["python", "0-d", "numpy-scalars"])
    def test_returns_python_floats(self, t, terms):
        value, bound = f_series(t, terms)
        assert type(value) is float and type(bound) is float
        assert (value, bound) == f_series(0.5, 3)


class TestFInverse:
    def test_examples(self):
        assert f_inverse(0.0).value == 0.0
        assert f_inverse(2.0).value == pytest.approx(SQRT2, abs=1e-12)
        assert f_inverse(f_pinch(3.7)).value == pytest.approx(3.7, abs=1e-10)

    def test_residual_and_bracket_invariants(self):
        for y in [*RNG.uniform(0.0, 50.0, size=50), math.pi / 4, 2.0, 1e-300]:
            res = f_inverse(y)
            assert abs(res.residual) <= 1e-15 * (1.0 + y)
            assert_adjacent_bracket(res, f_pinch, y)

    @pytest.mark.parametrize("y", [1e-30, 1e-40, 1e-60])
    def test_tiny_targets_match_mpmath(self, y):
        res = f_inverse(y)
        assert_adjacent_bracket(res, f_pinch, y)
        assert res.value == pytest.approx(mp_root(mp_f, y), rel=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(1e-6, 10.0))
    def test_round_trip(self, t):
        assert f_inverse(f_pinch(t)).value == pytest.approx(t, abs=1e-10)

    def test_domain_and_bracket_failure(self):
        with pytest.raises(DomainError):
            f_inverse(-1.0)
        with pytest.raises(BracketFailure):
            f_inverse(1e30)


class TestLemma3:
    def test_equality_cases(self):
        assert lemma3_gap(-1.0, 1.0) == pytest.approx(0.0, abs=1e-14)
        for c in (-3.0, 0.0, 2.5):
            assert lemma3_gap(c, c) == pytest.approx(0.0, abs=1e-12)

    def test_value_at_0_2(self):
        assert lemma3_gap(0.0, 2.0) == pytest.approx(math.atan(2.0), abs=1e-14)
        assert lemma3_gap(0.0, 2.0) > 0

    def test_rejects_unordered(self):
        with pytest.raises(DomainError):
            lemma3_gap(1.0, 0.0)

    def test_nonnegative_on_grid(self):
        k = np.linspace(-10, 10, 200)
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        mask = K1 <= K2
        assert np.all(lemma3_gap(K1[mask], K2[mask]) >= -1e-12)

    def test_F_matches_gap_change_of_variables(self):
        for _ in range(100):
            s = RNG.uniform(-5, 5)
            t = RNG.uniform(0, 5)
            assert lemma3_F(t, s) == pytest.approx(
                lemma3_gap(s - t, s + t), abs=1e-12)

    def test_F_at_s_zero(self):
        for t in RNG.uniform(0, 10, size=50):
            assert lemma3_F(t, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_dFds_at_t_zero(self):
        for s in RNG.uniform(-10, 10, size=50):
            assert lemma3_dFds(0.0, s) == pytest.approx(0.0, abs=1e-14)

    def test_d2F_printed_value(self):
        assert lemma3_d2Fdtds(1.0, 1.0) == pytest.approx(96.0 / 25.0, abs=1e-14)

    def test_derivative_chain_finite_differences(self):
        h = 1e-6
        for _ in range(100):
            t = RNG.uniform(0.1, 5.0)
            s = RNG.uniform(-5.0, 5.0)
            fd1 = (lemma3_F(t, s + h) - lemma3_F(t, s - h)) / (2 * h)
            assert abs(fd1 - lemma3_dFds(t, s)) < 1e-6 * (1.0 + abs(fd1))
            fd2 = (lemma3_dFds(t + h, s) - lemma3_dFds(t - h, s)) / (2 * h)
            assert abs(fd2 - lemma3_d2Fdtds(t, s)) < 1e-6 * (1.0 + abs(fd2))

    def test_mixed_partial_nonnegative_first_quadrant(self):
        t = RNG.uniform(0, 10, size=1000)
        s = RNG.uniform(0, 10, size=1000)
        assert np.all(lemma3_d2Fdtds(t, s) >= 0)


class TestCubicGap:
    def test_examples(self):
        assert cubic_gap(0.0) == 0.0
        assert cubic_gap(SQRT2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_positive(self):
        assert np.all(cubic_gap(RNG.uniform(1e-9, 10.0, size=1000)) > 0)


class TestHeintzeKarcher:
    def test_time_integral_examples(self):
        assert hk_time_integral(0.0, 0.0) == pytest.approx(math.pi / 4, abs=1e-15)
        assert hk_time_integral(-1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
        r = math.pi / 3
        k = 1.0 / math.tan(r)
        expected = 0.5 * (-k + (1.0 + k * k) * r)
        assert hk_time_integral(k, k) == pytest.approx(expected, abs=1e-15)

    def test_time_integral_matches_quadrature(self):
        for _ in range(1000):
            k1 = RNG.uniform(-5, 5)
            k2 = RNG.uniform(k1, 5)
            upper = acot(k2)

            def jacobian(t):  # the Heintze-Karcher tube Jacobian
                return (math.cos(t) - k1 * math.sin(t)) * (math.cos(t) - k2 * math.sin(t))

            val, _ = quad(jacobian, 0.0, upper)
            assert hk_time_integral(k1, k2) == pytest.approx(val, abs=1e-10)

    def test_acot_branch_identity(self):
        x = RNG.uniform(-50, 50, size=200)
        assert np.allclose(np.arctan(x), math.pi / 2 - acot(x), atol=1e-14)
        assert np.all((acot(x) > 0) & (acot(x) < math.pi))


class TestProp1Integrand:
    def test_examples(self):
        assert prop1_integrand(0.7, 0.7) == pytest.approx(0.0, abs=1e-15)
        assert prop1_integrand(-1.0, 1.0) == pytest.approx(2.0, abs=1e-15)
        assert prop1_integrand(0.0, 1.0) == pytest.approx(1.0 - math.pi / 4, abs=1e-15)

    def test_bounded_by_pinching_function(self):
        # Lemma 3 rearranged: the genus-bound integrand never exceeds
        # f(|Aring|) with |Aring| = (k2 - k1)/sqrt(2).
        k = np.linspace(-10, 10, 150)
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        mask = K1 <= K2
        k1, k2 = K1[mask], K2[mask]
        assert np.all(prop1_integrand(k1, k2)
                      <= f_pinch((k2 - k1) / SQRT2) + 1e-12)

    def test_nonnegative(self):
        k = np.linspace(-8, 8, 120)
        K1, K2 = np.meshgrid(k, k, indexing="ij")
        mask = K1 <= K2
        assert np.all(prop1_integrand(K1[mask], K2[mask]) >= -1e-12)


class TestBetaSolve:
    def test_clifford_case(self):
        res = beta_solve(1, 2 * math.pi ** 2)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_huge_area_gives_zero(self):
        assert beta_solve(1, 1e14).value == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.parametrize("area", [1e14, 1e20, 1e30, 5.0, 2 * math.pi ** 2])
    def test_adjacent_bracket_matches_mpmath(self, area):
        target = beta_target(1, area)
        res = beta_solve(1, area)
        assert_adjacent_bracket(res, beta_pinch, target)
        assert res.value == pytest.approx(mp_root(mp_beta, target), rel=1e-15)

    def test_genus_two_frozen_value(self):
        res = beta_solve(2, 2 * math.pi ** 2)
        assert res.value == pytest.approx(BETA_RHS2, abs=1e-10)
        assert beta_pinch(res.value) == pytest.approx(2.0, abs=1e-11)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_solve(0, 1.0)
        with pytest.raises(DomainError):
            beta_solve(1, -1.0)

    def test_target_is_the_solved_right_side(self):
        assert beta_target(2, 2 * math.pi ** 2) == 2.0
        res = beta_solve(3, 5.0)
        assert beta_pinch(res.value) == pytest.approx(beta_target(3, 5.0), rel=1e-11)
        with pytest.raises(DomainError):
            beta_target(1, float("inf"))


def test_at_most_scales_tol_by_one_plus_abs_rhs():
    assert at_most(1.0, 1.0, 0.0) and not at_most(1.0 + 1e-15, 1.0, 0.0)
    # 100 * (1 + 1e-8) is within tol = 1e-8 of 100 only once the tolerance
    # is scaled by 1 + |rhs| (a bare tol would reject it).
    assert at_most(100.0 + 5e-7, 100.0, 1e-8)
    assert not at_most(100.0 + 2e-6, 100.0, 1e-8)
    assert at_most(-1.0, -1.0 - 1e-9, 1e-8) and not at_most(-1.0, -1.1, 1e-8)
    assert type(at_most(np.float64(1.0), np.float64(2.0), 1e-8)) is bool


class TestMaxABound:
    def test_genus_one_sphere_ambient(self):
        bound = min_surface_maxA_bound(1)
        assert bound == pytest.approx(FINV_PI_OVER_4, abs=1e-10)
        # Clifford torus consistency: max |A| = sqrt(2), f(sqrt(2)) = 2 >= pi/4.
        assert f_pinch(SQRT2) >= math.pi / 4
        assert SQRT2 >= bound

    def test_small_ambient_limit(self):
        assert min_surface_maxA_bound(1, 1e-12) == pytest.approx(0.0, abs=1e-4)

    def test_genus_four_frozen_value(self):
        assert min_surface_maxA_bound(4) == pytest.approx(FINV_2PI_OVER_3, abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            min_surface_maxA_bound(0)
        with pytest.raises(DomainError):
            min_surface_maxA_bound(1, 3 * math.pi ** 2)


class TestEigenvalueBound:
    def test_sphere_ambient_reduces_to_8pi(self):
        assert eigenvalue_bound_rhs(1.0, 0.0) == pytest.approx(8 * math.pi, abs=1e-14)

    def test_clifford_value(self):
        val = eigenvalue_bound_rhs(2 * math.pi ** 2, 4 * math.pi ** 2)
        assert val == pytest.approx(16 * math.pi, abs=1e-12)

    def test_degenerate_ambient_rejected(self):
        with pytest.raises(DomainError):
            eigenvalue_bound_rhs(1.0, 0.0, 0.0)

    def test_bounds_by_genus(self):
        # Genus 0: all three bounds are 8*pi, the geodesic spheres' lambda_1 * Area.
        assert eigenvalue_bounds(0, 1.0, 0.0) == pytest.approx(
            {"pinching": 8 * math.pi, "yang_yau": 8 * math.pi, "improved": 8 * math.pi})
        bounds = eigenvalue_bounds(2, 10.0, 5.0)
        assert list(bounds) == ["pinching", "yang_yau", "improved"]
        assert bounds["pinching"] == eigenvalue_bound_rhs(10.0, 5.0)
        assert bounds["yang_yau"] == pytest.approx(24 * math.pi)
        assert bounds["improved"] == pytest.approx(16 * math.pi)


class TestRootResultSolves:
    def test_edge_of_solve_tol(self):
        target = 3.0
        edge = SOLVE_TOL * (1.0 + target)
        for residual in (0.0, edge, -edge):
            assert RootResult(1.0, residual, (0.0, 2.0), 5).solves(target)
        for residual in (np.nextafter(edge, 1.0), -np.nextafter(edge, 1.0), 1e-9):
            assert not RootResult(1.0, residual, (0.0, 2.0), 5).solves(target)


# One input contract for every elementwise function: (function, arity, a valid
# point, a point breaking the domain rule or None, the rule's message).
ELEMENTWISE = [
    (f_pinch, 1, (0.5,), (-0.1,), "argument must be >= 0"),
    (cubic_gap, 1, (0.5,), (-0.1,), "argument must be >= 0"),
    (beta_pinch, 1, (0.5,), (-0.1,), "argument must be >= 0"),
    (acot, 1, (0.5,), None, None),
    (lemma3_gap, 2, (-0.5, 0.5), (0.5, -0.5), "requires k1 <= k2"),
    (hk_time_integral, 2, (-0.5, 0.5), (0.5, -0.5), "requires k1 <= k2"),
    (prop1_integrand, 2, (-0.5, 0.5), (0.5, -0.5), "requires k1 <= k2"),
    (lemma3_F, 2, (0.5, 0.2), (-0.5, 0.2), "requires t >= 0"),
    (lemma3_dFds, 2, (0.5, 0.2), (-0.5, 0.2), "requires t >= 0"),
    (lemma3_d2Fdtds, 2, (0.5, 0.2), (-0.5, 0.2), "requires t >= 0"),
]


@pytest.mark.parametrize("func, arity, valid", [row[:3] for row in ELEMENTWISE],
                         ids=[row[0].__name__ for row in ELEMENTWISE])
class TestElementwiseContract:
    def test_scalar_input_gives_float(self, func, arity, valid):
        assert type(func(*valid)) is float
        assert type(func(*(np.float64(x) for x in valid))) is float

    def test_array_input_broadcasts(self, func, arity, valid):
        # A column and a row of valid points broadcast to their outer shape.
        args = [np.full((3, 1), valid[0])] + [np.full((1, 4), x) for x in valid[1:]]
        out = func(*args)
        assert isinstance(out, np.ndarray)
        assert out.shape == ((3, 1) if arity == 1 else (3, 4))
        assert out == pytest.approx(np.full(out.shape, func(*valid)), rel=1e-15)

    @pytest.mark.parametrize("bad_value", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_rejected(self, func, arity, valid, bad_value):
        for i in range(arity):
            for bad in (bad_value, np.array([valid[i], bad_value])):
                args = list(valid)
                args[i] = bad
                with pytest.raises(DomainError, match="^non-finite input$"):
                    func(*args)

    def test_found_by_name_in_its_module(self, func, arity, valid):
        # Tracing patches these functions by module attribute name.
        assert getattr(pinch, func.__name__) is func


@pytest.mark.parametrize("func, bad, message", [(f, b, m) for f, _, _, b, m in ELEMENTWISE if b],
                         ids=[row[0].__name__ for row in ELEMENTWISE if row[3]])
def test_elementwise_domain_rule(func, bad, message):
    with pytest.raises(DomainError) as exc:
        func(*bad)
    assert str(exc.value) == message
    # Non-finite input is reported before the domain rule.
    with pytest.raises(DomainError, match="^non-finite input$"):
        func(*bad[:-1], math.nan)
