import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metarel.acceptance import _i0e_series_vec
from metarel.errors import CalibrationError, DomainError
from metarel.specfun import (
    LS_POLY,
    MarcumApproxCoeffs,
    MarcumPolyCoeffs,
    calibrate_marcum_coeffs,
    eval_mu_nu,
    lambert_w0,
    marcum_q1,
    marcum_q1_exp_approx,
    marcum_q1_inverse_b,
)

SQRT6 = math.sqrt(6.0)


def i0_series_oracle(x: float) -> float:
    # partial sums of sum_k (x/2)^(2k)/(k!)^2 until the term is negligible
    total, term, k = 1.0, 1.0, 0
    while term > 1e-16 * total:
        k += 1
        term *= (x / 2.0) ** 2 / k**2
        total += term
    return total


class TestBesselI0:
    # the e^-x I0(x) series inside criterion 10's Simpson oracle for Q1

    @staticmethod
    def i0(x: float) -> float:
        return float(_i0e_series_vec(np.array([x]))[0]) * math.exp(x)

    def test_zero(self):
        assert self.i0(0.0) == 1.0

    @pytest.mark.parametrize("x", [1.0, 5.0])
    def test_against_series_oracle(self, x):
        assert self.i0(x) == pytest.approx(i0_series_oracle(x), rel=1e-12)

    def test_known_values(self):
        assert self.i0(1.0) == pytest.approx(1.26606588, abs=5e-8)
        assert self.i0(5.0) == pytest.approx(27.239872, abs=5e-6)

    def test_series_agreement_on_range(self):
        xs = np.linspace(0.0, 20.0, 41)
        want = [i0_series_oracle(float(x)) * math.exp(-float(x)) for x in xs]
        assert _i0e_series_vec(xs) == pytest.approx(want, rel=1e-10)


def marcum_bisection_oracle(a: float, p: float) -> float:
    lo, hi = 0.0, max(a, 1.0)
    while marcum_q1(a, hi) > p:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if marcum_q1(a, mid) > p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestMarcumQ1:
    @pytest.mark.parametrize("a", [0.0, 0.5, 1.0, 3.0])
    def test_full_mass_at_b_zero(self, a):
        assert marcum_q1(a, 0.0) == 1.0

    def test_a_zero_gaussian_tail(self):
        assert marcum_q1(0.0, 2.0) == pytest.approx(math.exp(-2.0), abs=1e-12)

    def test_one_one_value(self):
        # independent cross-check: noncentral chi-square survival function
        from scipy.stats import ncx2

        val = marcum_q1(1.0, 1.0)
        assert val == pytest.approx(0.73, abs=5e-3)
        assert val == pytest.approx(ncx2.sf(1.0, 2, 1.0), abs=1e-10)

    def test_monotone_in_b_and_a(self):
        bs = np.linspace(0.05, 6.0, 40)
        vals = [marcum_q1(1.5, float(b)) for b in bs]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
        a_vals = [marcum_q1(float(a), 2.0) for a in np.linspace(0.0, 4.0, 20)]
        assert all(v2 > v1 for v1, v2 in zip(a_vals, a_vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            marcum_q1(-0.1, 1.0)
        with pytest.raises(DomainError):
            marcum_q1(1.0, float("inf"))

    def test_array_matches_scalar_calls(self):
        a = np.array([0.0, 0.5, 2.0, 2.0, 3.0])
        b = np.array([1.0, 0.0, 0.5, 2.5, 9.0])
        got = marcum_q1(a, b)
        assert isinstance(got, np.ndarray) and got.shape == a.shape
        assert got.tolist() == [marcum_q1(float(x), float(y)) for x, y in zip(a, b)]
        assert isinstance(marcum_q1(2.0, 1.0), float)
        with pytest.raises(DomainError):
            marcum_q1(a, np.array([1.0, 2.0, -1e-9, 0.5, 1.0]))


class TestMarcumInverse:
    def test_a_zero_exact(self):
        assert marcum_q1_inverse_b(0.0, math.exp(-2.0)) == pytest.approx(2.0, abs=1e-9)
        # Q1(0, b) = exp(-b^2/2), so b* = sqrt(-2 ln p) on both branches
        for p in (1e-3, 0.3, 0.99, 1.0 - 1e-7):
            want = math.sqrt(-2.0 * math.log1p(-(1.0 - p)))
            assert marcum_q1_inverse_b(0.0, p) == pytest.approx(want, rel=1e-9)

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(0.0, 4.0)
            p = rng.uniform(0.01, 0.99)
            b = marcum_q1_inverse_b(a, p)
            assert marcum_q1(a, b) == pytest.approx(p, abs=1e-9)

    def test_against_bisection_oracle(self):
        got = marcum_q1_inverse_b(SQRT6, 0.99999)
        want = marcum_bisection_oracle(SQRT6, 0.99999)
        assert got == pytest.approx(want, abs=1e-7)

    @pytest.mark.parametrize("a", [0.0, 1.0, 2.0, SQRT6, 5.0])
    @pytest.mark.parametrize("p", [0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-7])
    def test_against_ncx2_root(self, a, p):
        # Q1(a, b) = P(X > b^2) for X ~ ncx2(2, a^2); root of the forward
        # law, on the complement for p > 1/2 as for the anchor 1 - 1e-7
        from scipy.optimize import brentq
        from scipy.stats import ncx2

        if p > 0.5:
            def excess(b):
                return float(ncx2.cdf(b * b, 2, a * a)) - (1.0 - p)
        else:
            def excess(b):
                return p - float(ncx2.sf(b * b, 2, a * a))
        want = brentq(excess, 1e-12, a + 40.0, xtol=1e-300, rtol=1e-15, maxiter=500)
        got = marcum_q1_inverse_b(a, p)
        assert got == pytest.approx(want, rel=1e-13)
        if a == 0.0:
            assert got == pytest.approx(math.sqrt(-2.0 * math.log(p)), rel=1e-13)

    def test_domain(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                marcum_q1_inverse_b(1.0, p)

    def test_p_below_the_rounding_of_one_minus_p(self):
        # 1 - 1e-300 rounds to 1, whose inverse is b = inf; the true b* at
        # a = 0 is sqrt(600 ln 10) = 37.17
        with pytest.raises(DomainError, match="no finite b"):
            marcum_q1_inverse_b(0.0, 1e-300)


class TestPolyEvaluation:
    def test_published_values_at_sqrt6(self):
        coeffs = eval_mu_nu(SQRT6, LS_POLY)
        assert coeffs.mu == pytest.approx(3.1098, abs=5e-4)
        assert coeffs.nu == pytest.approx(-3.4032, abs=5e-4)

    def test_constant_term_at_zero(self):
        coeffs = eval_mu_nu(0.0, LS_POLY)
        assert coeffs.mu == LS_POLY.mu_poly[0]
        assert coeffs.nu == LS_POLY.nu_poly[0]

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            MarcumPolyCoeffs(mu_poly=(1.0, 2.0), nu_poly=(1.0,))


class TestExpApprox:
    PAPER = MarcumApproxCoeffs(mu=2.4246, nu=-3.3042)

    def test_unity_at_b_zero(self):
        assert marcum_q1_exp_approx(SQRT6, 0.0, self.PAPER) == 1.0

    def test_tracks_marcum_near_its_anchor(self):
        b99 = marcum_q1_inverse_b(SQRT6, 0.99)
        approx = marcum_q1_exp_approx(SQRT6, b99, self.PAPER)
        assert abs(approx - 0.99) <= 0.01

    def test_strictly_decreasing(self):
        vals = [
            marcum_q1_exp_approx(SQRT6, float(b), self.PAPER)
            for b in np.linspace(0.1, 3.0, 30)
        ]
        assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))

    def test_mu_must_be_positive(self):
        with pytest.raises(DomainError):
            MarcumApproxCoeffs(mu=-1.0, nu=0.0)


class TestCalibration:
    def test_collocation_exact_at_anchors(self):
        for a, p_lo, p_hi in [(SQRT6, 0.99, 0.9999999), (2.0, 0.3, 0.7)]:
            coeffs = calibrate_marcum_coeffs(a, p_lo, p_hi)
            for p in (p_lo, p_hi):
                b = marcum_q1_inverse_b(a, p)
                assert marcum_q1_exp_approx(a, b, coeffs) == pytest.approx(p, abs=1e-8)

    def test_matches_independent_linear_solve(self):
        p_lo, p_hi = 0.99, 0.9999999
        # a = 2 is the THz default sqrt(2K), where b* near p = 1 is hardest
        for a in (SQRT6, 2.0):
            coeffs = calibrate_marcum_coeffs(a, p_lo, p_hi)
            # independent oracle: solve the 2x2 system in log-log space directly
            b = [marcum_bisection_oracle(a, p) for p in (p_lo, p_hi)]
            mat = np.array([[math.log(b[0]), 1.0], [math.log(b[1]), 1.0]])
            rhs = np.array([math.log(-math.log(p_lo)), math.log(-math.log(p_hi))])
            mu, nu = np.linalg.solve(mat, rhs)
            assert coeffs.mu == pytest.approx(mu, rel=1e-6)
            assert coeffs.nu == pytest.approx(nu, rel=1e-6)

    def test_reproduces_published_optimum(self):
        # anchors found empirically: the published (2.4246, -3.3042) line
        # crosses the true curve at these two reliabilities
        coeffs = calibrate_marcum_coeffs(SQRT6, 0.9712430961, 0.9901500468)
        assert coeffs.mu == pytest.approx(2.4246, abs=5e-4)
        assert coeffs.nu == pytest.approx(-3.3042, abs=5e-4)

    def test_near_tangent_limit_matches_finite_differences(self):
        a, p = 2.0, 0.9
        coeffs = calibrate_marcum_coeffs(a, p, p + 1e-6)
        b = marcum_q1_inverse_b(a, p)
        h = 1e-5
        num = math.log(-math.log(marcum_q1(a, b * (1 + h)))) - math.log(
            -math.log(marcum_q1(a, b * (1 - h)))
        )
        slope = num / (math.log(b * (1 + h)) - math.log(b * (1 - h)))
        assert coeffs.mu == pytest.approx(slope, rel=2e-3)

    def test_degenerate_anchors_rejected(self):
        with pytest.raises(DomainError):
            calibrate_marcum_coeffs(1.0, 0.9, 0.9)
        with pytest.raises((CalibrationError, DomainError)):
            calibrate_marcum_coeffs(1.0, 0.7, 0.5)


class TestLambertW:
    def test_fixed_points(self):
        assert lambert_w0(0.0) == 0.0
        assert lambert_w0(math.e) == pytest.approx(1.0, abs=1e-14)

    def test_one(self):
        # fixed-point oracle w <- w - (w e^w - 1)/(e^w (1 + w))
        w = 0.5
        for _ in range(80):
            w = w - (w * math.exp(w) - 1.0) / (math.exp(w) * (1.0 + w))
        assert lambert_w0(1.0) == pytest.approx(w, abs=1e-12)
        assert lambert_w0(1.0) == pytest.approx(0.5671433, abs=1e-7)

    def test_branch_point(self):
        assert lambert_w0(-math.exp(-1.0)) == pytest.approx(-1.0, abs=1e-6)

    @given(st.floats(min_value=-math.exp(-1.0) + 1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_residual_property(self, x):
        w = lambert_w0(x)
        assert abs(w * math.exp(w) - x) <= 1e-12 * max(1.0, abs(x))

    def test_domain(self):
        with pytest.raises(DomainError):
            lambert_w0(-0.5)
