import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom

from metarel import canonical as can
from metarel._rng import derive_rng
from metarel.errors import ConfigurationError, DomainError, SearchError
from metarel.mdcore import MdQuery, reduce_order
from metarel.stochgeom import PppConfig, sample_ordered_distances


def unit_params(zeta, mode="single_interferer", q=1.0, **kw):
    return can.CanonicalParams(
        intensity=1.0 / math.pi, alpha=3.5, zeta=zeta, q=q, mode=mode, **kw
    )


class TestQosThreshold:
    def test_unit_exponent(self):
        assert can.qos_threshold(1e4, 1e4, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        assert can.qos_threshold(256, 1e7, 1e-3) == pytest.approx(0.017903, abs=1e-6)

    def test_vanishes_with_bandwidth(self):
        qs = [can.qos_threshold(256, w, 1e-3) for w in (1e7, 1e8, 1e9, 1e12)]
        assert all(b < a for a, b in zip(qs, qs[1:]))
        assert qs[-1] < 1e-4

    def test_domain(self):
        with pytest.raises(DomainError):
            can.qos_threshold(0.0, 1e7, 1e-3)

    # 2^1e5 - 1 overflows expm1; an infinite exponent gives q = inf
    @pytest.mark.parametrize("l_bits, w", [(1000.0, 1e3), (1.0, 1e-300)])
    def test_overflow_is_a_domain_error(self, l_bits, w):
        with pytest.raises(DomainError, match="overflows"):
            can.qos_threshold(l_bits, w, 1e-300 if w < 1.0 else 1e-5)


class TestP1Hat:
    def test_ratio_one(self):
        assert can.p1_hat(0.5, 1.0, 3.0) == pytest.approx(1.0, rel=1e-12)

    def test_reference_value(self):
        assert can.p1_hat(0.9, 1.0, 3.5) == pytest.approx(1.8735, abs=5e-4)

    def test_divergence_toward_one(self):
        assert can.p1_hat(1.0 - 1e-12, 1.0, 3.5) > 1e3

    def test_domain(self):
        for p1 in (0.0, 1.0):
            with pytest.raises(DomainError):
                can.p1_hat(p1, 1.0, 3.5)


class TestSir:
    def test_symmetric_interferer(self):
        # one equidistant interferer: P(h0 > q h1) = 1 / (1 + q)
        d = np.array([1.0, 1.0 + 1e-12])
        success = can.conditional_link_success(d, np.array([0, 1]), 1.0, 3.5)
        assert success == pytest.approx(0.5, rel=1e-9)

    def test_no_interferer_is_infinite(self):
        # no active mark: the SIR is infinite and meets any finite threshold
        d = np.array([1.0, 2.0])
        assert can.conditional_link_success(d, np.array([0, 0]), 1e300, 3.5) == 1.0

    def test_empirical_success_matches_product_form(self):
        # fixed realization: the fading-averaged success probability is
        # prod_i (1 + q (R1/Ri)^alpha)^-1
        rng = derive_rng(21)
        cfg = PppConfig(intensity=1.0 / math.pi, n_points=40)
        d = sample_ordered_distances(cfg, rng)
        marks = np.zeros(40, dtype=np.int8)
        marks[1:] = 1
        q, alpha, n = 1.0, 3.5, 100_000
        hits = 0
        h = rng.standard_exponential((n, 40))
        w = d ** (-alpha)
        sirs = h[:, 0] * w[0] / (h[:, 1:] @ w[1:])
        hits = int(np.count_nonzero(sirs > q))
        want = can.conditional_link_success(d, marks, q, alpha)
        sigma = math.sqrt(want * (1.0 - want) / n)
        assert abs(hits / n - want) <= 3.0 * sigma


class TestSingleInterfererClosedForm:
    def test_saturated_branch(self):
        for p2, zeta in ((0.1, 0.3), (0.9, 1.0)):
            assert can.r2_single_interferer(0.5, p2, 1.0, 3.5, zeta) == 1.0

    def test_full_zeta_reference(self):
        want = 1.0 / can.p1_hat(0.9, 1.0, 3.5) ** 2
        got = can.r2_single_interferer(0.9, 0.5, 1.0, 3.5, 1.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.2849, abs=5e-4)

    def test_sparse_interferer_reference(self):
        got = can.r2_single_interferer(0.9, 0.5, 1.0, 3.5, 0.2)
        assert got == pytest.approx(0.7385, abs=5e-4)

    def test_full_zeta_independent_of_p2(self):
        vals = {
            can.r2_single_interferer(0.8, p2, 1.0, 3.5, 1.0)
            for p2 in np.linspace(0.01, 0.99, 17)
        }
        assert len(vals) == 1

    @given(
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.01, max_value=0.99),
        st.floats(min_value=0.05, max_value=8.0),
        st.floats(min_value=2.1, max_value=6.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounds_and_ordering(self, p1, p2, q, alpha, zeta):
        single = can.r2_single_interferer(p1, p2, q, alpha, zeta)
        multi = can.r2_multi_interferer(p1, p2, q, alpha, zeta)
        assert 0.0 <= multi <= single <= 1.0


class TestSuccessTerms:
    @pytest.mark.parametrize("zeta", [0.2, 0.5, 1.0])
    @pytest.mark.parametrize("p2", [0.3, 0.5, 0.8])
    def test_strict_count_matches_exact_arithmetic(self, zeta, p2):
        # the n >= 0 with (1 - zeta)^n > p2 in exact decimal arithmetic; the
        # atoms (0.5, 0.5) and (0.2, 0.8) are excluded by the strict '>'
        base, target = 1 - Fraction(str(zeta)), Fraction(str(p2))
        want = next(n for n in itertools.count() if not base**n > target)
        assert can._success_terms(p2, zeta) == want
        x = 1.0 / can.p1_hat(0.8, 1.0, 3.5) ** 2
        closed = can.r2_single_interferer(0.8, p2, 1.0, 3.5, zeta)
        assert closed == pytest.approx(1.0 - (1.0 - x) ** want, rel=1e-13)

    @pytest.mark.parametrize(
        "zeta,p2", [(0.3, 0.7), (0.3, 0.49), (0.1, 0.729), (0.6, 0.16), (0.3, 0.2401)]
    )
    def test_ratio_just_above_an_integer_is_the_atom(self, zeta, p2):
        # (1 - zeta)^n == p2 exactly, but ln p2 / ln(1 - zeta) rounds to a
        # few ulp above n, where a plain ceil would count the atom
        base, target = 1 - Fraction(str(zeta)), Fraction(str(p2))
        want = next(n for n in itertools.count() if not base**n > target)
        assert base**want == target
        assert can._success_terms(p2, zeta) == want

    @pytest.mark.parametrize("p1", [0.8, 0.9])
    def test_single_term_is_bit_exact(self, p1):
        want = 1.0 / can.p1_hat(p1, 1.0, 3.5) ** 2
        for p2 in np.linspace(0.01, 0.99, 25):
            assert can.r2_single_interferer(p1, p2, 1.0, 3.5, 1.0) == want


class TestInterferenceRatio:
    def test_full_zeta(self):
        assert can.interference_ratio_expectation(4.0, 1.0) == pytest.approx(
            3.0, abs=1e-14
        )

    def test_vanishing_zeta(self):
        assert can.interference_ratio_expectation(4.0, 1e-13) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_reference_value(self):
        assert can.interference_ratio_expectation(3.5, 0.5) == pytest.approx(
            3.0, rel=1e-12
        )


@pytest.mark.parametrize(
    "call, match",
    [
        (lambda: can.zeroth_order_reliability_closed(-1.0, 3.5, 0.5), "q must"),
        (lambda: can.zeroth_order_reliability_closed(math.nan, 3.5, 0.5), "q must"),
        (lambda: can.zeroth_order_reliability_closed(1.0, 3.5, 0.0), "zeta must"),
        (lambda: can.zeroth_order_reliability_closed(1.0, 3.5, 1.5), "zeta must"),
        (lambda: can.first_order_reliability(0.8, 1.0, 3.5, 0.0), "zeta must"),
        (lambda: can.first_order_reliability(0.8, 1.0, 3.5, math.nan), "zeta must"),
        (lambda: can.r2_single_interferer(0.8, 0.5, 1.0, math.nan, 0.5), "alpha must"),
        (lambda: can.interference_ratio_expectation(math.nan, 0.5), "alpha must"),
    ],
    ids=[
        "zeroth-negative-q",
        "zeroth-nan-q",
        "zeroth-zero-zeta",
        "zeroth-zeta-above-one",
        "first-zero-zeta",
        "first-nan-zeta",
        "r2-single-nan-alpha",
        "ratio-expectation-nan-alpha",
    ],
)
def test_closed_form_domain_errors(call, match):
    with pytest.raises(DomainError, match=match):
        call()


class TestMultiInterfererClosedForm:
    def test_saturated_branch(self):
        # inflated threshold <= 1 iff phat <= ((1-d)/(1+d*zeta))^(d/2)
        delta = 2.0 / 3.5
        bound = ((1.0 - delta) / (1.0 + delta)) ** (delta / 2.0)
        p1 = 0.3  # phat(0.3, q=1) = (3/7)^(2/7) ~ 0.785 < bound? pick q small
        q = 0.05
        phat = can.p1_hat(p1, q, 3.5)
        assert phat <= bound
        assert can.r2_multi_interferer(p1, 0.5, q, 3.5, 1.0) == 1.0

    def test_full_zeta_reference(self):
        got = can.r2_multi_interferer(0.9, 0.5, 1.0, 3.5, 1.0)
        assert got == pytest.approx(0.1356, abs=5e-4)
        phat_eff = can.p1_hat(0.9, 1.0, 3.5) * can._multi_p1hat_factor(3.5, 1.0)
        assert phat_eff == pytest.approx(2.716, abs=2e-3)

    def test_published_operating_point(self):
        # q for 256 bits in 1 ms at 10 MHz, p1 = 0.999: single ~ 0.2, multi ~ 0.09
        q = can.qos_threshold(256, 1e7, 1e-3)
        single = can.r2_single_interferer(0.999, 0.5, q, 3.5, 1.0)
        multi = can.r2_multi_interferer(0.999, 0.5, q, 3.5, 1.0)
        assert single == pytest.approx(0.2, abs=0.01)
        assert multi == pytest.approx(0.09, abs=0.005)


class TestNprimePmf:
    def test_zero_term(self):
        phat = 1.8735
        assert can.nprime_pmf(0, phat) == pytest.approx(1.0 / phat**2, rel=1e-12)

    def test_normalization(self):
        phat = 1.37
        total = sum(can.nprime_pmf(n, phat) for n in range(2000))
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_against_annulus_counting(self):
        # count non-serving points inside phat * R1 across PPP realizations
        rng = derive_rng(22)
        phat = 1.8735
        n_real, n_pts = 100_000, 64
        gaps = rng.standard_exponential((n_real, n_pts))
        rsq = np.cumsum(gaps, axis=1)
        counts = (rsq[:, 1:] <= phat**2 * rsq[:, :1]).sum(axis=1)
        for n in range(5):
            want = can.nprime_pmf(n, phat)
            got = float(np.mean(counts == n))
            sigma = math.sqrt(want * (1.0 - want) / n_real)
            assert abs(got - want) <= 3.0 * sigma

    def test_domain(self):
        with pytest.raises(DomainError):
            can.nprime_pmf(0, 1.0)
        with pytest.raises(DomainError):
            can.nprime_pmf(-1, 2.0)


class TestFirstOrderClosedForm:
    def test_full_zeta_equals_second_order(self):
        for p1 in (0.7, 0.9):
            assert can.first_order_reliability(p1, 1.0, 3.5, 1.0) == pytest.approx(
                can.r2_single_interferer(p1, 0.5, 1.0, 3.5, 1.0), rel=1e-12
            )

    def test_is_p2_integral_of_second_order(self):
        p1, q, alpha, zeta = 0.85, 1.0, 3.5, 0.35
        ps = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        vals = [can.r2_single_interferer(p1, p, q, alpha, zeta) for p in ps]
        integral = reduce_order(list(zip(ps, vals)))
        want = can.first_order_reliability(p1, q, alpha, zeta)
        assert integral == pytest.approx(want, abs=1e-3)

    def test_zeroth_order_is_p1_integral(self):
        q, alpha, zeta = 0.8, 3.5, 0.6
        ps = np.linspace(1e-4, 1.0 - 1e-4, 20001)
        vals = [can.first_order_reliability(p, q, alpha, zeta) for p in ps]
        integral = reduce_order(list(zip(ps, vals)))
        want = can.zeroth_order_reliability_closed(q, alpha, zeta)
        assert integral == pytest.approx(want, abs=1e-3)


def r0_reference(q, alpha, zeta, mode):
    """P(SIR > q) by composite Simpson over w = -ln(c (1 - p1) / (p1 q)).

    Above p1_break = c / (q + c) the first-order law is x / (zeta + (1 - zeta) x)
    with x = e^(-delta w); dp1 becomes the logistic density of w around ln(q/c),
    so a uniform w grid resolves every q alike.  c = (1 - delta) / (1 + delta zeta)
    in multi-interferer mode and 1 in single-interferer mode.
    """
    delta = 2.0 / alpha
    c = (1.0 - delta) / (1.0 + delta * zeta) if mode == "multi_interferer" else 1.0
    k = q / c
    w = np.linspace(0.0, max(math.log(k), 0.0) + 60.0, 2 * 20_000 + 1)
    x = np.exp(-delta * w)
    g = x / (zeta + (1.0 - zeta) * x) * k * np.exp(-w) / (1.0 + k * np.exp(-w)) ** 2
    weights = np.ones_like(w)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    return c / (q + c) + (w[1] - w[0]) / 3.0 * float(weights @ g)


class TestZerothOrderQuadrature:
    def test_grid_raises_no_warning_and_is_monotone(self):
        # q from 1e-3 to 1e12, where R falls to about 1e-7
        qs = np.logspace(-3, 12, 61)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mode, zeta in itertools.product(can.MODES, (0.2, 0.5, 1.0)):
                vals = [can.zeroth_order_reliability_closed(q, 3.5, zeta, mode) for q in qs]
                assert 0.0 < vals[-1] and vals[0] <= 1.0
                assert all(b < a for a, b in zip(vals, vals[1:])), (mode, zeta)

    @pytest.mark.parametrize("mode", can.MODES)
    @pytest.mark.parametrize(
        "q, zeta", [(1e8, 1.0), (1.8e9, 0.5), (3.2e9, 0.5), (3.2e10, 0.2), (1e12, 1.0), (1.0, 0.5)]
    )
    def test_matches_the_reference(self, q, zeta, mode):
        # a quadrature over p1 read 4.94082e-5 at (1e8, zeta = 1) against 4.93848e-5
        got = can.zeroth_order_reliability_closed(q, 3.5, zeta, mode)
        assert got == pytest.approx(r0_reference(q, 3.5, zeta, mode), rel=1e-8)

    @pytest.mark.parametrize("q", [1e-300, 1e-16, 1e-13])
    def test_vanishing_q_reads_one(self, q):
        # p1_break rounds to within an ulp of 1; no node may reach p1 = 1
        for mode in can.MODES:
            got = can.zeroth_order_reliability_closed(q, 3.5, 0.5, mode)
            assert 1.0 - 3.0 * q - 1e-15 <= got <= 1.0


class TestMonteCarlo:
    def test_nested_sampled_matches_closed_form(self):
        est = can.run_canonical_mc(
            unit_params(1.0),
            MdQuery(q=1.0, p=(0.8, 0.5), trials=(500, 50, 500)),
            seed=23,
        )
        want = can.r2_single_interferer(0.8, 0.5, 1.0, 3.5, 1.0)
        assert abs(est.value - want) <= 3.0 * max(est.stderr, 0.025)

    def test_sampled_and_binomial_inner_agree(self):
        query = MdQuery(q=1.0, p=(0.8, 0.45), trials=(400, 60, 400))
        a = can.run_canonical_mc(unit_params(0.5), query, seed=24, inner="sampled")
        b = can.run_canonical_mc(
            unit_params(0.5), query, seed=25, inner="exact_binomial"
        )
        sigma = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3.0 * max(sigma, 0.02)

    def test_multi_mode_sampled_and_binomial_agree(self):
        query = MdQuery(q=1.0, p=(0.7, 0.45), trials=(240, 60, 240))
        prm = unit_params(0.5, mode="multi_interferer", n_points=50)
        a = can.run_canonical_mc(prm, query, seed=26, inner="sampled")
        b = can.run_canonical_mc(prm, query, seed=27, inner="exact_binomial")
        sigma = math.hypot(a.stderr, b.stderr)
        assert abs(a.value - b.value) <= 3.0 * max(sigma, 0.025)

    def test_grid_runner_matches_nested_engine(self):
        grid = can.run_canonical_mc_grid(
            unit_params(0.5), 1.0, (0.8,), (0.45,), (400, 60, 400), seed=28
        )
        est = can.run_canonical_mc(
            unit_params(0.5),
            MdQuery(q=1.0, p=(0.8, 0.45), trials=(400, 60, 400)),
            seed=29,
            inner="exact_binomial",
        )
        sigma = math.hypot(float(grid.stderr[0, 0]), est.stderr)
        assert abs(float(grid.values[0, 0]) - est.value) <= 3.0 * max(sigma, 0.02)

    @pytest.mark.parametrize(
        "mode, zeta",
        [pytest.param(mode, 0.1, id=mode) for mode in can.MODES]
        + [pytest.param(mode, 1.0, id=f"{mode}-full_zeta") for mode in can.MODES],
    )
    def test_exact_hook_matches_per_row_product_form(self, mode, zeta):
        # the row-batched hook against the product form, one mark row at a time
        prm = unit_params(zeta, mode=mode, n_points=20)
        exact = can.canonical_layered_model(prm, 1.0, inner="exact_binomial").exact
        sample_marks = can.canonical_layered_model(prm, 1.0).layers[1]
        cfg = PppConfig(intensity=prm.intensity, n_points=prm.n_points)
        d = sample_ordered_distances(cfg, derive_rng(33), (6,))
        p1 = exact(derive_rng(34), (d,), (6, 40))
        marks = sample_marks(derive_rng(34), (d,), (6, 40))
        assert p1.shape == (6, 40)
        if mode == "single_interferer" and zeta < 1.0:
            # both an interferer inside the window and none occur
            assert (marks < prm.n_points).any() and (marks >= prm.n_points).any()
        if zeta == 1.0:
            assert np.all(marks == 1)
        for i, j in np.ndindex(p1.shape):
            active = np.zeros(prm.n_points, dtype=bool)
            if mode == "single_interferer":
                if marks[i, j] < prm.n_points:
                    active[marks[i, j]] = True
            else:
                active[1:] = marks[i, j]
            want = can.conditional_link_success(d[i], active, 1.0, prm.alpha)
            assert p1[i, j] == pytest.approx(want, rel=1e-12)

    def test_multi_mode_full_zeta_draws_no_marks(self):
        prm = unit_params(1.0, mode="multi_interferer", n_points=20)
        sample_marks = can.canonical_layered_model(prm, 1.0).layers[1]
        rng = derive_rng(35)
        before = rng.bit_generator.state
        marks = sample_marks(rng, (), (3, 4))
        assert rng.bit_generator.state == before
        assert marks.shape == (3, 4, prm.n_points - 1) and np.all(marks == 1.0)

    def test_blocks_of_one_outer_draw_are_pinned(self):
        # N1 * N0 = 10000 sampled inner rows per outer draw make blocks of one
        # draw on the stream (seed, 2, i); recorded before outer draws were
        # blocked
        est = can.run_canonical_mc(
            unit_params(0.5),
            MdQuery(q=1.0, p=(0.8, 0.3), trials=(200, 50, 200)),
            seed=20260809,
        )
        assert (repr(est.value), repr(est.stderr)) == ("0.745", "0.030820042180373472")

    def test_multi_mode_blocks_of_one_outer_draw_are_pinned(self):
        # N1 * N0 = 2000 sampled inner rows per outer draw; recorded while
        # the fading state was the (signal, interference) power pair
        est = can.run_canonical_mc(
            unit_params(0.5, mode="multi_interferer", n_points=50),
            MdQuery(q=1.0, p=(0.8, 0.3), trials=(100, 20, 100)),
            seed=20260809,
        )
        assert (repr(est.value), repr(est.stderr)) == ("0.45", "0.049749371855331")

    @pytest.mark.parametrize("mode", can.MODES)
    def test_sampled_estimate_does_not_depend_on_the_intensity(self, mode):
        # the SIR reads distance ratios only; absolute powers R^-alpha would
        # underflow at 1e-200 (estimate 1) and overflow at 1e200 (estimate 0)
        query = MdQuery(q=1.0, p=(0.8, 0.3), trials=(100, 20, 100))

        def estimate(intensity):
            prm = can.CanonicalParams(
                intensity=intensity, alpha=3.5, zeta=0.5, q=1.0, mode=mode
            )
            return can.run_canonical_mc(prm, query, seed=3).value

        unit = estimate(1.0 / math.pi)
        assert 0.0 < unit < 1.0
        assert estimate(1e-200) == unit and estimate(1e200) == unit

    def test_query_arity_enforced(self):
        with pytest.raises(ConfigurationError):
            can.run_canonical_mc(
                unit_params(0.5), MdQuery(q=1.0, p=(0.5,), trials=(10, 10)), seed=0
            )

    def test_extreme_qos_degenerates_exactly(self):
        lo = can.first_order_md_mc_grid(
            unit_params(1.0, q=1e300), 1e300, (0.5,), (50, 200), seed=30
        )
        hi = can.first_order_md_mc_grid(
            unit_params(1.0, q=1e-300), 1e-300, (0.5,), (50, 200), seed=31
        )
        assert lo.values[0, 0] == 0.0
        assert hi.values[0, 0] == 1.0

    def test_tie_point_splits_the_atom(self):
        # at p2 = (1 - zeta)^1 the middle-layer estimate sits on an atom of
        # the conditional success probability: the estimator converges to the
        # strict-inequality value plus ~half the atom mass, not to either
        # closed-form convention.  The split factor is P(Bin(N1, p2) > N1 p2).
        zeta, p1, p2, q, alpha = 0.5, 0.8, 0.5, 1.0, 3.5
        n0, n1, n2 = 2000, 200, 2000
        grid = can.run_canonical_mc_grid(
            unit_params(zeta), q, (p1,), (p2,), (n0, n1, n2), seed=32
        )
        x = 1.0 / can.p1_hat(p1, q, alpha) ** 2
        split = float(binom.sf(n1 * p2, n1, p2))
        predicted = x + split * (1.0 - x) * x
        mc = float(grid.values[0, 0])
        tol = 3.0 * float(grid.stderr[0, 0]) + 0.01  # inner-layer blur slack
        assert abs(mc - predicted) <= tol


def per_row_sirs(distances, active, h, alpha):
    """SIRs h_1 / sum_i h_i (R_1/R_i)^alpha of one row at a time, reading the
    draws h as the inner sampler lays them out: column j < m is row j's
    serving fading, then one column per active point, row by row."""
    m = len(distances)
    sirs = np.empty((m, h.shape[0]))
    col = m
    for r in range(m):
        d = distances[r]
        interference = np.zeros(h.shape[0])
        for i in np.flatnonzero(active[r]):
            interference = interference + h[:, col] * (d[0] / d[i]) ** alpha
            col += 1
        for j in range(h.shape[0]):
            sirs[r, j] = h[j, r] / interference[j] if interference[j] > 0.0 else math.inf
    assert col == h.shape[1]
    return sirs


class TestInnerSampler:
    N_POINTS = 6
    N0 = 7

    def distances(self, m):
        cfg = PppConfig(intensity=1.0 / math.pi, n_points=self.N_POINTS)
        d = sample_ordered_distances(cfg, derive_rng(60), (m,))
        d[-1] = [1.0, 1e200, 2e200, 3e200, 4e200, 5e200]  # (R_1/R_i)^alpha underflows to 0
        return d

    def check(self, mode, marks, active):
        prm = unit_params(0.5, mode=mode, n_points=self.N_POINTS)
        model = can.canonical_layered_model(prm, 1.0)
        d = self.distances(len(marks))
        size = (len(marks), self.N0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sirs = model.layers[0](derive_rng(61), (d, marks), size)
            assert model.qos((d, marks, sirs)) is sirs
            h = derive_rng(61).standard_exponential((self.N0, len(marks) + active.sum()))
            want = per_row_sirs(d, active, h, prm.alpha)
        assert sirs.shape == size
        # equal up to the rounding of a vectorized power, or of a sum taken
        # in another order
        np.testing.assert_allclose(sirs, want, rtol=1e-15)
        return sirs

    def test_single_mode_matches_a_per_row_loop(self):
        # offsets 6 and 9 lie past the n_points window: no interferer
        marks = np.array([1, 5, 6, 2, 9, 1])
        active = np.zeros((marks.size, self.N_POINTS), dtype=bool)
        for r, offset in enumerate(marks):
            if offset < self.N_POINTS:
                active[r, offset] = True
        sirs = self.check("single_interferer", marks, active)
        assert np.all(sirs[[2, 4, 5]] == math.inf)
        assert np.all(np.isfinite(sirs[[0, 1, 3]]))

    def test_multi_mode_matches_a_per_row_loop(self):
        marks = np.array(
            [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 1, 0, 0, 1], [1, 0, 0, 0, 0],
             [1, 1, 0, 1, 1]],
            dtype=float,
        )
        active = np.zeros((marks.shape[0], self.N_POINTS), dtype=bool)
        active[:, 1:] = marks == 1.0
        sirs = self.check("multi_interferer", marks, active)
        assert np.all(sirs[[1, 4]] == math.inf)
        assert np.all(np.isfinite(sirs[[0, 2, 3]]))
        # a block without any mark has nothing to sum
        sirs = self.check("multi_interferer", marks[1:2], active[1:2])
        assert np.all(sirs == math.inf)


def multi_mode_marks(zeta, seed, size=(10, 1000), n_points=201):
    """Multi-mode marks of one draw and the raw-stream bytes they were read from."""
    prm = unit_params(zeta, mode="multi_interferer", n_points=n_points)
    marks = can.canonical_layered_model(prm, 1.0).layers[1](derive_rng(seed), (), size)
    raw = derive_rng(seed).bit_generator.random_raw(-(-marks.size // 8))
    digits = raw.astype("<u8").view(np.uint8)[: marks.size].reshape(marks.shape)
    return marks, digits


class TestMultiModeMarks:
    def test_mask_is_float_zero_one_per_non_serving_point(self):
        marks, _ = multi_mode_marks(0.3, 40, size=(3, 7), n_points=20)
        assert marks.dtype == np.float64 and marks.shape == (3, 7, 19)
        assert set(np.unique(marks)) == {0.0, 1.0}

    @pytest.mark.parametrize("zeta", [0.2, 1.0 / 3.0, 0.5, 0.999])
    def test_mark_frequency_is_zeta(self, zeta):
        marks, _ = multi_mode_marks(zeta, 41)
        assert marks.size == 2_000_000
        sigma = math.sqrt(zeta * (1.0 - zeta) / marks.size)
        assert abs(marks.mean() - zeta) <= 4.0 * sigma

    @pytest.mark.parametrize("k", [1, 77, 128, 255])
    def test_multiple_of_one_256th_never_marks_a_tie(self, k):
        # zeta = k/256 puts the tie share 256 zeta - d at 0: the mark is b < k
        marks, digits = multi_mode_marks(k / 256.0, 42, size=(2, 1000))
        assert np.any(digits == k)
        np.testing.assert_array_equal(marks, digits < k)

    @pytest.mark.parametrize("zeta", [0.2, 1.0 / 3.0, 0.999, 0.001])
    def test_tie_share_is_the_fraction_of_256_zeta(self, zeta):
        marks, digits = multi_mode_marks(zeta, 43)
        d = math.floor(256.0 * zeta)
        tie = digits == d
        np.testing.assert_array_equal(marks[~tie], digits[~tie] < d)
        share = 256.0 * zeta - d
        sigma = math.sqrt(share * (1.0 - share) / tie.sum())
        assert abs(marks[tie].mean() - share) <= 4.0 * sigma


@pytest.mark.parametrize("q", [1e-300, 1e300])
def test_extreme_qos_params_accepted(q):
    unit_params(0.5, q=q)


# l, t_th and the model of the paper's bandwidth study, at zeta = 1
BANDWIDTH_MODEL = dict(l_bits=256.0, deadline_s=1e-3, alpha=3.5, zeta=1.0)


class TestRequiredBandwidth:
    def test_bracket_edge(self):
        def rel(w):
            return can.r2_single_interferer(
                0.999, 0.5, can.qos_threshold(256, w, 1e-3), 3.5, 1.0
            )

        target = rel(1e7) + 1e-6
        got = can.required_bandwidth(target, 2, 0.999, 0.5, 1e7, 1e10, **BANDWIDTH_MODEL)
        assert got == pytest.approx(1e7, rel=2e-3)

    def test_orders_one_and_two_coincide_at_full_zeta(self):
        for target in (0.3, 0.6, 0.9):
            w2 = can.required_bandwidth(target, 2, 0.999, 0.5, 1e6, 1e10, **BANDWIDTH_MODEL)
            w1 = can.required_bandwidth(target, 1, 0.999, 0.5, 1e6, 1e10, **BANDWIDTH_MODEL)
            assert w1 == pytest.approx(w2, rel=3e-3)

    def test_no_bracket_raises(self):
        with pytest.raises(SearchError):
            can.required_bandwidth(0.99, 2, 0.999, 0.5, 1e3, 2e3, **BANDWIDTH_MODEL)

    @pytest.mark.parametrize(
        "changes, match",
        [
            ({"l_bits": 0.0}, "l must"),
            ({"l_bits": -256.0}, "l must"),
            ({"l_bits": math.inf}, "l must"),
            ({"l_bits": math.nan}, "l must"),
            ({"deadline_s": 0.0}, "t_th must"),
            ({"deadline_s": math.inf}, "t_th must"),
            ({"deadline_s": math.nan}, "t_th must"),
            ({"alpha": 2.0}, "alpha must"),
            ({"zeta": 0.0}, "zeta must"),
            ({"zeta": 1.5}, "zeta must"),
            ({"mode": "two_interferers"}, "mode must"),
        ],
        ids=["l-zero", "l-negative", "l-inf", "l-nan", "tth-zero", "tth-inf", "tth-nan",
             "alpha-two", "zeta-zero", "zeta-above-one", "unknown-mode"],
    )
    def test_domain_is_checked_before_the_search(self, changes, match):
        # without the check a bad l reads as an overflowing q (R = 0) at
        # every W, and the search ends in a SearchError
        with pytest.raises(DomainError, match=match):
            can.required_bandwidth(
                0.5, 2, 0.9, 0.5, 1e3, 1e10, **{**BANDWIDTH_MODEL, **changes}
            )

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_overflowing_low_end_reads_zero(self, order):
        # q overflows at W = 1e3; the search reads R = 0 there and still
        # returns the smallest W within 0.1 % whose reliability reaches 0.5
        def rel(w):
            q = can.qos_threshold(1000.0, w, 1e-5)
            if order == 2:
                return can.r2_single_interferer(0.9, 0.5, q, 3.5, 0.5)
            if order == 1:
                return can.first_order_reliability(0.9, q, 3.5, 0.5)
            return can.zeroth_order_reliability_closed(q, 3.5, 0.5)

        w = can.required_bandwidth(
            0.5, order, 0.9, 0.5, 1e3, 1e10, l_bits=1000.0, deadline_s=1e-5, alpha=3.5,
            zeta=0.5,
        )
        assert rel(w) >= 0.5 > rel(w * (1.0 - 1e-3))

    def test_second_and_zeroth_order_curves_cross(self):
        diffs = []
        for w in np.logspace(7, 9, 17):
            q = can.qos_threshold(256, w, 1e-3)
            diffs.append(
                can.r2_single_interferer(0.999, 0.7, q, 3.5, 0.2)
                - can.zeroth_order_reliability_closed(q, 3.5, 0.2)
            )
        assert min(diffs) < 0.0 < max(diffs)


class TestParamsValidation:
    def test_alpha_bound(self):
        with pytest.raises(DomainError):
            can.CanonicalParams(intensity=1e-4, alpha=2.0, zeta=0.5, q=1.0)

    @pytest.mark.parametrize("q", [math.nan, math.inf])
    def test_non_finite_q(self, q):
        with pytest.raises(DomainError, match="q must be finite"):
            can.CanonicalParams(intensity=1e-4, alpha=3.5, zeta=0.5, q=q)

    @pytest.mark.parametrize("n_points", [1, 2.5, math.inf, math.nan])
    def test_n_points_must_be_a_finite_integer(self, n_points):
        with pytest.raises(DomainError, match="n_points must be an integer >= 2"):
            can.CanonicalParams(intensity=1e-4, alpha=3.5, zeta=0.5, q=1.0, n_points=n_points)
