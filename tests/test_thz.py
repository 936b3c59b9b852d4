import io
import math

import numpy as np
import pytest
from scipy.stats import ncx2

from metarel import thz
from metarel._rng import derive_rng
from metarel.errors import (
    AccuracyError,
    ConfigurationError,
    DomainError,
    IngestError,
    ScenarioError,
)
from metarel.mdcore import MdQuery
from metarel.specfun import calibrate_marcum_coeffs, marcum_q1, marcum_q1_inverse_b
from metarel.stochgeom import sample_rician_power

TABLE_MONO = thz.synthetic_monotone_table(335e9, 380e9, 0.8, 3.0)
TABLE_VALLEY = thz.synthetic_valley_table(335e9, 380e9, 0.30, 0.04, 0.42, f_min=352e9)
COEFFS99 = thz.default_marcum_coeffs(2.0)
# the valley and bandwidth-sweep tables of the benchmark's thz-sweep workload
TABLE_BENCH_VALLEY = thz.synthetic_valley_table(335e9, 380e9, 2.2, 0.15, 2.8, n=31)
TABLE_BENCH_SWEEP = thz.synthetic_valley_table(
    325e9, 380e9, 2.2, 0.15, 2.8, f_min=348e9, n=31
)
FIG6_PARAMS = thz.ThzParams(m_shape=1, q_override=1.0, c1_override=0.01 / 375e9**2)
COEFFS_FIG6 = calibrate_marcum_coeffs(2.0, 0.3, 0.7)
# k(f) falls linearly over 340-360 GHz, so g(.; r) rises, falls and rises
# again near r = 9.5 m: three threshold crossings, or a hump that starts
# below the threshold when the band ends at 360 GHz
TABLE_HUMP = thz.AbsorptionTable(
    frequency_hz=np.array([335e9, 340e9, 360e9, 375e9, 380e9]),
    k_per_m=np.array([0.0145, 0.012, 0.0, 0.05, 0.06]),
)


def flat_table(k: float, f_lo=300e9, f_hi=400e9) -> thz.AbsorptionTable:
    return thz.AbsorptionTable(
        frequency_hz=np.array([f_lo, f_hi]), k_per_m=np.array([k, k])
    )


class TestAbsorptionTable:
    def test_linear_midpoint(self):
        t = thz.AbsorptionTable(
            frequency_hz=np.array([1.0, 2.0]), k_per_m=np.array([0.0, 2.0])
        )
        assert t.k_at(1.5) == pytest.approx(1.0, rel=1e-12)

    def test_exact_at_samples(self):
        assert TABLE_VALLEY.k_at(float(TABLE_VALLEY.frequency_hz[7])) == pytest.approx(
            float(TABLE_VALLEY.k_per_m[7]), rel=1e-15
        )

    def test_csv_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "valley.csv"
        TABLE_VALLEY.save_csv(path)
        loaded = thz.load_absorption_table(path)
        assert np.array_equal(loaded.frequency_hz, TABLE_VALLEY.frequency_hz)
        assert np.array_equal(loaded.k_per_m, TABLE_VALLEY.k_per_m)

    def test_rejects_bad_tables(self):
        with pytest.raises(IngestError):
            thz.AbsorptionTable(
                frequency_hz=np.array([2.0, 1.0]), k_per_m=np.array([0.0, 0.0])
            )
        with pytest.raises(IngestError):
            thz.AbsorptionTable(
                frequency_hz=np.array([1.0, 1.0]), k_per_m=np.array([0.0, 0.0])
            )
        with pytest.raises(IngestError):
            thz.AbsorptionTable(
                frequency_hz=np.array([1.0, 2.0]), k_per_m=np.array([-0.1, 0.0])
            )

    def test_rejects_bad_csv(self):
        with pytest.raises(IngestError):
            thz.load_absorption_table(io.StringIO("wrong,header\n1,2\n"))
        with pytest.raises(IngestError):
            thz.load_absorption_table(
                io.StringIO("frequency_hz,k_per_m\n1,zero\n")
            )

    def test_out_of_range_query(self):
        with pytest.raises(DomainError):
            TABLE_MONO.k_at(1e9)

    def test_shape_predicates(self):
        assert TABLE_MONO.is_monotone_nondecreasing(340e9, 375e9)
        assert TABLE_MONO.is_valley(340e9, 375e9)
        assert not TABLE_VALLEY.is_monotone_nondecreasing(340e9, 375e9)
        assert TABLE_VALLEY.is_valley(340e9, 375e9)


class TestSnr:
    def test_inverse_square_in_distance(self):
        t = flat_table(0.0)
        prm = thz.ThzParams()
        assert thz.thz_snr(1.0, 350e9, 20.0, prm, t) == pytest.approx(
            thz.thz_snr(1.0, 350e9, 10.0, prm, t) / 4.0, rel=1e-12
        )

    def test_inverse_square_in_frequency(self):
        t = flat_table(0.0, 100e9, 800e9)
        prm = thz.ThzParams(f_low_hz=150e9, f_high_hz=700e9)
        assert thz.thz_snr(1.0, 700e9, 10.0, prm, t) == pytest.approx(
            thz.thz_snr(1.0, 350e9, 10.0, prm, t) / 4.0, rel=1e-12
        )

    def test_reference_arithmetic(self):
        # independent regrouping of the link budget
        prm = thz.ThzParams()
        f, r = 350e9, 10.0
        k = TABLE_MONO.k_at(f)
        want = (
            prm.tx_power_w
            * prm.tx_gain
            * prm.rx_gain
            * (thz.SPEED_OF_LIGHT / (4.0 * math.pi * f * r)) ** 2
            * math.exp(-k * r)
            / (prm.noise_density_w_per_hz * prm.bandwidth_hz)
        )
        assert thz.thz_snr(1.0, f, r, prm, TABLE_MONO) == pytest.approx(
            want, rel=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            thz.thz_snr(1.0, 350e9, 0.0, thz.ThzParams(), TABLE_MONO)


class TestP1:
    def test_unity_at_origin(self):
        assert thz.p1_thz(350e9, 0.0, thz.ThzParams(), TABLE_MONO) == 1.0

    def test_array_input_is_one_at_origin(self):
        prm = thz.ThzParams()
        f = np.array([340e9, 350e9, 360e9])
        r = np.array([0.0, 5.0, 12.0])
        got = thz.p1_thz(f, r, prm, TABLE_MONO)
        assert got[0] == 1.0
        assert got.tolist() == [thz.p1_thz(float(a), float(b), prm, TABLE_MONO)
                                for a, b in zip(f, r)]

    def test_monotone_in_distance(self):
        prm = thz.ThzParams()
        vals = [thz.p1_thz(350e9, r, prm, TABLE_MONO) for r in np.linspace(0.0, 30, 16)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_matches_rician_simulation(self):
        prm = thz.ThzParams()
        f, r = 350e9, 12.0
        want = thz.p1_thz(f, r, prm, TABLE_MONO)
        assert 0.05 < want < 0.999
        draws = sample_rician_power(prm.rician_k, derive_rng(40), size=200_000)
        snrs = thz.thz_snr(draws, f, r, prm, TABLE_MONO)
        got = float(np.mean(snrs > prm.qos()))
        sigma = math.sqrt(want * (1.0 - want) / draws.size)
        assert abs(got - want) <= max(3.0 * sigma, 1e-3)


class TestCarrierDistribution:
    def test_uniform_density(self):
        prm = thz.ThzParams(m_shape=0)
        width = prm.f_high_hz - prm.f_low_hz
        assert thz.carrier_pdf(350e9, prm) == pytest.approx(1.0 / width, rel=1e-12)

    def test_m1_midpoint(self):
        prm = thz.ThzParams(m_shape=1)
        width = prm.f_high_hz - prm.f_low_hz
        mid = 0.5 * (prm.f_low_hz + prm.f_high_hz)
        assert thz.carrier_pdf(mid, prm) == pytest.approx(1.5 / width, rel=1e-12)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 7, 60])
    def test_normalization_and_cdf_limits(self, m):
        prm = thz.ThzParams(m_shape=m)
        fs = np.linspace(prm.f_low_hz, prm.f_high_hz, 40001)
        mass = float(np.trapezoid(thz.carrier_pdf(fs, prm), fs))
        assert mass == pytest.approx(1.0, abs=1e-6 if m >= 30 else 1e-9)
        assert thz.carrier_cdf(prm.f_low_hz, prm) == 0.0
        assert thz.carrier_cdf(prm.f_high_hz, prm) == 1.0

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 5, 8])
    def test_cdf_matches_quadrature(self, m):
        prm = thz.ThzParams(m_shape=m)
        fs = np.linspace(prm.f_low_hz, prm.f_high_hz, 200_001)
        pdf = thz.carrier_pdf(fs, prm)
        cums = np.concatenate(
            ([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(fs)))
        )
        for idx in (0, 50_000, 100_000, 150_000, 200_000):
            assert thz.carrier_cdf(float(fs[idx]), prm) == pytest.approx(
                float(cums[idx]), abs=1e-8
            )

    def test_inverse_round_trip(self):
        for m in (0, 2, 9, 30):
            prm = thz.ThzParams(m_shape=m)
            for p in (0.05, 0.3, 0.5, 0.9):
                f0 = thz.carrier_cdf_inverse(p, prm)
                assert thz.carrier_cdf(f0, prm) == pytest.approx(p, abs=1e-9)

    @pytest.mark.parametrize("m", [0, 1, 2, 9])
    def test_inverse_lands_on_band_edges(self, m):
        prm = thz.ThzParams(m_shape=m)
        assert thz.carrier_cdf_inverse(0.0, prm) == prm.f_low_hz
        assert thz.carrier_cdf_inverse(1.0, prm) == prm.f_high_hz

    def test_sampler_matches_cdf(self):
        prm = thz.ThzParams(m_shape=2)
        draws = np.sort(thz.sample_carrier(derive_rng(41), prm, 100_000))
        theo = thz.carrier_cdf(draws, prm)
        emp = np.arange(1, draws.size + 1) / draws.size
        assert float(np.max(np.abs(emp - theo))) < 0.01

    def test_integer_shape_enforced(self):
        with pytest.raises(DomainError):
            thz.ThzParams(m_shape=1.5)
        with pytest.raises(DomainError):
            thz.ThzParams(m_shape=-1)


class TestDerivedConstants:
    def test_p1_tilde_vanishes_toward_one(self):
        prm = thz.ThzParams()
        vals = [
            thz.p1_tilde(p1, prm, COEFFS99) for p1 in (0.9, 0.99, 0.9999, 0.9999999)
        ]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < vals[0] * 1e-2

    def test_threshold_consistency_identity(self):
        # if f*r*sqrt(e^{kr}) equals p1_tilde then the approximate Marcum
        # value at that operating point is exactly p1
        from metarel.specfun import marcum_q1_exp_approx

        prm = thz.ThzParams()
        p1 = 0.97
        p1t = thz.p1_tilde(p1, prm, COEFFS99)
        b = thz._c2(prm) * p1t
        a = math.sqrt(2.0 * prm.rician_k)
        assert marcum_q1_exp_approx(a, b, COEFFS99) == pytest.approx(p1, abs=1e-9)

    def test_exact_path_close_at_anchor(self):
        # the default coefficients collocate at 0.99, so the approximate and
        # exact thresholds agree there to well under 2%
        prm = thz.ThzParams()
        a = math.sqrt(2.0 * prm.rician_k)
        b_exact = marcum_q1_inverse_b(a, 0.99)
        b_approx = thz._c2(prm) * thz.p1_tilde(0.99, prm, COEFFS99)
        assert abs(b_approx - b_exact) / b_exact < 0.02

    def test_constants_positive(self):
        prm = thz.ThzParams()
        assert prm.c1() > 0 and prm.qos() > 0 and thz._c2(prm) > 0
        assert thz.p1_tilde(0.99, prm, thz.default_marcum_coeffs(prm.rician_k)) > 0

    @pytest.mark.parametrize(
        "override",
        [{"c1_override": math.inf}, {"q_override": math.inf}, {"q_override": 1e-300}],
        ids=["c1-inf", "q-inf", "q-underflow"],
    )
    @pytest.mark.parametrize("scenario", [1, 2])
    def test_degenerate_composites_raise_domain_error(self, override, scenario):
        # q = 1e-300 underflows c2 to 0, which must not reach a division
        prm = thz.ThzParams(**override)
        with pytest.raises(DomainError):
            if scenario == 1:
                thz.r2_scenario1(0.99, 0.5, prm, TABLE_MONO, approx=COEFFS99)
            else:
                thz.r2_scenario2(0.99, 0.5, prm, TABLE_VALLEY, approx=COEFFS99)


class TestScenario1:
    # a monotone-k band is also a valley, on which g(.; r) increases, so
    # the roots engine finds at most one root
    def test_no_root_when_event_everywhere_false(self):
        prm = thz.ThzParams()
        p1t_tiny = thz.attenuation_metric(prm.f_low_hz, 5.0, TABLE_MONO) * 0.5
        assert thz.roots_scenario2(5.0, p1t_tiny, prm, TABLE_MONO) == ()

    def test_constant_k_closed_form_root(self):
        k = 0.35
        t = flat_table(k)
        prm = thz.ThzParams(f_low_hz=310e9, f_high_hz=390e9)
        r = 9.0
        f_root = 350e9
        p1t = f_root * r * math.exp(0.5 * k * r)
        (got,) = thz.roots_scenario2(r, p1t, prm, t)
        assert got == pytest.approx(f_root, rel=1e-6)

    def test_root_residual(self):
        prm = thz.ThzParams()
        r = 12.0
        p1t = thz.attenuation_metric(357e9, r, TABLE_MONO)
        (root,) = thz.roots_scenario2(r, p1t, prm, TABLE_MONO)
        resid = abs(thz.attenuation_metric(root, r, TABLE_MONO) - p1t) / p1t
        assert resid < 1e-8

    def test_scenario_error_on_valley(self):
        with pytest.raises(ScenarioError, match="monotone"):
            thz.r2_scenario1(0.99, 0.5, thz.ThzParams(), TABLE_VALLEY, approx=COEFFS99)

    def test_uniform_carrier_quantile_is_linear(self):
        prm = thz.ThzParams(m_shape=0)
        for p2 in (0.2, 0.5, 0.8):
            f0 = thz.carrier_cdf_inverse(p2, prm)
            want = prm.f_low_hz + p2 * (prm.f_high_hz - prm.f_low_hz)
            assert f0 == want

    def test_lambert_step_identity(self):
        prm = thz.ThzParams()
        p1, p2 = 0.99, 0.4
        p1t = thz.p1_tilde(p1, prm, COEFFS99)
        f0 = thz.carrier_cdf_inverse(p2, prm)
        k0 = TABLE_MONO.k_at(f0)
        from metarel.specfun import lambert_w0

        arg = 0.5 * k0 * p1t / f0
        w = lambert_w0(arg)
        assert w * math.exp(w) == pytest.approx(arg, rel=1e-10)
        r0 = 2.0 * w / k0
        # the closed form is exactly the nearest-distance cdf at r0
        got = thz.r2_scenario1(p1, p2, prm, TABLE_MONO, approx=COEFFS99)
        direct = -math.expm1(-prm.intensity * math.pi * r0 * r0)
        lambert_form = -math.expm1(-4.0 * prm.intensity * math.pi / k0**2 * w * w)
        assert got == pytest.approx(direct, abs=1e-15)
        assert got == pytest.approx(lambert_form, abs=1e-12)


class TestScenario2:
    def test_zero_roots_both_polarities(self):
        prm = thz.ThzParams()
        r = 8.0
        g_lo = thz.attenuation_metric(prm.f_low_hz, r, TABLE_VALLEY)
        g_hi = thz.attenuation_metric(prm.f_high_hz, r, TABLE_VALLEY)
        above = max(g_lo, g_hi) * 2.0
        below = min(
            float(
                np.min(
                    thz.attenuation_metric(
                        np.linspace(prm.f_low_hz, prm.f_high_hz, 2001), r, TABLE_VALLEY
                    )
                )
            )
            * 0.5,
            g_lo,
        )
        assert thz.roots_scenario2(r, above, prm, TABLE_VALLEY) == ()
        assert thz.p2_scenario2(r, above, prm, TABLE_VALLEY) == 1.0
        assert thz.roots_scenario2(r, below * 0.5, prm, TABLE_VALLEY) == ()
        assert thz.p2_scenario2(r, below * 0.5, prm, TABLE_VALLEY) == 0.0

    def test_two_roots_cutting_the_valley(self):
        prm = thz.ThzParams()
        r = 25.0
        fs = np.linspace(prm.f_low_hz, prm.f_high_hz, 40001)
        g = thz.attenuation_metric(fs, r, TABLE_VALLEY)
        p1t = math.sqrt(float(np.min(g)) * float(g[0]))  # between min and edge
        roots = thz.roots_scenario2(r, p1t, prm, TABLE_VALLEY)
        assert len(roots) == 2
        # dense-grid sign-scan oracle
        signs = np.sign(g - p1t)
        flips = np.flatnonzero(np.diff(signs) != 0)
        assert len(flips) == 2
        for root, flip in zip(roots, flips):
            assert abs(root - fs[flip]) <= 2 * (fs[1] - fs[0])
            resid = abs(thz.attenuation_metric(root, r, TABLE_VALLEY) - p1t) / p1t
            assert resid < 1e-8

    def test_window_probability_matches_carrier_mc(self):
        prm = thz.ThzParams(m_shape=0)
        r = 25.0
        fs = np.linspace(prm.f_low_hz, prm.f_high_hz, 2001)
        g = thz.attenuation_metric(fs, r, TABLE_VALLEY)
        p1t = math.sqrt(float(np.min(g)) * float(g[0]))
        want = thz.p2_scenario2(r, p1t, prm, TABLE_VALLEY)
        draws = thz.sample_carrier(derive_rng(42), prm, 200_000)
        got = float(np.mean(thz.attenuation_metric(draws, r, TABLE_VALLEY) < p1t))
        sigma = math.sqrt(max(want * (1.0 - want), 1e-9) / draws.size)
        assert abs(got - want) <= max(3.0 * sigma, 1e-3)

    def test_radial_engine_saturates_at_small_p2(self):
        prm = thz.ThzParams()
        coeffs = calibrate_marcum_coeffs(2.0, 0.3, 0.7)
        r_low = thz.r2_scenario2(0.5, 0.001, prm, TABLE_VALLEY, approx=coeffs)
        # with p2 -> 0 the indicator saturates out to the largest radius where
        # any carrier still meets the threshold
        p1t = thz.p1_tilde(0.5, prm, coeffs)

        def any_carrier_ok(r):
            return thz.p2_scenario2(r, p1t, prm, TABLE_VALLEY) > 0.0

        lo, hi = 1.0, 500.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if any_carrier_ok(mid):
                lo = mid
            else:
                hi = mid
        want = -math.expm1(-prm.intensity * math.pi * lo * lo)
        assert r_low == pytest.approx(want, abs=2e-3)

    def test_dr_validation(self):
        with pytest.raises(DomainError):
            thz.r2_scenario2(0.9, 0.5, thz.ThzParams(), TABLE_VALLEY, dr=-1.0)
        with pytest.raises(DomainError):
            thz.r2_scenario2(0.9, 1.5, thz.ThzParams(), TABLE_VALLEY)

    # Values of the scalar engine (one Python bisection per radius and
    # root) that the array engine replaced, on the tables above.
    @pytest.mark.parametrize(
        "params, table, coeffs, p1, p2, want",
        [
            (FIG6_PARAMS, TABLE_VALLEY, COEFFS_FIG6, 0.5, 0.3, 0.2584638772050173),
            (FIG6_PARAMS, TABLE_VALLEY, COEFFS_FIG6, 0.5, 0.7, 0.19617620234201294),
            (FIG6_PARAMS, TABLE_VALLEY, COEFFS_FIG6, 0.7, 0.5, 0.16310472459822334),
            (thz.ThzParams(), TABLE_VALLEY, COEFFS99, 0.99, 0.7, 0.999997910296114),
            (thz.ThzParams(), TABLE_MONO, COEFFS99, 0.99, 0.3, 0.30371100284875063),
            (thz.ThzParams(), TABLE_MONO, COEFFS99, 0.99, 0.7, 0.15576500613326627),
            (thz.ThzParams(), TABLE_BENCH_VALLEY, COEFFS99, 0.99, 0.4, 0.9230764465760837),
            (thz.ThzParams(), TABLE_BENCH_VALLEY, COEFFS99, 0.9, 0.7, 0.6196684427591136),
            (thz.ThzParams(f_low_hz=330e9, f_high_hz=340e9), TABLE_BENCH_SWEEP,
             COEFFS99, 0.99, 0.5, 0.5271228335671299),
            (thz.ThzParams(f_low_hz=330e9, f_high_hz=340e9), TABLE_BENCH_SWEEP,
             COEFFS99, 0.9, 0.3, 0.8119418080058176),
            (thz.ThzParams(f_low_hz=330e9, f_high_hz=355e9), TABLE_BENCH_SWEEP,
             COEFFS99, 0.99, 0.5, 0.9870224274560455),
            (thz.ThzParams(f_low_hz=330e9, f_high_hz=355e9), TABLE_BENCH_SWEEP,
             COEFFS99, 0.9, 0.3, 0.9999905077074689),
        ],
    )
    def test_radial_engine_recorded_values(self, params, table, coeffs, p1, p2, want):
        got = thz.r2_scenario2(p1, p2, params, table, approx=coeffs)
        assert got == pytest.approx(want, abs=1e-12)

    def test_array_core_matches_scalar_wrappers(self):
        prm = thz.ThzParams(m_shape=1)
        knots, slopes = thz._valley_band(prm, TABLE_VALLEY)
        radii = np.concatenate(([0.0], np.linspace(0.5, 80.0, 40)))
        g = thz.attenuation_metric(
            np.linspace(prm.f_low_hz, prm.f_high_hz, 2001), 25.0, TABLE_VALLEY
        )
        for p1t in (math.sqrt(float(np.min(g)) * float(g[0])), float(g[-1])):
            roots, count, _ = thz._crossings(radii, p1t, TABLE_VALLEY, knots, slopes)
            assert set(count.tolist()) == {0, 1, 2}
            p2 = thz._p2_radii(radii, p1t, prm, TABLE_VALLEY, knots, slopes)
            for i, r in enumerate(radii.tolist()):
                assert p2[i] == thz.p2_scenario2(r, p1t, prm, TABLE_VALLEY)
                assert tuple(roots[i, : count[i]].tolist()) == thz.roots_scenario2(
                    r, p1t, prm, TABLE_VALLEY
                )

    def test_non_valley_table_is_a_scenario_error(self):
        w_shape = thz.AbsorptionTable(
            frequency_hz=np.array([335e9, 350e9, 360e9, 380e9]),
            k_per_m=np.array([0.1, 0.3, 0.1, 0.3]),
        )
        prm = thz.ThzParams()
        for call in (
            lambda: thz.r2_scenario2(0.99, 0.5, prm, w_shape, approx=COEFFS99),
            lambda: thz.roots_scenario2(5.0, 1e12, prm, w_shape),
            lambda: thz.p2_scenario2(5.0, 1e12, prm, w_shape),
        ):
            with pytest.raises(ScenarioError, match="not valley-shaped"):
                call()

    def test_crossing_count_guards(self):
        k = thz.ThzParams().rician_k
        base = (-math.log(0.5) / math.exp(COEFFS99.nu)) ** (1.0 / COEFFS99.mu)
        # (target, band top, radius, error): three crossings, then a hump
        # that starts below the threshold at the lower band edge
        for p1t, f_high, r, match in (
            (3.4203e12, 375e9, 9.5, "3 threshold crossings"),
            (3.4579e12, 360e9, 9.6, "event true at the band edge"),
        ):
            # c1 chosen so that p1 = 0.5 maps onto the target p1_tilde
            prm = thz.ThzParams(
                q_override=1.0,
                c1_override=(base / p1t) ** 2 / (2.0 * (k + 1.0)),
                f_high_hz=f_high,
            )
            assert thz.p1_tilde(0.5, prm, COEFFS99) == pytest.approx(p1t, rel=1e-12)
            with pytest.raises(ScenarioError, match=match):
                thz.p2_scenario2(r, p1t, prm, TABLE_HUMP)
            with pytest.raises(ScenarioError, match=match):
                thz.r2_scenario2(0.5, 0.5, prm, TABLE_HUMP, approx=COEFFS99)
        assert len(thz.roots_scenario2(9.6, 3.4579e12, prm, TABLE_HUMP)) == 2

    def test_coarse_step_is_an_accuracy_error(self):
        # the tail cut-off falls just past r*, so a coarse grid whose last
        # point lies before r* misses the flip that the halved grid finds
        with pytest.raises(AccuracyError):
            thz.r2_scenario2(
                0.99, 0.4, thz.ThzParams(), TABLE_BENCH_VALLEY,
                dr=5.0, approx=COEFFS99, tail_mass=0.074,
            )

    def test_refinement_is_step_insensitive(self):
        prm = thz.ThzParams()
        a = thz.r2_scenario2(0.99, 0.4, prm, TABLE_VALLEY, approx=COEFFS99)
        b = thz.r2_scenario2(0.99, 0.4, prm, TABLE_VALLEY, dr=2.0, approx=COEFFS99)
        assert a == pytest.approx(b, abs=1e-3)


class TestThzMonteCarlo:
    def test_exact_and_sampled_inner_agree(self):
        prm = thz.ThzParams(m_shape=1)
        a = thz.run_thz_mc_grid(
            prm, TABLE_VALLEY, (0.5,), (0.5,), (400, 80, 400), seed=43
        )
        b = thz.run_thz_mc_grid(
            prm,
            TABLE_VALLEY,
            (0.5,),
            (0.5,),
            (400, 80, 400),
            seed=44,
            exact_inner=True,
        )
        sigma = math.hypot(float(a.stderr[0, 0]), float(b.stderr[0, 0]))
        assert abs(float(a.values[0, 0]) - float(b.values[0, 0])) <= 3.0 * max(
            sigma, 0.02
        )

    def test_nested_engine_agrees_with_grid(self):
        prm = thz.ThzParams(m_shape=1)
        q = prm.qos()
        est = thz.run_thz_mc(
            prm, TABLE_VALLEY, MdQuery(q=q, p=(0.5, 0.5), trials=(300, 60, 300)), seed=45
        )
        grid = thz.run_thz_mc_grid(
            prm, TABLE_VALLEY, (0.5,), (0.5,), (300, 60, 300), seed=46
        )
        sigma = math.hypot(est.stderr, float(grid.stderr[0, 0]))
        assert abs(est.value - float(grid.values[0, 0])) <= 3.0 * max(sigma, 0.025)

    def test_exact_hook_matches_marcum_quadrature(self):
        # 2 (K + 1) h is noncentral chi-square with 2 degrees of freedom and
        # noncentrality 2K, so P(h g > q) = ncx2.sf(2 (K + 1) q / g, 2, 2K)
        prm = thz.ThzParams(m_shape=1)
        exact = thz.thz_layered_model(prm, TABLE_VALLEY, exact_inner=True).exact
        r = np.array([10.0, 45.0, 55.0, 60.0])
        p1 = exact(np.random.default_rng(48), (r,), (4, 5))
        f = thz.sample_carrier(np.random.default_rng(48), prm, (4, 5))
        k = prm.rician_k
        gain = np.exp(-TABLE_VALLEY.k_at(f) * r[:, None]) / (
            prm.c1() * np.square(f * r[:, None])
        )
        want = ncx2.sf(2.0 * (k + 1.0) * prm.qos() / gain, 2, 2.0 * k)
        assert p1.shape == (4, 5)
        assert np.all(np.abs(p1 - want) <= 1e-12)

    def test_vanishing_distance_saturates(self):
        prm = thz.ThzParams(intensity=1e9)  # nearest BS essentially on top
        est = thz.run_thz_mc(
            prm,
            TABLE_VALLEY,
            MdQuery(q=prm.qos(), p=(0.5, 0.5), trials=(20, 10, 50)),
            seed=47,
        )
        assert est.value == 1.0

    def test_band_coverage_enforced(self):
        small = flat_table(0.1, 345e9, 360e9)
        with pytest.raises(ConfigurationError):
            thz.run_thz_mc_grid(
                thz.ThzParams(), small, (0.5,), (0.5,), (10, 10, 10), seed=0
            )


class TestBandwidthSweep:
    def test_monotone_band_never_gains_from_width(self):
        prm = thz.ThzParams(f_low_hz=340e9, f_high_hz=375e9, m_shape=0)
        table = TABLE_MONO
        bw_grid = np.linspace(3e9, 30e9, 6)
        rows, best = thz.optimal_bandwidth_sweep(
            prm, table, 0.99, 0.5, bw_grid, approx=COEFFS99
        )
        vals = [r[1] for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
        assert best == rows[0][0]

    def test_narrow_band_limit_is_single_frequency(self):
        prm = thz.ThzParams(f_low_hz=340e9, f_high_hz=375e9, m_shape=0)
        rows, _ = thz.optimal_bandwidth_sweep(
            prm, TABLE_MONO, 0.99, 0.5, [5e7], approx=COEFFS99
        )
        p1t = thz.p1_tilde(
            0.99,
            thz.ThzParams(f_low_hz=340e9, f_high_hz=340e9 + 5e7, m_shape=0),
            COEFFS99,
        )
        lo, hi = 0.1, 400.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if thz.attenuation_metric(340e9, mid, TABLE_MONO) < p1t:
                lo = mid
            else:
                hi = mid
        want = -math.expm1(-prm.intensity * math.pi * lo * lo)
        assert rows[0][1] == pytest.approx(want, abs=2e-3)
