import math
import tracemalloc

import numpy as np
import pytest

from metarel import stochgeom
from metarel._rng import derive_rng
from metarel.errors import DomainError
from metarel.specfun import marcum_q1
from metarel.stochgeom import (
    PppConfig,
    sample_marks,
    sample_ordered_distances,
    sample_rician_power,
    thinned_ratio_sum_mc,
)

UNIT_CFG = PppConfig(intensity=1.0 / math.pi, n_points=8)  # lambda*pi = 1


def ks_distance(samples: np.ndarray, cdf) -> float:
    xs = np.sort(samples)
    n = xs.size
    theoretical = cdf(xs)
    upper = np.arange(1, n + 1) / n
    lower = np.arange(0, n) / n
    return float(np.max(np.maximum(upper - theoretical, theoretical - lower)))


class TestOrderedDistances:
    def test_first_squared_distance_is_unit_exponential(self):
        r1sq = sample_ordered_distances(UNIT_CFG, derive_rng(1), (100_000,))[:, 0] ** 2
        assert r1sq.mean() == pytest.approx(1.0, abs=0.02)

    def test_nearest_distance_ks(self):
        draws = sample_ordered_distances(UNIT_CFG, derive_rng(2), (100_000,))[:, 0]
        d = ks_distance(draws, lambda r: -np.expm1(-np.square(r)))  # lambda*pi = 1
        assert d < 0.01

    def test_ratio_square_has_mean_half(self):
        d = sample_ordered_distances(UNIT_CFG, derive_rng(3), (100_000,))
        vals = (d[:, 0] / d[:, 1]) ** 2
        assert vals.mean() == pytest.approx(0.5, abs=0.01)

    def test_strictly_ascending(self):
        rng = derive_rng(4)
        for _ in range(200):
            d = sample_ordered_distances(PppConfig(intensity=2e-3, n_points=64), rng)
            assert np.all(np.diff(d) > 0.0)

    def test_bit_exact_reproducibility(self):
        a = sample_ordered_distances(UNIT_CFG, derive_rng(9, 1, 2))
        b = sample_ordered_distances(UNIT_CFG, derive_rng(9, 1, 2))
        assert np.array_equal(a, b)

    def test_batch_equals_successive_calls(self):
        rng = derive_rng(9, 3)
        loop = np.array([sample_ordered_distances(UNIT_CFG, rng) for _ in range(12)])
        batch = sample_ordered_distances(UNIT_CFG, derive_rng(9, 3), (3, 4))
        assert batch.shape == (3, 4, UNIT_CFG.n_points)
        assert np.array_equal(batch.reshape(loop.shape), loop)

    def test_in_place_sampler_equals_plain_formula(self):
        cfg = PppConfig(intensity=2e-3, n_points=64)
        got = sample_ordered_distances(cfg, derive_rng(9, 4), (5, 3))
        gaps = derive_rng(9, 4).standard_exponential((5, 3, cfg.n_points))
        want = np.sqrt(np.cumsum(gaps / (cfg.intensity * math.pi), axis=-1))
        assert np.array_equal(got, want)


class TestPppConfig:
    @pytest.mark.parametrize("n_points", [0, 2.5, math.inf, math.nan])
    def test_n_points_must_be_a_finite_integer(self, n_points):
        with pytest.raises(DomainError, match="n_points must be an integer >= 1"):
            PppConfig(intensity=1e-3, n_points=n_points)

    def test_integral_float_is_stored_as_int(self):
        cfg = PppConfig(intensity=1e-3, n_points=3.0)
        assert type(cfg.n_points) is int and cfg.n_points == 3


class TestNearestDistanceCdf:
    def test_reference_value_and_empirical(self):
        # P(R_1 <= r) = 1 - exp(-lambda pi r^2)
        want = 1.0 - math.exp(-1.5e-3 * math.pi * 10.0**2)
        assert want == pytest.approx(0.3757, abs=5e-4)
        cfg = PppConfig(intensity=1.5e-3, n_points=1)
        draws = sample_ordered_distances(cfg, derive_rng(5), (200_000,))[:, 0]
        assert np.mean(draws <= 10.0) == pytest.approx(want, abs=0.005)


class TestMarks:
    def test_all_mode_full_zeta(self):
        marks = sample_marks(16, 1.0, "all", derive_rng(6))
        assert marks[0] == 0
        assert np.all(marks[1:] == 1)

    def test_single_mode_full_zeta(self):
        marks = sample_marks(16, 1.0, "single_interferer", derive_rng(6))
        assert marks[1] == 1
        assert marks.sum() == 1

    def test_first_interferer_index_is_geometric(self):
        rng = derive_rng(7)
        zeta = 0.2
        hits = 0
        trials = 100_000
        for _ in range(trials):
            marks = sample_marks(32, zeta, "single_interferer", rng)
            nz = np.flatnonzero(marks)
            if nz.size and nz[0] == 1:
                hits += 1
        assert hits / trials == pytest.approx(zeta, abs=0.01)

    def test_domain(self):
        rng = derive_rng(8)
        with pytest.raises(DomainError):
            sample_marks(1, 0.5, "all", rng)
        with pytest.raises(DomainError):
            sample_marks(8, 0.0, "all", rng)
        with pytest.raises(DomainError):
            sample_marks(8, 0.5, "bogus", rng)


class TestRayleigh:
    # Rayleigh power is the K = 0 Rician power, Exp(1)

    def test_unit_mean(self):
        draws = sample_rician_power(0.0, derive_rng(10), size=1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.005)

    def test_tail_probability(self):
        draws = sample_rician_power(0.0, derive_rng(11), size=1_000_000)
        assert np.mean(draws > 1.0) == pytest.approx(math.exp(-1.0), abs=0.005)

    def test_ratio_law(self):
        rng = derive_rng(12)
        h1 = sample_rician_power(0.0, rng, size=100_000)
        h2 = sample_rician_power(0.0, rng, size=100_000)
        d = ks_distance(h1 / h2, lambda x: x / (1.0 + x))
        assert d < 0.01


class TestRician:
    def test_k_zero_is_exponential(self):
        draws = sample_rician_power(0.0, derive_rng(13), size=100_000)
        d = ks_distance(draws, lambda x: 1.0 - np.exp(-x))
        assert d < 0.01

    def test_unit_mean(self):
        draws = sample_rician_power(2.0, derive_rng(14), size=1_000_000)
        assert draws.mean() == pytest.approx(1.0, abs=0.005)

    def test_ccdf_matches_marcum(self):
        K = 2.0
        draws = sample_rician_power(K, derive_rng(15), size=200_000)
        for h0 in (0.3, 0.7, 1.2):
            want = marcum_q1(math.sqrt(2.0 * K), math.sqrt(2.0 * (K + 1.0) * h0))
            got = float(np.mean(draws > h0))
            sigma = math.sqrt(want * (1.0 - want) / draws.size)
            assert abs(got - want) <= max(3.0 * sigma, 1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_rician_power(-0.1, derive_rng(16))


class TestThinnedRatioSum:
    def test_matches_closed_form_single_combo(self):
        est, se = thinned_ratio_sum_mc(3.5, 0.5, 200, 30_000, seed=17)
        target = (1.0 + (2.0 / 3.5) * 0.5) / (1.0 - 2.0 / 3.5)
        assert abs(est - target) / target < 0.03

    def test_tail_correction_removes_truncation_bias(self):
        # at alpha = 3 the raw sums over the first 5, 20 and 400 thinned
        # points fall 569, 148 and 21 standard errors below the target 5;
        # with the Campbell tail term every truncation lands on it
        for n_thinned in (5, 20, 400):
            est, se = thinned_ratio_sum_mc(3.0, 1.0, n_thinned, 30_000, seed=18)
            assert abs(est - 5.0) <= 0.5 * se, n_thinned

    def test_chunked_draws_bound_memory(self):
        # one call at 1e5 realizations; a single chunk of all 2e7 gaps
        # would peak near 611 MB, and an array per step of the 1e6-gap
        # chunks near 31 MB; one buffer per chunk peaks near 15 MB
        tracemalloc.start()
        try:
            thinned_ratio_sum_mc(3.5, 0.5, 200, 100_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    @pytest.mark.parametrize(
        "args, kwargs, want",
        [
            ((3.5, 0.5, 200, 20_000), {"seed": 5}, (3.0118325522165583, 0.011912725589676211)),
            ((3.0, 0.2, 200, 20_000), {"seed": 5}, (3.4153439222651274, 0.015463861912636883)),
            ((4.0, 1.0, 7, 12_345), {"seed": 3}, (3.014308279664871, 0.014761375550598407)),
            ((2.5, 0.3, 3000, 700), {"seed": 11}, (6.5282811081104555, 0.17017664526791282)),
        ],
        ids=["multi-chunk", "sparse-zeta", "square-power", "ragged-last-chunk"],
    )
    def test_seeded_output_is_pinned(self, args, kwargs, want):
        # bit for bit: in-place arithmetic must leave every seeded value as
        # the plain array expressions give it
        assert thinned_ratio_sum_mc(*args, **kwargs) == want

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_realizations": 0},
            {"n_thinned": 0},
            {"alpha": math.nan},
            {"alpha": 2.0},
            {"zeta": 0.0},
        ],
        ids=["no-realizations", "no-points", "nan-alpha", "alpha-two", "zero-zeta"],
    )
    def test_domain(self, kwargs):
        args = {"alpha": 3.5, "zeta": 0.5, "n_thinned": 20, "n_realizations": 100}
        with pytest.raises(DomainError):
            thinned_ratio_sum_mc(**(args | kwargs))

    @pytest.mark.parametrize("name", ["n_thinned", "n_realizations"])
    @pytest.mark.parametrize("value", [2.5, math.inf, math.nan, "20"])
    def test_counts_must_be_finite_integers(self, monkeypatch, name, value):
        # the check comes before the first draw: the sampling loop, which an
        # infinite count would never leave, is not reached
        def no_draws(*args):
            raise AssertionError("the sampling loop was entered")

        monkeypatch.setattr(stochgeom, "derive_rng", no_draws)
        args = {"alpha": 3.5, "zeta": 0.5, "n_thinned": 20, "n_realizations": 100}
        with pytest.raises(DomainError, match=f"{name} must be an integer >= 1"):
            thinned_ratio_sum_mc(**(args | {name: value}))

    def test_integral_float_counts_match_ints(self):
        want = thinned_ratio_sum_mc(3.5, 0.5, 20, 100, seed=4)
        assert thinned_ratio_sum_mc(3.5, 0.5, 20.0, 100.0, seed=4) == want

    def test_thinning_theorem_consistency(self):
        # marks-based thinning agrees with the direct thinned sampler:
        # given R1, the squared distance gap to the first marked point is
        # Exp(zeta * lambda * pi)
        rng = derive_rng(19)
        zeta = 0.5
        cfg = PppConfig(intensity=1.0 / math.pi, n_points=64)
        gaps = []
        for _ in range(50_000):
            d = sample_ordered_distances(cfg, rng)
            marks = sample_marks(cfg.n_points, zeta, "all", rng)
            nz = np.flatnonzero(marks)
            if nz.size:
                gaps.append(d[nz[0]] ** 2 - d[0] ** 2)
        d = ks_distance(np.array(gaps), lambda x: 1.0 - np.exp(-zeta * x))
        assert d < 0.01
