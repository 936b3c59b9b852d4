import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metarel.errors import ConfigurationError, DomainError
from metarel.mdcore import (
    LayeredModel,
    MdEstimate,
    MdQuery,
    nested_md_estimate,
    nested_md_grid,
    reduce_order,
    zeroth_order_reliability,
)


def coin_toy_model() -> LayeredModel:
    """Outer fair coin picks an inner success probability of 0.9 or 0.3."""

    def outer(rng, above, size):
        return np.where(rng.random(size) < 0.5, 0.9, 0.3)

    def inner(rng, above, size):
        return (rng.random(size) < above[0][:, None]).astype(float)

    return LayeredModel(layers=(inner, outer), qos=lambda s: s[-1])


def constant_model(value: float) -> LayeredModel:
    return LayeredModel(
        layers=(lambda rng, above, size: np.full(size, value), _nothing),
        qos=lambda s: s[-1],
    )


def _nothing(rng, above, size):
    """A layer without randomness."""
    return np.zeros(size)


def four_layer_model(w_prob: float) -> LayeredModel:
    """Outermost coin picks w = 0.9 with probability w_prob, else 0.1; each
    layer below picks 0.8 with its parent's value as probability, else 0.2;
    an inner draw succeeds with the layer-1 value as probability."""

    def outer(rng, above, size):
        return np.where(rng.random(size) < w_prob, 0.9, 0.1)

    def pick(rng, above, size):
        return np.where(rng.random(size) < above[-1][:, None], 0.8, 0.2)

    def inner(rng, above, size):
        return (rng.random(size) < above[-1][:, None]).astype(float)

    return LayeredModel(layers=(inner, pick, pick, outer), qos=lambda s: s[-1])


class TestValidation:
    def test_query_thresholds_strict(self):
        for p in (0.0, 1.0):
            with pytest.raises(DomainError):
                MdQuery(q=1.0, p=(p,), trials=(10, 10))

    def test_query_arity(self):
        with pytest.raises(ConfigurationError):
            MdQuery(q=1.0, p=(0.5,), trials=(10,))

    def test_trial_positivity(self):
        with pytest.raises(DomainError):
            MdQuery(q=1.0, p=(0.5,), trials=(0, 10))

    def test_layer_count_limits(self):
        with pytest.raises(ConfigurationError):
            LayeredModel(layers=(_nothing,), qos=lambda s: s[-1])
        with pytest.raises(ConfigurationError):
            LayeredModel(layers=(_nothing,) * 5, qos=lambda s: s[-1])
        with pytest.raises(ConfigurationError):
            LayeredModel(layers=(_nothing,) * 2)

    def test_model_query_mismatch(self):
        model = coin_toy_model()
        with pytest.raises(ConfigurationError):
            nested_md_estimate(model, MdQuery(q=0.5, p=(0.5, 0.5), trials=(5, 5, 5)), 0)


class TestZerothOrder:
    def test_constant_above_threshold(self):
        est = zeroth_order_reliability(constant_model(2.0), 1.0, 200, seed=1)
        assert est.value == 1.0

    def test_strict_inequality_at_boundary(self):
        est = zeroth_order_reliability(constant_model(2.0), 2.0, 200, seed=1)
        assert est.value == 0.0

    def test_coin_toy(self):
        est = zeroth_order_reliability(coin_toy_model(), 0.5, 20_000, seed=2)
        sigma = 0.5 / math.sqrt(20_000)
        assert abs(est.value - 0.6) <= 3.0 * max(sigma, est.stderr)


class TestNestedEstimate:
    def test_coin_toy_half(self):
        est = nested_md_estimate(
            coin_toy_model(), MdQuery(q=0.5, p=(0.5,), trials=(4000, 4000)), seed=3
        )
        assert abs(est.value - 0.5) <= 3.0 * 0.5 / math.sqrt(4000)

    def test_coin_toy_strict_target(self):
        est = nested_md_estimate(
            coin_toy_model(), MdQuery(q=0.5, p=(0.95,), trials=(4000, 4000)), seed=4
        )
        assert est.value <= 0.01

    def test_degenerate_middle_layer(self):
        # a pass-through middle layer must not change the estimate
        coin = coin_toy_model()
        model = LayeredModel(
            layers=(coin.layers[0], _nothing, coin.layers[1]), qos=coin.qos
        )
        est = nested_md_estimate(
            model, MdQuery(q=0.5, p=(0.5, 0.5), trials=(4000, 1, 4000)), seed=5
        )
        assert abs(est.value - 0.5) <= 3.0 * 0.5 / math.sqrt(4000)

    def test_all_layers_deterministic(self):
        model = LayeredModel(
            layers=(lambda rng, above, size: np.full(size, 2.0), _nothing, _nothing),
            qos=lambda s: s[-1],
        )
        est = nested_md_estimate(
            model, MdQuery(q=1.0, p=(0.5, 0.5), trials=(3, 3, 3)), seed=6
        )
        assert est.value == 1.0

    def test_three_level_enumeration(self):
        # outermost coin picks w in {0.9, 0.1}; middle Bernoulli(w) picks the
        # inner success probability from {0.8, 0.2}.  With p1 = 0.5 only the
        # 0.8 branch clears the inner target, so P2 = w; with p2 = 0.5 only
        # w = 0.9 clears the middle target: R = 0.5.
        four = four_layer_model(0.5)
        model = LayeredModel(layers=four.layers[:2] + four.layers[3:], qos=four.qos)
        est = nested_md_estimate(
            model, MdQuery(q=0.5, p=(0.5, 0.5), trials=(600, 400, 1500)), seed=7
        )
        assert abs(est.value - 0.5) <= 4.0 * 0.5 / math.sqrt(1500)

    def test_small_thresholds_saturate(self):
        est = nested_md_estimate(
            coin_toy_model(), MdQuery(q=0.5, p=(0.01,), trials=(500, 500)), seed=8
        )
        assert est.value == 1.0

    def test_deterministic_for_fixed_seed(self):
        q = MdQuery(q=0.5, p=(0.5,), trials=(300, 300))
        a = nested_md_estimate(coin_toy_model(), q, seed=9)
        b = nested_md_estimate(coin_toy_model(), q, seed=9)
        assert a == b

    def test_monotone_in_threshold_with_shared_seed(self):
        vals = [
            nested_md_estimate(
                coin_toy_model(), MdQuery(q=0.5, p=(p,), trials=(400, 400)), seed=10
            ).value
            for p in (0.2, 0.4, 0.6, 0.8)
        ]
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_four_level_enumeration(self):
        # as above one layer deeper: P1 > 0.5 only on the 0.8 branch, so
        # P2 = v and P3 = w; with p3 = 0.5 only w = 0.9 clears: R = 0.3
        est = nested_md_estimate(
            four_layer_model(0.3),
            MdQuery(q=0.5, p=(0.5, 0.5, 0.5), trials=(40, 30, 30, 1000)),
            seed=14,
        )
        assert abs(est.value - 0.3) <= 4.0 * 0.5 / math.sqrt(1000)

    def test_exact_hook_at_order_one(self):
        def exact(rng, above, size):
            # the outer coin is layer 1 here; its bias is the exact P1
            return np.where(rng.random(size) < 0.5, 0.9, 0.3)

        hooked = LayeredModel(layers=(_nothing, _nothing), exact=exact)
        est = nested_md_estimate(
            hooked, MdQuery(q=0.5, p=(0.5,), trials=(2000, 2000)), seed=11
        )
        assert abs(est.value - 0.5) <= 3.0 * 0.5 / math.sqrt(2000)

    def test_exact_hook_equivalent(self):
        coin = coin_toy_model()

        def exact(rng, above, size):
            # the middle layer is inert: the exact P1 is the outer coin bias
            return np.broadcast_to(above[0][:, None], size)

        hooked = LayeredModel(layers=(_nothing, _nothing, coin.layers[1]), exact=exact)
        # N1 = 50 draws the outer coin in blocks of 256 // 50 = 5, N1 = 300
        # one at a time; the law is the same
        for n1 in (50, 300):
            est = nested_md_estimate(
                hooked, MdQuery(q=0.5, p=(0.5, 0.5), trials=(500, n1, 2000)), seed=12
            )
            assert abs(est.value - 0.5) <= 3.0 * 0.5 / math.sqrt(2000)

    def test_stderr_bound(self):
        est = nested_md_estimate(
            coin_toy_model(), MdQuery(q=0.5, p=(0.5,), trials=(200, 150)), seed=13
        )
        assert est.stderr <= 0.5 / math.sqrt(150) + 1e-12


class TestGrid:
    @pytest.mark.parametrize(
        "model,grids,trials",
        [
            (coin_toy_model(), ((0.2, 0.5, 0.8),), (40, 300)),
            (four_layer_model(0.3), ((0.3, 0.7), (0.4, 0.6), (0.5, 0.9)), (8, 6, 5, 40)),
        ],
    )
    def test_cells_equal_single_point_estimates(self, model, grids, trials):
        values, stderr = nested_md_grid(model, 0.5, grids, trials, seed=15)
        assert values.shape == tuple(len(g) for g in grids)
        for cell in np.ndindex(values.shape):
            p = tuple(g[i] for g, i in zip(grids, cell))
            est = nested_md_estimate(model, MdQuery(q=0.5, p=p, trials=trials), seed=15)
            assert (est.value, est.stderr) == (values[cell], stderr[cell])

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            nested_md_grid(coin_toy_model(), 0.5, ((0.5, 1.0),), (5, 5), seed=0)
        with pytest.raises(DomainError):
            nested_md_grid(coin_toy_model(), 0.5, ((0.5,),), (0, 5), seed=0)
        with pytest.raises(ConfigurationError):
            nested_md_grid(coin_toy_model(), 0.5, ((0.5,), (0.5,)), (5, 5, 5), seed=0)


class TestReduceOrder:
    def test_constant_curve(self):
        assert reduce_order([(0.2, 0.7), (0.8, 0.7)]) == pytest.approx(0.7, rel=1e-12)

    def test_step_curve_integral(self):
        # R(p) = 1 for p < 0.3, 0.5 for 0.3 <= p < 0.9, 0 beyond: integral 0.6
        ps = np.linspace(0.0005, 0.9995, 1001)
        vals = np.where(ps < 0.3, 1.0, np.where(ps < 0.9, 0.5, 0.0))
        got = reduce_order(list(zip(ps, vals)))
        assert got == pytest.approx(0.6, abs=1e-3)

    def test_rejects_bad_grids(self):
        with pytest.raises(DomainError):
            reduce_order([(0.5, 1.0), (0.2, 1.0)])
        with pytest.raises(DomainError):
            reduce_order([(-0.1, 1.0), (0.5, 1.0)])
        with pytest.raises(DomainError):
            reduce_order([])

    @pytest.mark.parametrize(
        "curve",
        [
            [(0.2, math.nan), (0.8, 0.7)],
            [(0.2, 0.7), (0.8, math.inf)],
            [(math.nan, 0.7), (0.8, 0.7)],
        ],
        ids=["nan-value", "inf-value", "nan-threshold"],
    )
    def test_rejects_non_finite_entries(self, curve):
        with pytest.raises(DomainError, match="finite"):
            reduce_order(curve)

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=0.999), min_size=2, max_size=20
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_constant_curve_property(self, ps, c):
        grid = sorted(set(ps))
        if len(grid) < 2:
            return
        assert reduce_order([(p, c) for p in grid]) == pytest.approx(c, abs=1e-9)


class TestEstimateType:
    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            MdEstimate(value=1.2, stderr=0.0, trials=(1,), seed=0)
        with pytest.raises(DomainError):
            MdEstimate(value=0.5, stderr=-0.1, trials=(1,), seed=0)
