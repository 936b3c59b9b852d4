"""The acceptance suite of ``metarel validate``, run once at its default seed."""

import math

import numpy as np
import pytest

from metarel import acceptance
from metarel import canonical as can
from metarel import thz

K4_III = (
    "K4(iii): criterion 1 compares the MC estimate at N1 = 200 with the "
    "N1 -> infinity closed form; the check, not the program, is at fault"
)


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext(acceptance.DEFAULT_SEED)


@pytest.fixture(scope="module")
def results(ctx):
    return {cid: fn(ctx) for cid, fn in acceptance.ALL_CRITERIA}


@pytest.mark.parametrize(
    "cid",
    [
        pytest.param(cid, marks=pytest.mark.xfail(strict=True, reason=K4_III)) if cid == 1
        else cid
        for cid, _ in acceptance.ALL_CRITERIA
    ],
)
def test_criterion_passes(results, cid):
    result = results[cid]
    assert result.passed, result.report()


def test_flipped_multi_interferer_factor_fails_criterion_5(results, ctx, monkeypatch):
    # E^(-1/alpha) in place of E^(1/alpha) lowers the effective threshold, so
    # the approximation rises above the single-interferer form and the MC;
    # the MC grids were drawn by the unpatched suite and are reused
    def flipped(alpha, zeta):
        return can.interference_ratio_expectation(alpha, zeta) ** (-1.0 / alpha)

    assert results[5].passed
    monkeypatch.setattr(can, "_multi_p1hat_factor", flipped)
    result = acceptance.criterion_5(ctx)
    assert not result.passed
    (ordering,) = [line for line in result.lines if line.label.startswith("multi <= single")]
    assert not ordering.passed, ordering.detail


def test_weakened_thinning_law_fails_criterion_2(results, ctx, monkeypatch):
    # (1 + 0.7 delta zeta)/(1 - delta) in place of (1 + delta zeta)/(1 - delta);
    # the nearest cell (alpha = 4, zeta = 0.2) is only 2.7 % low, 5.2 standard
    # errors at 1e4 realizations
    def weakened(alpha, zeta):
        delta = 2.0 / alpha
        return (1.0 + 0.7 * delta * zeta) / (1.0 - delta)

    assert results[2].passed
    monkeypatch.setattr(can, "interference_ratio_expectation", weakened)
    result = acceptance.criterion_2(ctx)
    assert not any(line.passed for line in result.lines), result.report()


def test_scenario1_oracle_shares_p2_of_r_across_p2(ctx):
    # the grouped oracle against one indicator matmul per cell and radius
    # chunk; the sums must agree bit for bit
    coeffs = thz.default_marcum_coeffs(2.0)
    cells = [
        (thz.ThzParams(m_shape=m), p1, p2)
        for m in acceptance.S1_M for p1 in acceptance.S1_P1 for p2 in acceptance.S1_P2
    ]
    n_r, n_f = 4500, 300
    lam_pi = cells[0][0].intensity * math.pi
    lo, hi = cells[0][0].band()
    fs = lo + (np.arange(n_f) + 0.5) * (hi - lo) / n_f
    kf = ctx.monotone_table.k_at(fs)
    dr = math.sqrt(-math.log(1e-10) / lam_pi) / n_r
    rs = (np.arange(n_r) + 0.5) * dr
    want = [0.0] * len(cells)
    for start in range(0, n_r, 2000):
        rc = rs[start : start + 2000][:, None]
        metric = fs[None, :] * rc * np.exp(0.5 * kf[None, :] * rc)
        dens = 2.0 * lam_pi * rs[start : start + 2000] * np.exp(
            -lam_pi * np.square(rs[start : start + 2000])
        )
        for c, (params, p1, p2) in enumerate(cells):
            weights = thz.carrier_pdf(fs, params) * (hi - lo) / n_f
            p2_of_r = (metric < thz.p1_tilde(p1, params, coeffs)) @ weights
            want[c] += float(np.sum((p2_of_r > p2) * dens * dr))
    got = acceptance._scenario1_quadrature_oracle(cells, ctx.monotone_table, coeffs, n_r, n_f)
    assert len({(params, p1) for params, p1, _ in cells}) < len(cells)
    assert got == want
