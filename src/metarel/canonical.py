"""Canonical cellular model with slowly varying Bernoulli interferers.

The downlink SIR of the typical user of a homogeneous PPP is evaluated
under Rayleigh fading, with each non-serving base station interfering
with probability zeta (frozen between redraws, i.e. block ALOHA).  Every
MD closed form, in both scenarios, is a function of one success mass x
(:func:`_success_mass`).  The module also provides nested Monte Carlo
bindings, and the required-bandwidth search over q = 2^(l/(W t_th)) - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DomainError, SearchError, check_count
from .mdcore import LayeredModel, MdEstimate, MdQuery, nested_md_estimate, nested_md_grid
from .stochgeom import PppConfig, sample_ordered_distances

__all__ = [
    "CanonicalParams",
    "GridEstimate",
    "qos_threshold",
    "p1_hat",
    "conditional_link_success",
    "r2_single_interferer",
    "interference_ratio_expectation",
    "r2_multi_interferer",
    "nprime_pmf",
    "first_order_reliability",
    "zeroth_order_reliability_closed",
    "canonical_layered_model",
    "run_canonical_mc",
    "run_canonical_mc_grid",
    "first_order_md_mc_grid",
    "check_bandwidth_targets",
    "required_bandwidth",
]

MODES = ("single_interferer", "multi_interferer")
INNER_MODES = ("sampled", "exact_binomial")


@dataclass(frozen=True)
class CanonicalParams:
    """Monte Carlo model parameters; :func:`qos_threshold` maps (l, W, t_th) to q."""

    intensity: float  # BS density, 1/m^2
    alpha: float  # path-loss exponent, > 2
    zeta: float  # interferer probability, (0, 1]
    q: float  # SIR threshold, finite and positive
    mode: str = "single_interferer"
    n_points: int = 200

    def __post_init__(self) -> None:
        _check_positive(intensity=self.intensity, q=self.q)
        _check_model(self.alpha, self.zeta, self.mode)
        object.__setattr__(self, "n_points", check_count("n_points", self.n_points, 2))


@dataclass(frozen=True)
class GridEstimate:
    """MC estimates over a (p1, p2) threshold grid sharing one sample set."""

    p1_grid: tuple[float, ...]
    p2_grid: tuple[float, ...]
    values: np.ndarray  # shape (len(p1_grid), len(p2_grid))
    stderr: np.ndarray
    trials: tuple[int, ...]
    seed: int


def _check_positive(**values: float) -> None:
    """DomainError unless every named value is finite and positive."""
    for name, v in values.items():
        if not (v is not None and math.isfinite(v) and v > 0.0):
            raise DomainError(f"{name} must be finite and positive")


def _check_model(alpha: float, zeta: float, mode: str = MODES[0]) -> None:
    """DomainError unless alpha > 2 is finite, zeta lies in (0, 1] and the
    mode is known."""
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise DomainError("alpha must be finite and exceed 2")
    if not 0.0 < zeta <= 1.0:
        raise DomainError("zeta must lie in (0, 1]")
    if mode not in MODES:
        raise DomainError(f"mode must be one of {MODES}")


def qos_threshold(l_bits: float, bandwidth_hz: float, deadline_s: float) -> float:
    """SIR/SNR threshold equivalent to l bits within t_th at bandwidth W:
    q = 2^(l / (W t_th)) - 1, which must be finite."""
    _check_positive(l=l_bits, W=bandwidth_hz, t_th=deadline_s)
    try:
        q = math.expm1(l_bits / (bandwidth_hz * deadline_s) * math.log(2.0))
    except (OverflowError, ZeroDivisionError):  # q overflows, or W t_th underflows to 0
        q = math.inf
    if q == math.inf:
        raise DomainError(f"q = 2^(l / (W t_th)) - 1 overflows at W = {bandwidth_hz!r}")
    return q


def p1_hat(p1: float, q: float, alpha: float) -> float:
    """Distance-ratio threshold [p1 q / (1 - p1)]^(1/alpha)."""
    if not 0.0 < p1 < 1.0:
        raise DomainError("p1 must lie strictly in (0, 1)")
    if q <= 0.0 or not math.isfinite(q):
        raise DomainError("q must be positive and finite")
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise DomainError("alpha must be finite and exceed 2")
    return (p1 * q / (1.0 - p1)) ** (1.0 / alpha)


def conditional_link_success(
    distances: np.ndarray, marks: np.ndarray, q: float, alpha: float
) -> float:
    """Exact P(SIR > q | points, marks) under unit-mean Rayleigh fading.

    The Laplace transform of the active interferers' exponential fadings
    gives prod_i (1 + q (R_1/R_i)^alpha)^-1; an empty active set gives 1.
    """
    d = np.asarray(distances, dtype=float)
    active = np.asarray(marks).astype(bool).copy()
    active[0] = False
    if not active.any():
        return 1.0
    ratios = (d[0] / d[active]) ** alpha
    return float(np.exp(-np.sum(np.log1p(q * ratios))))


def _success_terms(p2: float, zeta: float) -> int:
    """Number of leading N' pmf terms inside the success region: the count
    of n >= 0 with (1 - zeta)^n > p2, i.e. ceil(ln p2 / ln(1 - zeta)).

    The comparison is strict, so an atom (1 - zeta)^n == p2 is excluded; a
    ratio within a few ulp of an integer n is taken to be that atom, since
    rounding in the logarithms cannot tell the two apart.  zeta = 1 gives 1.
    """
    if not 0.0 < p2 < 1.0:
        raise DomainError("p2 must lie strictly in (0, 1)")
    if zeta == 1.0:
        return 1
    ratio = math.log(p2) / math.log1p(-zeta)
    nearest = round(ratio)
    if abs(ratio - nearest) <= 4.0 * math.ulp(ratio):
        return nearest
    return math.ceil(ratio)


def _r2(x: float, p2: float, zeta: float) -> float:
    """1 - (1 - x)^terms for the success mass x; a single term returns x
    itself, without the rounding of the expm1/log1p route."""
    terms = _success_terms(p2, zeta)
    if x >= 1.0:
        return 1.0
    if terms == 1:
        return x
    return -math.expm1(terms * math.log1p(-x))


def r2_single_interferer(
    p1: float, p2: float, q: float, alpha: float, zeta: float
) -> float:
    """Second-order MD reliability, single-interferer closed form.

    1 - (1 - phat^-2)^terms for phat > 1, else 1, where terms counts the
    n >= 0 with (1 - zeta)^n > p2 (see :func:`_success_terms`).
    """
    return _r2(_success_mass(p1, q, alpha, zeta, "single_interferer"), p2, zeta)


def interference_ratio_expectation(alpha: float, zeta: float) -> float:
    """E[sum_i (Rt_1/Rt_i)^alpha] over the thinned process, exactly
    (1 + delta*zeta)/(1 - delta) with delta = 2/alpha.

    At unit lambda*pi, X = Rt_1^2 has E[X] = 1 + 1/zeta.  Beyond Rt_1 the
    thinned points form a renewal process in squared distance whose renewal
    density is zeta, so the sum has mean 1 + zeta*E[X]/(alpha/2 - 1).  The
    multi-interferer closed form is approximate only through the
    mean-interference substitution of :func:`_multi_p1hat_factor`.
    """
    _check_model(alpha, zeta)
    return _interference_ratio_mean(alpha, zeta)


def _interference_ratio_mean(alpha: float, zeta: float) -> float:
    """(1 + delta*zeta)/(1 - delta) with delta = 2/alpha, unchecked: the
    callers have checked the model."""
    delta = 2.0 / alpha
    return (1.0 + delta * zeta) / (1.0 - delta)


def _multi_p1hat_factor(alpha: float, zeta: float) -> float:
    """Factor ((1+delta*zeta)/(1-delta))^(delta/2) applied to phat in the
    multi-interferer scenario (mean-interference substitution)."""
    return _interference_ratio_mean(alpha, zeta) ** (1.0 / alpha)


def _success_mass(p1: float, q: float, alpha: float, zeta: float, mode: str) -> float:
    """x = phat_eff^-2 clamped to 1, the N' pmf's success mass; phat_eff is
    phat, inflated by :func:`_multi_p1hat_factor` in multi-interferer mode.
    The second order is 1 - (1 - x)^terms, the first x / (1 - (1-zeta)(1-x)),
    and the zeroth the first's p1-integral."""
    _check_model(alpha, zeta, mode)
    phat = p1_hat(p1, q, alpha)
    if mode == "multi_interferer":
        phat *= _multi_p1hat_factor(alpha, zeta)
    if phat <= 1.0:
        return 1.0
    return 1.0 / (phat * phat)


def r2_multi_interferer(
    p1: float, p2: float, q: float, alpha: float, zeta: float
) -> float:
    """Second-order MD reliability, multi-interferer approximation.

    The single-interferer form evaluated at the inflated threshold
    phat * ((1+delta*zeta)/(1-delta))^(delta/2); returns 1 when the inflated
    threshold does not exceed 1.
    """
    return _r2(_success_mass(p1, q, alpha, zeta, "multi_interferer"), p2, zeta)


def nprime_pmf(n: int, p1_hat_value: float) -> float:
    """P(N' = n) = (1 - phat^-2)^n * phat^-2: the number of non-serving
    points inside radius phat * R_1 is geometric."""
    if n < 0:
        raise DomainError("n must be >= 0")
    if not (math.isfinite(p1_hat_value) and p1_hat_value > 1.0):
        raise DomainError("requires p1_hat > 1")
    x = 1.0 / (p1_hat_value * p1_hat_value)
    return (1.0 - x) ** n * x


def first_order_reliability(
    p1: float, q: float, alpha: float, zeta: float, mode: str = "single_interferer"
) -> float:
    """First-order MD reliability, the exact p2-integral of the second-order
    closed form: x / (1 - (1-zeta)(1-x)) with x = phat_eff^-2 (1 if x = 1)."""
    x = _success_mass(p1, q, alpha, zeta, mode)
    if x >= 1.0:
        return 1.0
    return x / (1.0 - (1.0 - zeta) * (1.0 - x))


def zeroth_order_reliability_closed(
    q: float, alpha: float, zeta: float, mode: str = "single_interferer"
) -> float:
    """Conventional reliability P(SIR > q): the p1-integral of the
    first-order closed form.

    The integrand is 1 up to p1_break, where phat_eff reaches 1.  Beyond
    it, adaptive quadrature runs over u = ln p1 on [ln p1_break, 0]: at
    large q, p1_break is small and most of the mass lies within a few
    multiples of it, which a p1 grid on [p1_break, 1] resolves badly.
    """
    _check_positive(q=q)
    _check_model(alpha, zeta, mode)
    from scipy.integrate import quad

    factor = _multi_p1hat_factor(alpha, zeta) if mode == "multi_interferer" else 1.0
    c = factor ** (-alpha)
    p1_break = c / (q + c)  # below this, phat_eff <= 1 and the integrand is 1

    def integrand(u: float) -> float:
        p1 = math.exp(u)  # dp1 = p1 du
        return first_order_reliability(p1, q, alpha, zeta, mode) * p1

    # exp(u) rounds below 1 up to u = ln(1 - 2^-53); beyond lies < 2^-53 of mass
    top = math.log1p(-(2.0**-53))
    tail, _ = quad(
        integrand, min(math.log(p1_break), top), top, epsabs=1e-11, epsrel=1e-10, limit=200
    )
    return p1_break + tail


# ---------------------------------------------------------------------------
# Monte Carlo bindings
# ---------------------------------------------------------------------------


def _sample_first_offsets(
    size: tuple[int, ...], zeta: float, rng: np.random.Generator
) -> np.ndarray:
    """Geometric index of the first marked non-serving point (1 = nearest)."""
    if zeta == 1.0:
        return np.ones(size, dtype=np.int64)
    u = rng.random(size)
    return 1 + np.floor(np.log(u) / math.log1p(-zeta)).astype(np.int64)


def canonical_layered_model(
    params: CanonicalParams, q: float, inner: str = "sampled"
) -> LayeredModel:
    """LayeredModel of the canonical SIR model: point distances (outer),
    interferer marks (middle) and Rayleigh fading (inner).

    A mark state is the offset of the first marked point in single mode and
    the mask of marked non-serving points, as 0/1 floats, in multi mode.  At
    zeta = 1 every point is marked, so neither mode draws a mark.  A fading
    state is the SIR itself, h_1 / sum_i h_i (R_1/R_i)^alpha over the marked
    points, and is infinite when no marked point interferes.  It is computed
    from distance ratios, so it does not depend on the intensity; only the
    serving fading and the marked interferers' fadings are drawn.

    A multi-mode mark takes one byte b of the raw PCG64 stream, read
    little-endian.  With d = floor(256 zeta) (exact, as 256 is a power of
    two) the point is marked when b < d; a tie b == d, of probability
    1/256, is marked when a uniform double falls below 256 zeta - d.  So
    P(mark) = zeta to within 2^-61, and exactly k/256 at zeta = k/256.

    ``inner="exact_binomial"`` adds the exact hook, which samples
    Binomial(N0, P1)/N0 with the exact conditional success probability P1;
    the estimator's law is unchanged.  At zeta = 1 in multi mode the hook
    computes P1 once per outer row and broadcasts it over the middle rows.
    """
    if inner not in INNER_MODES:
        raise DomainError(f"inner must be one of {INNER_MODES}")
    cfg = PppConfig(intensity=params.intensity, n_points=params.n_points)
    alpha = params.alpha
    zeta = params.zeta
    single = params.mode == "single_interferer"
    digit = math.floor(256.0 * zeta)  # multi-mode mark byte threshold d
    tie_share = 256.0 * zeta - digit

    def sample_distances(rng, above, size):
        return sample_ordered_distances(cfg, rng, size)

    def sample_mark_rows(rng, above, size):
        if single:
            return _sample_first_offsets(size, zeta, rng)
        shape = size + (params.n_points - 1,)
        if zeta == 1.0:  # every point marked, no draw; the exact hook skips even this
            return np.ones(shape)
        # a point is marked when its byte b of the raw stream is below d, and
        # on a tie b == d when a uniform falls below 256 zeta - d; the compare
        # writes 0/1 floats straight into the exact hook's matmul operand
        n = math.prod(shape)
        raw = rng.bit_generator.random_raw(-(-n // 8)).astype("<u8", copy=False)
        b = raw.view(np.uint8)[:n]
        marks = np.empty(shape)
        flat = marks.reshape(-1)
        np.less(b, digit, out=flat, casting="unsafe")
        ties = np.flatnonzero(np.equal(b, digit, out=b.view(np.bool_)))  # b is spent
        flat[ties] = rng.random(ties.size) < tie_share
        return marks

    def sample_sirs(rng, above, size):
        # distance ratios do not depend on the intensity, so no absolute
        # power R^-alpha under- or overflows
        distances, marks = above
        if single:
            rows = np.flatnonzero(marks < params.n_points)
            cols = marks[rows]
        else:
            rows, cols = np.nonzero(marks)
            cols = cols + 1
        m, n0 = size
        # column j < m is row j's serving fading, column m + k the k-th marked point's
        h = rng.standard_exponential((n0, m + rows.size))
        interference = h[:, m:] * (distances[rows, 0] / distances[rows, cols]) ** alpha
        if not single and rows.size:  # sum each row's run of marked points
            starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
            interference = np.add.reduceat(interference, starts, axis=1)
            rows = rows[starts]
        sirs = np.full((n0, m), np.inf)  # no active interferer, or zero interference
        sirs[:, rows] = np.divide(
            h[:, rows], interference, out=np.full_like(interference, np.inf),
            where=interference > 0.0,
        )
        return sirs.T

    def qos(states):
        return states[-1]

    def exact(rng, above, size):
        # P1 = prod over marked points of 1 / (1 + q (R_1/R_i)^alpha)
        dist_sq = np.square(above[0])
        if single:
            marks = sample_mark_rows(rng, above, size)
            valid = marks < params.n_points
            idx = np.where(valid, marks, 0)
            ratio = (dist_sq[:, :1] / np.take_along_axis(dist_sq, idx, axis=1)) ** (
                0.5 * alpha
            )
            return np.where(valid, 1.0 / (1.0 + q * ratio), 1.0)
        v = np.log1p(q * (dist_sq[:, :1] / dist_sq[:, 1:]) ** (0.5 * alpha))
        if zeta == 1.0:  # every point marked: one P1 per outer row
            return np.broadcast_to(np.exp(-v.sum(axis=1))[:, None], size)
        return np.exp(-(sample_mark_rows(rng, above, size) @ v[:, :, None])[..., 0])

    return LayeredModel(
        layers=(sample_sirs, sample_mark_rows, sample_distances),
        qos=qos,
        exact=exact if inner == "exact_binomial" else None,
    )


def run_canonical_mc(
    params: CanonicalParams,
    query: MdQuery,
    seed: int,
    inner: str = "sampled",
) -> MdEstimate:
    """Second-order MD reliability of the canonical model by nested MC."""
    if len(query.p) != 2:
        raise ConfigurationError("canonical MC is second order: need two thresholds")
    model = canonical_layered_model(params, query.q, inner=inner)
    return nested_md_estimate(model, query, seed)


def _grid_estimate(
    model: LayeredModel,
    q: float,
    p1_grid: Sequence[float],
    p2_grid: Sequence[float],
    trials: tuple[int, int, int],
    seed: int,
) -> GridEstimate:
    """Second-order estimates of ``model`` over the sorted (p1, p2) grid."""
    p1g = np.asarray(sorted(float(p) for p in p1_grid))
    p2g = np.asarray(sorted(float(p) for p in p2_grid))
    values, stderr = nested_md_grid(model, q, (p1g, p2g), trials, seed)
    return GridEstimate(
        p1_grid=tuple(p1g),
        p2_grid=tuple(p2g),
        values=values,
        stderr=stderr,
        trials=tuple(int(n) for n in trials),
        seed=seed,
    )


def run_canonical_mc_grid(
    params: CanonicalParams,
    q: float,
    p1_grid: Sequence[float],
    p2_grid: Sequence[float],
    trials: tuple[int, int, int],
    seed: int,
) -> GridEstimate:
    """Second-order estimates over a (p1, p2) grid from one shared sample set
    (exact-binomial inner layer); see :func:`mdcore.nested_md_grid`."""
    model = canonical_layered_model(params, q, inner="exact_binomial")
    return _grid_estimate(model, q, p1_grid, p2_grid, trials, seed)


def first_order_md_mc_grid(
    params: CanonicalParams,
    q: float,
    p1_grid: Sequence[float],
    trials: tuple[int, int],
    seed: int,
    inner: str = "exact_binomial",
) -> GridEstimate:
    """First-order estimates over a p1 grid from one shared sample set.

    The second-order model with one mark draw per point draw lumps the two
    into the outer layer: P2 is then 0 or 1, and P2 > 1/2 exactly when the
    single P1 estimate exceeds p1.
    """
    p1g = np.asarray(sorted(float(p) for p in p1_grid))
    n0, n_outer = (int(n) for n in trials)
    model = canonical_layered_model(params, q, inner=inner)
    values, stderr = nested_md_grid(model, q, (p1g, (0.5,)), (n0, 1, n_outer), seed)
    return GridEstimate(
        p1_grid=tuple(p1g),
        p2_grid=(),
        values=values,
        stderr=stderr,
        trials=(n0, n_outer),
        seed=seed,
    )


def check_bandwidth_targets(targets: Sequence[float], orders: Sequence[int]) -> None:
    """DomainError unless every target reliability lies strictly in (0, 1)
    and every order is 0, 1 or 2: the domain of :func:`required_bandwidth`'s
    target and order, checked before any search."""
    if not all(0.0 < target < 1.0 for target in targets):
        raise DomainError("target reliability must lie strictly in (0, 1)")
    if not all(order in (0, 1, 2) for order in orders):
        raise DomainError("order must be 0, 1, or 2")


def required_bandwidth(
    target_reliability: float, order: int, p1: float, p2: float, w_low: float,
    w_high: float, *, l_bits: float, deadline_s: float, alpha: float, zeta: float,
    mode: str = "single_interferer",
) -> float:
    """Smallest bandwidth whose closed-form reliability of ``order`` at (p1,
    p2) reaches the target, with q = 2^(l/(W t_th)) - 1 for l bits in t_th.

    Bisection on W: q decreases strictly in W, and every shipped
    reliability order is non-increasing in q, so reliability is
    non-decreasing in W.  Every shipped order has R -> 0 as q -> inf, so R
    reads 0 at a W whose q overflows.  The endpoints must bracket the
    target.  The bracket's upper end is returned once the bracket is within
    0.1 % of it.
    """
    check_bandwidth_targets((target_reliability,), (order,))
    if not (0.0 < w_low < w_high and math.isfinite(w_high)):
        raise DomainError("need 0 < w_low < w_high < inf")
    _check_positive(l=l_bits, t_th=deadline_s)
    _check_model(alpha, zeta, mode)

    def reliability(w: float) -> float:
        try:
            q = qos_threshold(l_bits, w, deadline_s)
        except DomainError:  # l, W and t_th are valid, so q overflowed
            return 0.0
        if order == 0:
            return zeroth_order_reliability_closed(q, alpha, zeta, mode)
        if order == 1:
            return first_order_reliability(p1, q, alpha, zeta, mode)
        return _r2(_success_mass(p1, q, alpha, zeta, mode), p2, zeta)

    r_lo = reliability(w_low)
    r_hi = reliability(w_high)
    if r_lo > target_reliability or r_hi < target_reliability:
        raise SearchError(
            f"reliability range [{r_lo:.6g}, {r_hi:.6g}] on the given bandwidth "
            f"interval does not bracket the target {target_reliability:.6g}"
        )
    lo, hi = w_low, w_high
    while hi - lo > 1e-3 * hi:
        mid = math.sqrt(lo * hi)  # geometric midpoint: W spans decades
        if reliability(mid) >= target_reliability:
            hi = mid
        else:
            lo = mid
    return hi
