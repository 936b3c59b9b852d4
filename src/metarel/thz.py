"""Wideband frequency-hopping THz link model.

SNR with molecular absorption, Rician fading success probability through
the Marcum Q-function, a carrier frequency whose band fraction
(f - f_low) / (f_high - f_low) follows Beta(m+1, m+1), with density, CDF
and quantile evaluated through scipy.special, and the second-order MD
reliability: a Lambert-W closed form when the absorption coefficient k(f)
increases monotonically over the band (Scenario 1), and root
classification plus radial integration when k(f) is valley-shaped
(Scenario 2).  The Scenario-2 frequency crossings are closed-form Lambert-W
(and Wright omega) roots on each linear segment of k(f); the carrier-layer
indicator turns false at a single radius, found by bisection.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    IngestError,
    ScenarioError,
    check_count,
)
from .mdcore import LayeredModel, MdEstimate, MdQuery, nested_md_estimate
from .canonical import INNER_MODES, GridEstimate, _grid_estimate, qos_threshold
from .specfun import (
    MarcumApproxCoeffs,
    calibrate_marcum_coeffs,
    lambert_w0,
    marcum_q1,
)
from .stochgeom import sample_rician_power

__all__ = [
    "SPEED_OF_LIGHT",
    "THERMAL_NOISE_W_PER_HZ",
    "DEFAULT_ANCHORS",
    "ThzParams",
    "AbsorptionTable",
    "load_absorption_table",
    "synthetic_monotone_table",
    "synthetic_valley_table",
    "thz_snr",
    "p1_thz",
    "carrier_pdf",
    "carrier_cdf",
    "carrier_cdf_inverse",
    "sample_carrier",
    "default_marcum_coeffs",
    "p1_tilde",
    "attenuation_metric",
    "r2_scenario1",
    "roots_scenario2",
    "p2_scenario2",
    "r2_scenario2",
    "thz_layered_model",
    "run_thz_mc",
    "run_thz_mc_grid",
    "optimal_bandwidth_sweep",
]

SPEED_OF_LIGHT = 299792458.0  # m/s
THERMAL_NOISE_W_PER_HZ = 3.9810717055349695e-21  # -174 dBm/Hz
DEFAULT_ANCHORS = (0.99, 1.0 - 1e-7)  # collocation anchors for near-unity p1
# Scenario-2 radial search: the nearest-distance tail mass beyond its
# largest radius
_TAIL_MASS = 1e-8

ABSORPTION_HEADER = ("frequency_hz", "k_per_m")


@dataclass(frozen=True)
class ThzParams:
    """Link-budget and model parameters; defaults follow the reference setup.

    Antenna gains are linear (25 dB each by default); dB inputs are converted
    at the ingestion boundary, never stored here.  ``q_override`` and
    ``c1_override`` replace the derived QoS threshold and path-loss composite
    for normalized studies.
    """

    tx_power_w: float = 0.1
    tx_gain: float = 316.22776601683796  # 25 dB
    rx_gain: float = 316.22776601683796  # 25 dB
    noise_density_w_per_hz: float = THERMAL_NOISE_W_PER_HZ
    bandwidth_hz: float = 1e9
    l_bits: float = 1000.0
    deadline_s: float = 1e-5
    rician_k: float = 2.0
    intensity: float = 1.5e-3  # BS density, 1/m^2
    f_low_hz: float = 340e9
    f_high_hz: float = 375e9
    m_shape: int = 0
    q_override: Optional[float] = None
    c1_override: Optional[float] = None

    def __post_init__(self) -> None:
        positive = (
            ("tx_power_w", self.tx_power_w),
            ("tx_gain", self.tx_gain),
            ("rx_gain", self.rx_gain),
            ("noise_density_w_per_hz", self.noise_density_w_per_hz),
            ("bandwidth_hz", self.bandwidth_hz),
            ("l_bits", self.l_bits),
            ("deadline_s", self.deadline_s),
            ("intensity", self.intensity),
            ("f_low_hz", self.f_low_hz),
            ("f_high_hz", self.f_high_hz),
            ("q_override", self.q_override),
            ("c1_override", self.c1_override),
        )
        for name, v in positive:
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"{name} must be finite and positive")
        if not (math.isfinite(self.rician_k) and self.rician_k >= 0.0):
            raise DomainError("rician_k must be finite and >= 0")
        if not self.f_low_hz < self.f_high_hz:
            raise DomainError("need f_low_hz < f_high_hz")
        object.__setattr__(self, "m_shape", check_count("m_shape", self.m_shape, 0))

    def qos(self) -> float:
        if self.q_override is not None:
            return self.q_override
        return qos_threshold(self.l_bits, self.bandwidth_hz, self.deadline_s)

    def c1(self) -> float:
        """Path-loss composite (4 pi)^2 N0 W / (P_T G_T G_R c^2)."""
        if self.c1_override is not None:
            return self.c1_override
        return (
            (4.0 * math.pi) ** 2
            * self.noise_density_w_per_hz
            * self.bandwidth_hz
            / (self.tx_power_w * self.tx_gain * self.rx_gain * SPEED_OF_LIGHT**2)
        )

    def band(self) -> tuple[float, float]:
        return (self.f_low_hz, self.f_high_hz)


@dataclass(frozen=True)
class AbsorptionTable:
    """Sorted (frequency, k) samples with linear interpolation in between."""

    frequency_hz: np.ndarray
    k_per_m: np.ndarray

    def __post_init__(self) -> None:
        f = np.asarray(self.frequency_hz, dtype=float)
        k = np.asarray(self.k_per_m, dtype=float)
        object.__setattr__(self, "frequency_hz", f)
        object.__setattr__(self, "k_per_m", k)
        if f.ndim != 1 or f.shape != k.shape or f.size < 2:
            raise IngestError("need >= 2 (frequency, k) pairs of equal length")
        if not (np.isfinite(f).all() and np.isfinite(k).all()):
            raise IngestError("table entries must be finite")
        if np.any(np.diff(f) <= 0.0):
            raise IngestError("frequencies must be strictly ascending")
        if np.any(k < 0.0):
            raise IngestError("absorption coefficients must be >= 0")

    def k_at(self, f):
        """k(f) by linear interpolation; out-of-range and NaN queries are errors."""
        f = np.asarray(f, dtype=float)
        if not np.all((self.frequency_hz[0] <= f) & (f <= self.frequency_hz[-1])):
            raise DomainError("frequency outside the tabulated range")
        out = np.interp(f, self.frequency_hz, self.k_per_m)
        return float(out) if out.ndim == 0 else out

    def covers(self, f_low: float, f_high: float) -> bool:
        return self.frequency_hz[0] <= f_low and f_high <= self.frequency_hz[-1]

    def knots_in_band(self, f_low: float, f_high: float) -> np.ndarray:
        """Band endpoints plus every tabulated knot strictly inside."""
        if not self.covers(f_low, f_high):
            raise DomainError("band is not covered by the table")
        f = self.frequency_hz
        inside = f[(f > f_low) & (f < f_high)]
        return np.concatenate(([f_low], inside, [f_high]))

    def is_monotone_nondecreasing(self, f_low: float, f_high: float) -> bool:
        knots = self.knots_in_band(f_low, f_high)
        return bool(np.all(np.diff(self.k_at(knots)) >= 0.0))

    def is_valley(self, f_low: float, f_high: float) -> bool:
        """Non-increasing then non-decreasing over the band (either part may
        be empty), which both solution schemes rely on."""
        d = np.diff(self.k_at(self.knots_in_band(f_low, f_high)))
        risen = np.maximum.accumulate(d > 0.0)
        return not np.any(risen & (d < 0.0))

    def save_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(ABSORPTION_HEADER)
            for f, k in zip(self.frequency_hz, self.k_per_m):
                writer.writerow([repr(float(f)), repr(float(k))])


def load_absorption_table(source) -> AbsorptionTable:
    """Read a `frequency_hz,k_per_m` CSV from a path or file-like object."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        try:
            with open(source, "r", newline="") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise IngestError(f"cannot read absorption table {source}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    rows = [row for row in reader if row and any(cell.strip() for cell in row)]
    if not rows:
        raise IngestError("empty absorption table")
    header = tuple(cell.strip() for cell in rows[0])
    if header != ABSORPTION_HEADER:
        raise IngestError(f"expected header {ABSORPTION_HEADER}, got {header}")
    freqs = []
    ks = []
    for idx, row in enumerate(rows[1:], start=2):
        if len(row) != 2:
            raise IngestError(f"row {idx}: expected 2 columns")
        try:
            freqs.append(float(row[0]))
            ks.append(float(row[1]))
        except ValueError as exc:
            raise IngestError(f"row {idx}: non-numeric entry") from exc
    return AbsorptionTable(frequency_hz=np.array(freqs), k_per_m=np.array(ks))


def synthetic_monotone_table(
    f_low: float, f_high: float, k_low: float, k_high: float, n: int = 41
) -> AbsorptionTable:
    """Smoothly increasing k(f) (quadratic ramp) over [f_low, f_high]."""
    if not (0.0 <= k_low <= k_high):
        raise DomainError("need 0 <= k_low <= k_high")
    f = np.linspace(f_low, f_high, n)
    u = (f - f_low) / (f_high - f_low)
    k = k_low + (k_high - k_low) * (0.35 * u + 0.65 * u * u)
    return AbsorptionTable(frequency_hz=f, k_per_m=k)


def synthetic_valley_table(
    f_low: float,
    f_high: float,
    k_left: float,
    k_min: float,
    k_right: float,
    f_min: Optional[float] = None,
    n: int = 61,
) -> AbsorptionTable:
    """Valley-shaped k(f): quadratic descent to k_min at f_min, then ascent."""
    if f_min is None:
        f_min = f_low + 0.45 * (f_high - f_low)
    if not f_low < f_min < f_high:
        raise DomainError("f_min must lie strictly inside the band")
    if not (0.0 <= k_min <= min(k_left, k_right)):
        raise DomainError("need 0 <= k_min <= min(k_left, k_right)")
    f = np.linspace(f_low, f_high, n)
    k = np.where(
        f <= f_min,
        k_min + (k_left - k_min) * ((f_min - f) / (f_min - f_low)) ** 2,
        k_min + (k_right - k_min) * ((f - f_min) / (f_high - f_min)) ** 2,
    )
    return AbsorptionTable(frequency_hz=f, k_per_m=k)


# ---------------------------------------------------------------------------
# Link layer
# ---------------------------------------------------------------------------


def thz_snr(h, f, r, params: ThzParams, table: AbsorptionTable):
    """SNR = h * [P_T G_T G_R c^2 / (4 pi f)^2 * r^-2 e^(-k(f) r) / (N0 W)],
    the fading power h times the channel gain; h, f and r broadcast."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):
        raise DomainError("r must be positive")
    f = np.asarray(f, dtype=float)
    gain = np.exp(-table.k_at(f) * r) / (params.c1() * np.square(f * r))
    out = np.asarray(h, dtype=float) * gain
    return float(out) if out.ndim == 0 else out


def _c2(params: ThzParams) -> float:
    return math.sqrt(2.0 * params.c1() * params.qos() * (params.rician_k + 1.0))


def p1_thz(f, r, params: ThzParams, table: AbsorptionTable):
    """Exact fading-layer success probability
    Q1(sqrt(2K), c2 * f * r * exp(k(f) r / 2)) for scalars or broadcastable
    arrays f and r; equals 1 at r = 0."""
    if np.any(np.asarray(r) < 0.0):
        raise DomainError("r must be >= 0")
    b = _c2(params) * f * r * np.exp(0.5 * table.k_at(f) * r)
    return marcum_q1(math.sqrt(2.0 * params.rician_k), b)


# ---------------------------------------------------------------------------
# Carrier-frequency distribution
# ---------------------------------------------------------------------------


def _band_fraction(f, params: ThzParams) -> np.ndarray:
    """(f - f_low) / (f_high - f_low); a frequency outside the band or NaN is
    an error."""
    f = np.asarray(f, dtype=float)
    lo, hi = params.band()
    if not np.all((lo <= f) & (f <= hi)):
        raise DomainError("frequency outside the hopping band")
    return (f - lo) / (hi - lo)


def carrier_pdf(f, params: ThzParams):
    """Carrier density in 1/Hz: the Beta(m+1, m+1) density of the band
    fraction, through scipy.special's betaln, divided by the band width."""
    from scipy import special

    u = _band_fraction(f, params)
    m = params.m_shape
    lo, hi = params.band()
    log_pdf = special.xlogy(m, u) + special.xlog1py(m, -u) - special.betaln(m + 1, m + 1)
    out = np.exp(log_pdf) / (hi - lo)
    return float(out) if out.ndim == 0 else out


def carrier_cdf(f, params: ThzParams):
    """Carrier CDF: the Beta(m+1, m+1) CDF of the band fraction u,
    scipy.special.betainc(m+1, m+1, u)."""
    from scipy import special

    a = params.m_shape + 1.0
    out = special.betainc(a, a, _band_fraction(f, params))
    return float(out) if out.ndim == 0 else out


def carrier_cdf_inverse(p: float, params: ThzParams) -> float:
    """Frequency f0 with carrier_cdf(f0) = p: the Beta(m+1, m+1) quantile
    scipy.special.betaincinv mapped onto the band, so that p = 0 and p = 1
    give the band edges."""
    if not 0.0 <= p <= 1.0:
        raise DomainError("p must lie in [0, 1]")
    from scipy import special

    lo, hi = params.band()
    a = params.m_shape + 1.0
    return float(lo + special.betaincinv(a, a, p) * (hi - lo))


def sample_carrier(rng: np.random.Generator, params: ThzParams, size=None):
    """Carrier draws: f_low + width * Beta(m+1, m+1)."""
    lo, hi = params.band()
    u = rng.beta(params.m_shape + 1.0, params.m_shape + 1.0, size)
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# Marcum coefficients and the approximation-path threshold
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def default_marcum_coeffs(rician_k: float) -> MarcumApproxCoeffs:
    """Collocation coefficients for a = sqrt(2K) at DEFAULT_ANCHORS."""
    return calibrate_marcum_coeffs(math.sqrt(2.0 * rician_k), *DEFAULT_ANCHORS)


def p1_tilde(
    p1: float, params: ThzParams, approx: MarcumApproxCoeffs
) -> float:
    """Composite threshold (1/c2) * [-ln p1 / e^nu]^(1/mu).

    Under the exponential approximation, {P1 > p1} is equivalent to
    {f * r * exp(k(f) r / 2) < p1_tilde}.
    """
    if not 0.0 < p1 < 1.0:
        raise DomainError("p1 must lie strictly in (0, 1)")
    c2 = _c2(params)
    if not (math.isfinite(c2) and c2 > 0.0):
        raise DomainError("c2 must be finite and positive")
    value = (-math.log(p1) / math.exp(approx.nu)) ** (1.0 / approx.mu) / c2
    if not (math.isfinite(value) and value > 0.0):
        raise DomainError("p1_tilde must be finite and positive")
    return value


# ---------------------------------------------------------------------------
# Scenario engines
# ---------------------------------------------------------------------------


def attenuation_metric(f, r, table: AbsorptionTable):
    """g(f; r) = f * r * exp(k(f) r / 2), the quantity thresholded by p1_tilde.

    ``r`` is a radius or an array of radii >= 0 that broadcasts against ``f``.
    """
    if not np.all(np.asarray(r) >= 0.0):
        raise DomainError("r must be >= 0")
    f = np.asarray(f, dtype=float)
    out = f * r * np.exp(0.5 * table.k_at(f) * r)
    return float(out) if out.ndim == 0 else out


def _bisect(
    a: np.ndarray, b: np.ndarray, side, a_side: np.ndarray, steps: int
) -> np.ndarray:
    """Batched bisection of the brackets [a, b] for the point where the
    boolean ``side(x)`` stops equal to ``a_side``, its value at ``a``.

    Each step moves ``a`` to the midpoint where ``side`` still equals
    ``a_side``, and ``b`` otherwise.  The loop ends after ``steps`` steps or
    once every midpoint has rounded onto an end of its bracket: the update
    then changes no bracket, so every later step is the same no-op and the
    early stop returns what the full count of steps would.
    """
    for _ in range(steps):
        mid = 0.5 * (a + b)
        if np.all((mid == a) | (mid == b)):
            break
        keep = side(mid) == a_side
        a = np.where(keep, mid, a)
        b = np.where(keep, b, mid)
    return 0.5 * (a + b)


def _lambert_wm1_log(z: np.ndarray) -> np.ndarray:
    """v > 1 with v - ln v = z for z >= 1, that is -W_-1(-e^-z), in log form
    so that e^-z never underflows.

    Newton from max(z + ln z, 1 + sqrt(2 (z - 1))), two lower bounds of the
    root: the first step lands above it, and from there the convex residual
    makes every step fall monotonically onto it.
    """
    v = np.maximum(z + np.log(z), 1.0 + np.sqrt(2.0 * np.maximum(z - 1.0, 0.0)))
    for _ in range(50):
        step = (v - np.log(v) - z) / (1.0 - 1.0 / v)
        v = v - step
        if not np.any(np.abs(step) > 4.0 * np.finfo(float).eps * v):
            break
    return v


def _piece_roots(
    fa: np.ndarray,
    fb: np.ndarray,
    r: np.ndarray,
    target: float,
    table: AbsorptionTable,
    f0: np.ndarray,
    k0: np.ndarray,
    slope: np.ndarray,
) -> np.ndarray:
    """Root of g(f; r) = target on each monotone piece [fa, fb] of g(.; r),
    on the segment of k(f) that starts at (f0, k0) with slope ``slope``.

    There k(f) = k0 + slope (f - f0), so with beta = slope r / 2 and
    y = beta f the equation reads y + ln|y| = L, where
    L = ln|beta| + ln target - ln r - k0 r / 2 + beta f0.  It is solved in
    this log form, since beta f reaches the thousands and W(beta C) / beta
    overflows: by the Wright omega function for a rising segment, by W0 of
    -e^L left of the turn f* = -1/beta of a falling one and by W_-1 right of
    it, and by f = e^(L - ln|beta|) on a flat one.  One Newton step on
    ln g(f; r) = ln target then polishes each root against g itself.

    Near the turn the equation loses its simple root (scipy's W0 is NaN at
    the float nearest -1/e).  A root that comes out non-finite or outside
    its piece, there or by rounding at a piece end, is found instead by the
    shared bisection on g.
    """
    from scipy import special

    beta = 0.5 * slope * r
    log_c = math.log(target) - np.log(r) - 0.5 * k0 * r + beta * f0
    y = np.zeros_like(r)
    rising, falling = beta > 0.0, beta < 0.0
    left = falling & (beta * (0.5 * (fa + fb)) > -1.0)  # the piece's side of f*
    right = falling & ~left
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        big_l = np.log(np.abs(beta)) + log_c
        y[rising] = special.wrightomega(big_l[rising])
        y[left] = special.lambertw(-np.exp(big_l[left])).real
        y[right] = -_lambert_wm1_log(-big_l[right])
        f = np.where(beta == 0.0, np.exp(log_c), y / np.where(beta == 0.0, 1.0, beta))
        ok = (fa <= f) & (f <= fb)
        f = np.where(ok, f, fa)  # keep k_at's argument inside the table
        g = attenuation_metric(f, r, table)
        f = f - f * np.log(g / target) / (1.0 + beta * f)
    ok &= (fa <= f) & (f <= fb)
    if not np.all(ok):
        bad = ~ok
        f[bad] = _bisect(
            fa[bad],
            fb[bad],
            lambda x: attenuation_metric(x, r[bad], table) > target,
            attenuation_metric(fa[bad], r[bad], table) > target,
            80,
        )
    return f


def _valley_band(
    params: ThzParams, table: AbsorptionTable
) -> tuple[np.ndarray, np.ndarray]:
    """Band knots and the slope of k(f) on each segment between them; a table
    that is not valley-shaped on the band is a scenario error."""
    lo, hi = params.band()
    if not table.is_valley(lo, hi):
        raise ScenarioError("k(f) is not valley-shaped on the band")
    knots = table.knots_in_band(lo, hi)
    return knots, np.diff(table.k_at(knots)) / np.diff(knots)


def _crossings(
    r: np.ndarray,
    target: float,
    table: AbsorptionTable,
    knots: np.ndarray,
    slopes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solutions of g(f; r) = target for every radius in ``r`` at once.

    On each linear segment of k(f), d ln g / df = 1/f + r s / 2 decreases in
    f, so g is either monotone there or rises then falls with the turn at
    f* = -2 / (r s) (only possible for negative slope s).  Splitting each
    segment at its turn, where the turn lies inside, gives the monotone
    pieces of g(.; r); a segment without a turn gets an empty second piece.
    The root on each piece whose ends straddle the target is the closed
    form of :func:`_piece_roots`, all radii and pieces in one batch.

    Returns the roots, ascending in the first ``count`` columns of an (n, 2)
    array, the root counts and g at the lower band edge.  More than two
    roots at any radius means the table does not have the assumed valley
    shape.
    """
    rc = r[:, None]
    with np.errstate(divide="ignore"):
        f_turn = -2.0 / (rc * slopes)
    turn = (rc > 0.0) & (slopes < 0.0) & (knots[:-1] < f_turn) & (f_turn < knots[1:])
    ends = np.empty((r.size, 2 * slopes.size + 1))
    ends[:, 0] = knots[0]
    ends[:, 1::2] = np.where(turn, f_turn, knots[1:])
    ends[:, 2::2] = knots[1:]
    g = attenuation_metric(ends, rc, table)
    above = g > target
    flips = above[:, 1:] != above[:, :-1]
    count = flips.sum(axis=1)
    if np.any(count > 2):
        worst = int(count[np.argmax(count > 2)])
        raise ScenarioError(f"{worst} threshold crossings; expected at most 2")
    rows, cols = np.nonzero(flips)
    seg = cols // 2
    roots = np.full((r.size, 2), np.nan)
    roots[rows, np.cumsum(flips, axis=1)[rows, cols] - 1] = _piece_roots(
        ends[rows, cols],
        ends[rows, cols + 1],
        r[rows],
        target,
        table,
        knots[seg],
        table.k_at(knots)[seg],
        slopes[seg],
    )
    return roots, count, g[:, 0]


def _p2_radii(
    r: np.ndarray,
    target: float,
    params: ThzParams,
    table: AbsorptionTable,
    knots: np.ndarray,
    slopes: np.ndarray,
) -> np.ndarray:
    """Carrier-layer success probability P2 at every radius in ``r``.

    The event window {f : g(f; r) < target} follows from the root count and
    from the event at the lower band edge: the whole band or nothing for no
    root, one side of the root for one root, and the valley between the
    roots for two.  Two roots with the event true at the band edge
    contradict the valley shape and are a scenario error.  g vanishes at
    r = 0, where the window is the whole band.
    """
    lo, hi = params.band()
    roots, count, g_lo = _crossings(r, target, table, knots, slopes)
    true_at_lo = (g_lo < target) | (r == 0.0)
    if np.any((count == 2) & true_at_lo):
        raise ScenarioError("two crossings with the event true at the band edge")
    one, two = count == 1, count == 2
    f1 = np.where(two | (one & ~true_at_lo), roots[:, 0], lo)
    f2 = np.select(
        [two, one & true_at_lo, one | true_at_lo], [roots[:, 1], roots[:, 0], hi], lo
    )
    cdf = carrier_cdf(np.concatenate((f1, f2)), params)
    return np.where(f2 <= f1, 0.0, np.maximum(cdf[r.size :] - cdf[: r.size], 0.0))


def r2_scenario1(
    p1: float,
    p2: float,
    params: ThzParams,
    table: AbsorptionTable,
    approx: Optional[MarcumApproxCoeffs] = None,
) -> float:
    """Closed-form MD reliability on a monotone-k band.

    Solve carrier_cdf(f0) = p2, then R0 = (2/k(f0)) W0(k(f0) p1t / (2 f0));
    the reliability is the nearest-distance CDF at R0,
    1 - exp(-lambda pi R0^2).  A vanishing k(f0) degenerates to R0 = p1t/f0.
    """
    if not 0.0 < p2 < 1.0:
        raise DomainError("p2 must lie strictly in (0, 1)")
    lo, hi = params.band()
    if not table.is_monotone_nondecreasing(lo, hi):
        raise ScenarioError("k(f) must be monotone non-decreasing for scenario 1")
    p1t = p1_tilde(p1, params, approx or default_marcum_coeffs(params.rician_k))
    f0 = carrier_cdf_inverse(p2, params)
    kf0 = table.k_at(f0)
    if kf0 <= 1e-300:
        r0 = p1t / f0
    else:
        r0 = 2.0 / kf0 * lambert_w0(0.5 * kf0 * p1t / f0)
    return -math.expm1(-params.intensity * math.pi * r0 * r0)


def roots_scenario2(
    r: float,
    p1_tilde_value: float,
    params: ThzParams,
    table: AbsorptionTable,
) -> tuple[float, ...]:
    """Solutions of g(f; r) = p1_tilde on a valley-shaped band, ascending.

    The array core (:func:`_crossings`) at the single radius r: the
    piecewise-monotone decomposition of g is scanned for sign changes and
    each bracket's root is taken in closed form; more than two roots means
    the table does not have the assumed valley shape.
    """
    knots, slopes = _valley_band(params, table)
    if r < 0.0:
        raise DomainError("r must be >= 0")
    if not (math.isfinite(p1_tilde_value) and p1_tilde_value > 0.0):
        raise DomainError("p1_tilde must be finite and positive")
    r_arr = np.array([float(r)])
    roots, count, _ = _crossings(r_arr, p1_tilde_value, table, knots, slopes)
    return tuple(float(f) for f in roots[0, : count[0]])


def p2_scenario2(
    r: float,
    p1_tilde_value: float,
    params: ThzParams,
    table: AbsorptionTable,
) -> float:
    """Carrier-layer success probability carrier_cdf(F2) - carrier_cdf(F1)
    over the event window at the single radius r (see :func:`_p2_radii`)."""
    knots, slopes = _valley_band(params, table)
    if r < 0.0:
        raise DomainError("r must be >= 0")
    if not (math.isfinite(p1_tilde_value) and p1_tilde_value > 0.0):
        raise DomainError("p1_tilde must be finite and positive")
    r_arr = np.array([float(r)])
    return float(_p2_radii(r_arr, p1_tilde_value, params, table, knots, slopes)[0])


def r2_scenario2(
    p1: float,
    p2: float,
    params: ThzParams,
    table: AbsorptionTable,
    approx: Optional[MarcumApproxCoeffs] = None,
) -> float:
    """MD reliability on a valley-shaped band: the nearest-distance mass of
    the super-level set {r : P2(r) > p2}.

    That set is always a single interval [0, r*).  The table has k >= 0, so
    g(f; r) = f r e^(k(f) r / 2) strictly increases in r for every f > 0;
    the event window {f : g(f; r) < p1_tilde} therefore shrinks as r grows,
    P2(r) does not increase, and P2(0) = 1 > p2.  The radius r* where the
    indicator 1[P2(r) > p2] turns false is found by one bisection of at most
    60 steps on [0, r_max], which stops early once the bracket stops
    shrinking; r_max is the radius where the nearest-distance tail falls
    below _TAIL_MASS (1e-8), and r* = r_max when the indicator still holds
    there.  Each indicator evaluation takes the frequency crossings at its
    radius in closed form.  The result is 1 - exp(-lambda pi r*^2).
    """
    if not 0.0 < p2 < 1.0:
        raise DomainError("p2 must lie strictly in (0, 1)")
    knots, slopes = _valley_band(params, table)
    lam_pi = params.intensity * math.pi
    p1t = p1_tilde(p1, params, approx or default_marcum_coeffs(params.rician_k))
    r_max = math.sqrt(-math.log(_TAIL_MASS) / lam_pi)

    def indicator(r: np.ndarray) -> np.ndarray:
        return _p2_radii(r, p1t, params, table, knots, slopes) > p2

    r_star = r_max
    if not indicator(np.array([r_max]))[0]:
        r_star = float(_bisect(np.zeros(1), np.array([r_max]), indicator, True, 60)[0])
    return 1.0 - math.exp(-lam_pi * r_star * r_star)


# ---------------------------------------------------------------------------
# Monte Carlo bindings
# ---------------------------------------------------------------------------


def thz_layered_model(
    params: ThzParams, table: AbsorptionTable, inner: str = "sampled"
) -> LayeredModel:
    """LayeredModel with layers (Rician fading power, carrier frequency,
    nearest-BS distance), each state an array of those values.

    ``inner="exact_binomial"`` adds the exact hook, which draws one carrier
    frequency per inner trial and returns the Marcum success probability
    :func:`p1_thz` at it.
    """
    if inner not in INNER_MODES:
        raise DomainError(f"inner must be one of {INNER_MODES}")
    lo, hi = params.band()
    if not table.covers(lo, hi):
        raise ConfigurationError("absorption table does not cover the band")
    lam_pi = params.intensity * math.pi

    def sample_distance(rng, above, size):
        return np.sqrt(rng.standard_exponential(size) / lam_pi)

    def sample_freq(rng, above, size):
        return sample_carrier(rng, params, size)

    def sample_fading(rng, above, size):
        return sample_rician_power(params.rician_k, rng, size)

    def qos(states):
        r, f, h = states
        return thz_snr(h, f[:, None], r[:, None], params, table)

    def exact(rng, above, size):
        return p1_thz(sample_freq(rng, above, size), above[-1][:, None], params, table)

    return LayeredModel(
        layers=(sample_fading, sample_freq, sample_distance),
        qos=qos,
        exact=exact if inner == "exact_binomial" else None,
    )


def run_thz_mc(
    params: ThzParams,
    table: AbsorptionTable,
    query: MdQuery,
    seed: int,
    inner: str = "sampled",
) -> MdEstimate:
    """Second-order MD reliability of the THz model by nested MC.

    With ``inner="exact_binomial"`` the fading loop is replaced by
    Binomial(N0, P1)/N0 sampling with the exact Marcum success probability
    P1, which has the same law; the default runs the full three-loop
    estimator.
    """
    if len(query.p) != 2:
        raise ConfigurationError("THz MC is second order: need two thresholds")
    if abs(query.q - params.qos()) > 1e-12 * max(1.0, abs(params.qos())):
        raise ConfigurationError("query.q must equal the params QoS threshold")
    return nested_md_estimate(thz_layered_model(params, table, inner), query, seed)


def run_thz_mc_grid(
    params: ThzParams,
    table: AbsorptionTable,
    p1_grid: Sequence[float],
    p2_grid: Sequence[float],
    trials: tuple[int, int, int],
    seed: int,
    inner: str = "sampled",
) -> GridEstimate:
    """Second-order THz estimates over a (p1, p2) grid, one shared sample set;
    ``inner`` as in :func:`run_thz_mc`."""
    model = thz_layered_model(params, table, inner)
    return _grid_estimate(model, params.qos(), p1_grid, p2_grid, trials, seed)


def optimal_bandwidth_sweep(
    params: ThzParams,
    table: AbsorptionTable,
    p1: float,
    p2: float,
    bw_grid: Sequence[float],
    approx: Optional[MarcumApproxCoeffs] = None,
) -> tuple[list[tuple[float, float]], float]:
    """Reliability versus hopping bandwidth (f_low, f_low + BW).

    Returns the (BW, R) rows and the argmax bandwidth.  The noise bandwidth
    and QoS threshold stay fixed; only the hopping band changes.
    """
    rows = []
    for bw in bw_grid:
        if bw <= 0.0:
            raise DomainError("bandwidths must be positive")
        sub = replace(params, f_high_hz=params.f_low_hz + float(bw))
        if not table.covers(*sub.band()):
            raise DomainError(
                f"table does not cover the band up to {sub.f_high_hz:.4g} Hz"
            )
        rows.append((float(bw), r2_scenario2(p1, p2, sub, table, approx=approx)))
    best = max(range(len(rows)), key=lambda i: rows[i][1])
    return rows, rows[best][0]
