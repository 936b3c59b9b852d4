"""Exact samplers for the spatial and fading randomness.

Ordered nearest-neighbor distances of a homogeneous PPP are generated by
the radial construction: the squared distances are the arrival times of a
rate-(lambda*pi) one-dimensional Poisson process, so no simulation window
or truncation bias enters.  Bernoulli interferer marks and Rician power
fading (Rayleigh at K = 0) complete the layer samplers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import derive_rng
from .errors import DomainError, check_count

__all__ = [
    "PppConfig",
    "sample_ordered_distances",
    "sample_marks",
    "sample_rician_power",
    "thinned_ratio_sum_mc",
]

MARK_MODES = ("all", "single_interferer")


@dataclass(frozen=True)
class PppConfig:
    """Homogeneous PPP of the given intensity, realized as the n nearest points."""

    intensity: float  # points per m^2
    n_points: int = 200

    def __post_init__(self) -> None:
        if not (math.isfinite(self.intensity) and self.intensity > 0.0):
            raise DomainError("intensity must be finite and positive")
        object.__setattr__(self, "n_points", check_count("n_points", self.n_points, 1))


def sample_ordered_distances(
    cfg: PppConfig, rng: np.random.Generator, size=()
) -> np.ndarray:
    """Distances to the n nearest PPP points, ascending, for ``size``
    independent realizations: shape ``size + (n,)``.

    R_i^2 are cumulative sums of Exp(lambda*pi) gaps, which is exact for the
    ordered distances from the origin.  Realizations are drawn in row-major
    order, so one call with ``size = (k,)`` returns the k arrays that k
    successive calls with the same generator would.
    """
    rate = cfg.intensity * math.pi
    # in place: one array of n_points doubles per realization, no temporaries
    d = rng.standard_exponential(tuple(size) + (cfg.n_points,))
    d /= rate
    np.cumsum(d, axis=-1, out=d)
    return np.sqrt(d, out=d)


def sample_marks(
    n: int, zeta: float, mode: str, rng: np.random.Generator
) -> np.ndarray:
    """Bernoulli(zeta) interferer marks for n ordered points.

    marks[0] is always 0 (serving point).  In "single_interferer" mode every
    mark after the first 1 is forced to 0.
    """
    if n < 2:
        raise DomainError("need n >= 2 points for an interference model")
    if not 0.0 < zeta <= 1.0:
        raise DomainError("zeta must lie in (0, 1]")
    if mode not in MARK_MODES:
        raise DomainError(f"mode must be one of {MARK_MODES}")
    marks = np.zeros(n, dtype=np.int8)
    marks[1:] = rng.random(n - 1) < zeta
    if mode == "single_interferer":
        nz = np.flatnonzero(marks)
        if nz.size > 1:
            marks[nz[1:]] = 0
    return marks


def sample_rician_power(K: float, rng: np.random.Generator, size=None):
    """Unit-mean Rician fading power with shape factor K >= 0.

    H = |sqrt(K/(K+1)) + Z|^2 with Z circularly symmetric complex Gaussian
    of variance 1/(K+1); K = 0 degenerates to Exp(1).
    """
    if not (math.isfinite(K) and K >= 0.0):
        raise DomainError("K must be finite and >= 0")
    mean_amp = math.sqrt(K / (K + 1.0))
    sigma = math.sqrt(0.5 / (K + 1.0))
    # in place: large batches are bound by memory traffic, not arithmetic
    h = rng.standard_normal(size)
    h *= sigma
    h += mean_amp
    h *= h
    im = rng.standard_normal(size)
    im *= sigma
    im *= im
    h += im
    return h


def thinned_ratio_sum_mc(
    alpha: float,
    zeta: float,
    n_thinned: int = 200,
    n_realizations: int = 100_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Monte Carlo estimate of E[sum_i (Rt_1/Rt_i)^alpha] over the thinned process.

    Rt_i are the ordered distances of the zeta-thinned non-serving points:
    given the serving distance R_1, they form a PPP of intensity zeta*lambda
    outside R_1, so Rt_i^2 = R_1^2 + cumulative Exp(zeta*lambda*pi) gaps.
    Ratios are scale-free, so unit intensity is used.

    The expected contribution of points beyond the n-th,
    2*zeta*(lambda*pi)*Rt_1^alpha * Rt_n^(2-alpha) / (alpha-2) by Campbell's
    theorem, is added per realization, so the estimator is unbiased for the
    infinite sum whatever ``n_thinned`` is; the raw truncated sum would fall
    short by several percent for alpha near 2.

    Realizations are drawn in chunks of about a million gaps, so memory
    stays bounded whatever ``n_realizations`` is; each chunk draws its
    serving distances and then its gaps from the one seeded stream.  A
    chunk works in place on the one array of its gaps, which becomes the
    squared distances and then the ratio terms; the first and last
    squared distances are copied out for the tail term.

    Returns (mean, standard error).  ``alpha`` must be finite and exceed 2,
    and both counts must be integers >= 1.
    """
    if not (math.isfinite(alpha) and alpha > 2.0):
        raise DomainError("alpha must be finite and exceed 2")
    if not 0.0 < zeta <= 1.0:
        raise DomainError("zeta must lie in (0, 1]")
    n_thinned = check_count("n_thinned", n_thinned, 1)
    n_realizations = check_count("n_realizations", n_realizations, 1)
    rng = derive_rng(seed, 0xD157)
    half_alpha = 0.5 * alpha
    total = 0.0
    total_sq = 0.0
    chunk = max(1, min(n_realizations, 1_000_000 // n_thinned))
    remaining = n_realizations
    while remaining > 0:
        m = min(chunk, remaining)
        r1sq = rng.standard_exponential(m)
        terms = rng.standard_exponential((m, n_thinned))
        terms /= zeta
        np.cumsum(terms, axis=1, out=terms)
        terms += r1sq[:, None]  # squared distances Rt_i^2
        first = terms[:, 0].copy()
        last = terms[:, -1].copy()
        np.divide(first[:, None], terms, out=terms)
        terms **= half_alpha
        s = terms.sum(axis=1)
        s += 2.0 * zeta * first**half_alpha * last ** (1.0 - half_alpha) / (alpha - 2.0)
        total += float(s.sum())
        total_sq += float(np.square(s).sum())
        remaining -= m
    mean = total / n_realizations
    var = max(total_sq / n_realizations - mean * mean, 0.0)
    return mean, math.sqrt(var / n_realizations)
