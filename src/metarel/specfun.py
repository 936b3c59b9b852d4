"""Special-function kernel.

Modified Bessel I0, the first-order Marcum Q-function and its exponential
approximation exp(-e^nu * b^mu), the principal Lambert W branch, and the
beta function.  All functions are pure and total on their stated domains;
domain violations raise :class:`~metarel.errors.DomainError` rather than
propagating NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.integrate import quad
from scipy.optimize import brentq

from .errors import CalibrationError, DomainError

__all__ = [
    "MarcumApproxCoeffs",
    "MarcumPolyCoeffs",
    "LS_POLY",
    "bessel_i0",
    "bessel_i0e",
    "marcum_q1",
    "marcum_q1_inverse_b",
    "eval_mu_nu",
    "marcum_q1_exp_approx",
    "calibrate_marcum_coeffs",
    "lambert_w0",
    "beta_fn",
]

_INV_E = math.exp(-1.0)


@dataclass(frozen=True)
class MarcumApproxCoeffs:
    """Exponent mu and offset nu of the approximation Q1(a,b) ~ exp(-e^nu * b^mu)."""

    mu: float
    nu: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mu) and math.isfinite(self.nu)):
            raise DomainError("mu and nu must be finite")
        if self.mu <= 0.0:
            raise DomainError("mu must be positive so the approximation decreases in b")


@dataclass(frozen=True)
class MarcumPolyCoeffs:
    """Polynomial coefficients (mu_0..mu_M, nu_0..nu_M) of mu(a), nu(a)."""

    mu_poly: tuple[float, ...]
    nu_poly: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu_poly", tuple(float(c) for c in self.mu_poly))
        object.__setattr__(self, "nu_poly", tuple(float(c) for c in self.nu_poly))
        if len(self.mu_poly) != len(self.nu_poly) or not self.mu_poly:
            raise DomainError("mu_poly and nu_poly need equal length M+1 >= 1")
        if not all(math.isfinite(c) for c in self.mu_poly + self.nu_poly):
            raise DomainError("polynomial coefficients must be finite")


# Published least-squares fit of (mu(a), nu(a)), valid for a in [1, 5]
# (Rician shape K in [0.5, 12]).
LS_POLY = MarcumPolyCoeffs(
    mu_poly=(2.174, -0.592, 0.593, -0.092, 0.005),
    nu_poly=(-0.840, 0.327, -0.740, 0.083, -0.004),
)


def _require_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def bessel_i0(x: float) -> float:
    """Modified Bessel function I0(x) for x >= 0.

    Power series sum_k (x/2)^(2k) / (k!)^2; all terms are positive, so the
    straight sum is accurate to full precision wherever it does not
    overflow (x up to ~700).
    """
    x = _require_finite("x", x)
    if x < 0.0:
        raise DomainError("bessel_i0 requires x >= 0")
    total = 1.0
    term = 1.0
    k = 0
    quarter_sq = 0.25 * x * x
    while term >= 1e-17 * total:
        k += 1
        term *= quarter_sq / (k * k)
        total += term
    return total


def bessel_i0e(x: float) -> float:
    """Exponentially scaled e^-x * I0(x) for x >= 0, safe for large x."""
    x = _require_finite("x", x)
    if x < 0.0:
        raise DomainError("bessel_i0e requires x >= 0")
    if x <= 18.0:
        return bessel_i0(x) * math.exp(-x)
    # Asymptotic series: I0(x) e^-x sqrt(2 pi x) = sum ((2k-1)!!)^2 / (k! (8x)^k)
    s = 1.0
    term = 1.0
    for k in range(1, 40):
        term *= (2 * k - 1) ** 2 / (8.0 * x * k)
        new = s + term
        if new == s:
            break
        s = new
    return s / math.sqrt(2.0 * math.pi * x)


def _marcum_integrand(x: float, a: float) -> float:
    # x exp(-(x^2+a^2)/2) I0(ax) rewritten with the scaled Bessel so the
    # Gaussian factor carries all the exponential range
    return x * math.exp(-0.5 * (x - a) * (x - a)) * bessel_i0e(a * x)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function Q1(a, b).

    Q1(a,b) = int_b^inf x exp(-(x^2+a^2)/2) I0(ax) dx, evaluated by adaptive
    quadrature of the defining integral with the tail cut where the
    integrand drops below 1e-18.  Strictly decreasing in b, increasing in a.
    """
    a = _require_finite("a", a)
    b = _require_finite("b", b)
    if a < 0.0 or b < 0.0:
        raise DomainError("marcum_q1 requires a >= 0 and b >= 0")
    if b == 0.0:
        return 1.0
    if a == 0.0:
        return math.exp(-0.5 * b * b)
    upper = max(a, b) + 14.0  # integrand < 1e-18 beyond max(a,b)+14
    if b >= upper:
        return 0.0
    val, _ = quad(
        _marcum_integrand, b, upper, args=(a,), epsabs=1e-13, epsrel=1e-12, limit=200
    )
    return min(max(val, 0.0), 1.0)


def _marcum_q1_complement(a: float, b: float) -> float:
    # 1 - Q1(a, b) as the integral over [0, b], with a purely relative
    # quadrature tolerance so a complement of 1e-7 keeps ~12 digits
    val, _ = quad(_marcum_integrand, 0.0, b, args=(a,), epsabs=0.0, epsrel=1e-12, limit=200)
    return min(max(val, 0.0), 1.0)


def marcum_q1_inverse_b(a: float, p: float, tol: float = 1e-10) -> float:
    """The threshold b* > 0 with Q1(a, b*) = p.

    The root is bracketed in [0, hi] and refined with Brent's method until
    the bracket is narrower than ``tol * b*``: ``tol`` bounds the relative
    error in b, not the residual in Q1 (Q1 is flat in b near p = 1, so a
    small residual says little about b there).  For p > 1/2 the equation is
    solved as 1 - Q1(a, b) = 1 - p, with 1 - Q1 integrated directly over
    [0, b], so anchors such as p = 1 - 1e-7 keep their relative precision.
    The returned b is within ``tol`` relative of the true root for p from
    1e-3 to 1 - 1e-7; for much smaller p the absolute 1e-13 quadrature
    error of :func:`marcum_q1` starts to dominate.  ``tol`` must lie in
    [1e-15, 1).
    """
    a = _require_finite("a", a)
    p = _require_finite("p", p)
    if a < 0.0:
        raise DomainError("marcum_q1_inverse_b requires a >= 0")
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly in (0, 1)")
    if not 1e-15 <= tol < 1.0:
        raise DomainError("tol must lie in [1e-15, 1)")

    def excess(b: float) -> float:
        # increasing in b, negative at b = 0 and zero at b*
        if p > 0.5:
            return _marcum_q1_complement(a, b) - (1.0 - p)
        return p - marcum_q1(a, b)

    hi = max(a, 1.0)
    while excess(hi) < 0.0:
        hi *= 2.0
        if hi > 1e6:  # Q1 falls like a Gaussian tail; unreachable for p > 0
            raise DomainError("failed to bracket the Marcum inverse")
    return brentq(excess, 0.0, hi, xtol=1e-300, rtol=tol, maxiter=200)


def eval_mu_nu(a: float, coeffs: MarcumPolyCoeffs) -> MarcumApproxCoeffs:
    """Evaluate mu(a) = sum mu_n a^n and nu(a) = sum nu_n a^n by Horner."""
    a = _require_finite("a", a)
    mu = 0.0
    nu = 0.0
    for cm, cn in zip(reversed(coeffs.mu_poly), reversed(coeffs.nu_poly)):
        mu = mu * a + cm
        nu = nu * a + cn
    return MarcumApproxCoeffs(mu=mu, nu=nu)


def marcum_q1_exp_approx(a: float, b: float, coeffs: MarcumApproxCoeffs) -> float:
    """Exponential approximation exp(-e^nu * b^mu) of Q1(a, b).

    The dependence on a enters only through the calibrated coefficients.
    Equals 1 at b = 0 and decreases strictly in b.
    """
    b = _require_finite("b", b)
    if b < 0.0:
        raise DomainError("b must be >= 0")
    if b == 0.0:
        return 1.0
    return math.exp(-math.exp(coeffs.nu) * b**coeffs.mu)


def calibrate_marcum_coeffs(a: float, p_lo: float, p_hi: float) -> MarcumApproxCoeffs:
    """Two-point collocation of (mu, nu) in log-log space.

    Solves ln(-ln p) = nu + mu ln b*(p) at p in {p_lo, p_hi}, so the
    approximation reproduces Q1 exactly at both reliability anchors.
    """
    if not (0.0 < p_lo < p_hi < 1.0):
        raise DomainError("anchors must satisfy 0 < p_lo < p_hi < 1")
    b_lo = marcum_q1_inverse_b(a, p_lo)
    b_hi = marcum_q1_inverse_b(a, p_hi)
    log_blo, log_bhi = math.log(b_lo), math.log(b_hi)
    if abs(log_bhi - log_blo) < 1e-12:
        raise CalibrationError("degenerate anchors: b*(p_lo) == b*(p_hi)")
    y_lo = math.log(-math.log(p_lo))
    y_hi = math.log(-math.log(p_hi))
    mu = (y_hi - y_lo) / (log_bhi - log_blo)
    nu = y_lo - mu * log_blo
    return MarcumApproxCoeffs(mu=mu, nu=nu)


def lambert_w0(x: float) -> float:
    """Principal branch W0 of the Lambert W function, for x >= -1/e.

    Halley iteration from a log-based initial guess; the residual
    |W e^W - x| is driven below 1e-12 * max(1, |x|).
    """
    x = _require_finite("x", x)
    if x < -_INV_E:
        if x < -_INV_E - 1e-12 * _INV_E:
            raise DomainError("lambert_w0 requires x >= -1/e")
        x = -_INV_E
    if x == 0.0:
        return 0.0
    if x == -_INV_E:
        return -1.0
    if x >= 0.0:
        w = math.log1p(x)
        if w > 2.0:
            w = math.log(x) - math.log(math.log(x))
    elif x > -0.25:
        w = x * (1.0 - x * (1.0 - 1.5 * x))
    else:
        # series around the branch point x = -1/e
        pp = math.sqrt(2.0 * (math.e * x + 1.0))
        w = -1.0 + pp - pp * pp / 3.0 + 11.0 / 72.0 * pp**3
    tol = 1e-13 * max(1.0, abs(x))
    for _ in range(50):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= tol:
            break
        wp1 = w + 1.0
        # Halley step
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom
    return w


def beta_fn(x: float, y: float) -> float:
    """Beta function B(x, y) = Gamma(x) Gamma(y) / Gamma(x + y) via log-gamma."""
    x = _require_finite("x", x)
    y = _require_finite("y", y)
    if x <= 0.0 or y <= 0.0:
        raise DomainError("beta_fn requires x > 0 and y > 0")
    return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y))
