"""Special-function kernel.

The first-order Marcum Q-function, its inverse in b and its exponential
approximation exp(-e^nu * b^mu), and the principal Lambert W branch.  The
kernels are thin wrappers over :mod:`scipy.special` that check their
domain: violations raise :class:`~metarel.errors.DomainError` rather than
propagating NaN.  None of them iterates: Q1 and its inverse in b are the
noncentral chi-square CDF ``chndtr`` and its inverse ``chndtrix``, so the
THz calibration needs no root finder.  scipy is imported inside the
kernels that call it, so importing this module (and the CLI) does not load
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CalibrationError, DomainError

__all__ = [
    "MarcumApproxCoeffs",
    "MarcumPolyCoeffs",
    "LS_POLY",
    "marcum_q1",
    "marcum_q1_inverse_b",
    "eval_mu_nu",
    "marcum_q1_exp_approx",
    "calibrate_marcum_coeffs",
    "lambert_w0",
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


def marcum_q1(a, b):
    """First-order Marcum Q-function Q1(a, b), for scalars or arrays.

    Q1(a, b) is the survival function at b^2 of a noncentral chi-square law
    with 2 degrees of freedom and noncentrality a^2, so it is evaluated as
    1 - chndtr(b^2, 2, a^2).  Decreasing in b, increasing in a, and
    exactly 1 at b = 0.  Scalar input returns a float.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for name, x in (("a", a), ("b", b)):
        if not ((x >= 0.0) & (x < math.inf)).all():
            raise DomainError(f"marcum_q1 requires finite {name} >= 0")
    from scipy.special import chndtr

    q = 1.0 - chndtr(b * b, 2, a * a)
    return float(q) if q.ndim == 0 else q


def marcum_q1_inverse_b(a: float, p: float) -> float:
    """The threshold b* > 0 with Q1(a, b*) = p, for 0 < p < 1.

    Q1(a, b) = 1 - F(b^2), with F the noncentral chi-square CDF at 2 degrees
    of freedom and noncentrality a^2, so b* = sqrt(chndtrix(1 - p, 2, a^2))
    with no iteration.  Anchors near 1 such as p = 1 - 1e-7 keep their
    relative precision, since 1 - p is exact there.  For p <= 1/2 the
    accuracy is bounded by the rounding of 1 - p: b* solves Q1 = p to
    within an absolute 2^-54, a relative 2^-54 / p.  A p so small that
    1 - p rounds to 1 has no finite b* and raises :class:`DomainError`.
    """
    a = _require_finite("a", a)
    p = _require_finite("p", p)
    if a < 0.0:
        raise DomainError("marcum_q1_inverse_b requires a >= 0")
    if not 0.0 < p < 1.0:
        raise DomainError("p must lie strictly in (0, 1)")
    from scipy.special import chndtrix

    b = math.sqrt(chndtrix(1.0 - p, 2, a * a))
    if not math.isfinite(b):
        raise DomainError(f"Q1({a!r}, b) = {p!r} has no finite b in double precision")
    return b


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

    Inputs up to 1e-12 relative below -1/e are rounding noise and are
    clamped to the branch point, where W0 = -1 (scipy's lambertw returns
    NaN at the float nearest -1/e); everything else is scipy's lambertw.
    """
    x = _require_finite("x", x)
    if x < -_INV_E:
        if x < -_INV_E - 1e-12 * _INV_E:
            raise DomainError("lambert_w0 requires x >= -1/e")
        x = -_INV_E
    if x == -_INV_E:
        return -1.0
    from scipy.special import lambertw

    return float(lambertw(x).real)
