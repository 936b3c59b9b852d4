"""Reference values that the benchmark checks program outputs against.

Nothing here calls into ``metarel``: each reference is derived again from
the model's definition, so a defect in the package cannot hide in its own
oracle.  scipy is imported inside the functions, after the timed region,
so that it does not count towards the workload's memory or set-up time.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Beyond this many geometric terms the remaining N' mass is below 1e-16 for
# every p1_hat the workloads use.
_MAX_TERMS = 10_000


def effective_p1_hat(p1: float, q: float, alpha: float, zeta: float, mode: str) -> float:
    """[p1 q / (1 - p1)]^(1/alpha), times the Theorem-2 factor
    ((1 + delta zeta) / (1 - delta))^(1/alpha) in multi-interferer mode."""
    phat = (p1 * q / (1.0 - p1)) ** (1.0 / alpha)
    if mode == "multi_interferer":
        delta = 2.0 / alpha
        phat *= ((1.0 + delta * zeta) / (1.0 - delta)) ** (1.0 / alpha)
    return phat


def _decimal(x: float) -> Fraction:
    """The decimal number a user typed for x (the shortest repr)."""
    return Fraction(repr(float(x)))


def strict_terms(zeta: float, p2: float) -> int:
    """Number of n >= 0 with (1 - zeta)^n > p2, compared exactly.

    The comparison runs in exact arithmetic on the decimal inputs, so an n
    with (1 - zeta)^n == p2 (an atom, such as zeta = 0.2, p2 = 0.8) is
    excluded, as the strict '>' convention requires, whichever way the
    binary rounding of the inputs happens to fall.
    """
    base = 1 - _decimal(zeta)
    target = _decimal(p2)
    n = 0
    while n < _MAX_TERMS and base**n > target:
        n += 1
    return n


def is_atom(zeta: float, p2: float) -> bool:
    """True when (1 - zeta)^n == p2 exactly for some n >= 0."""
    return (1 - _decimal(zeta)) ** strict_terms(zeta, p2) == _decimal(p2)


def _geometric_terms(x: float):
    """(n, P(N' = n)) for the geometric law P(N' = n) = (1 - x)^n x."""
    n = 0
    w = x
    while n < _MAX_TERMS and w > 1e-18:
        yield n, w
        n += 1
        w *= 1.0 - x


def r2_enumerated(p1: float, p2: float, q: float, alpha: float, zeta: float, mode: str) -> float:
    """Second-order reliability by direct enumeration of the N' pmf.

    Conditioned on the points, P2 = (1 - zeta)^N', so R2 sums P(N' = n)
    over the n with (1 - zeta)^n > p2.
    """
    phat = effective_p1_hat(p1, q, alpha, zeta, mode)
    if phat <= 1.0:
        return 1.0
    x = 1.0 / (phat * phat)
    return math.fsum(x * (1.0 - x) ** n for n in range(strict_terms(zeta, p2)))


def r2_finite_n1(
    p1: float, p2: float, q: float, alpha: float, zeta: float, mode: str, n1: int
) -> float:
    """Mean of the nested estimator when only the middle layer is finite.

    With N1 middle draws, P2 is estimated by Binomial(N1, (1 - zeta)^N')/N1,
    and the outer indicator compares that fraction with p2.  This carries
    the finite-N1 pull towards 1/2 that cells next to an atom show.
    """
    from scipy.stats import binom

    phat = effective_p1_hat(p1, q, alpha, zeta, mode)
    if phat <= 1.0:
        return 1.0
    x = 1.0 / (phat * phat)
    # the program compares the float fraction k/N1 with p2
    k_min = next(k for k in range(n1 + 1) if k / n1 > p2)
    base = 1.0 - zeta
    total = []
    for n, w in _geometric_terms(x):
        total.append(w * float(binom.sf(k_min - 1, n1, base**n)))
    return math.fsum(total)


def r1_enumerated(p1: float, q: float, alpha: float, zeta: float, mode: str) -> float:
    """First-order reliability E[(1 - zeta)^N'], summed as the geometric
    series x / (1 - (1 - x)(1 - zeta))."""
    phat = effective_p1_hat(p1, q, alpha, zeta, mode)
    if phat <= 1.0:
        return 1.0
    x = 1.0 / (phat * phat)
    return x / (1.0 - (1.0 - x) * (1.0 - zeta))


def r0_integrated(q: float, alpha: float, zeta: float, mode: str) -> float:
    """Conventional reliability P(SIR > q) as the p1-integral of the
    first-order reliability."""
    from scipy.integrate import quad

    value, _ = quad(
        lambda p1: r1_enumerated(p1, q, alpha, zeta, mode),
        0.0,
        1.0,
        epsabs=1e-12,
        epsrel=1e-10,
        limit=400,
    )
    return value


def mc_tolerance(
    reference: float, n_outer: int, p_inner: float = 0.5, n_inner: int = 0
) -> float:
    """Allowed |MC - reference|: five outer binomial standard errors, plus
    three standard errors of an N0-draw estimate of p_inner when the inner
    layer is finite (n_inner > 0).

    The inner term bounds how far N0 noise moves the effective p1
    threshold.  A valid seed fails this with probability below 1e-6 per
    cell; a change of the estimator's law that moves a cell by more than
    the tolerance (about 0.1 at the workloads' trial counts) fails it.
    """
    var = max(reference * (1.0 - reference), 1.0 / n_outer)
    tol = 5.0 * math.sqrt(var / n_outer)
    if n_inner:
        tol += 3.0 * math.sqrt(p_inner * (1.0 - p_inner) / n_inner)
    return tol


def interference_ratio_target(alpha: float, zeta: float) -> float:
    """(1 + delta zeta)/(1 - delta) with delta = 2/alpha."""
    delta = 2.0 / alpha
    return (1.0 + delta * zeta) / (1.0 - delta)


def marcum_b_reference(a: float, p: float) -> float:
    """b with Q1(a, b) = p, through scipy's noncentral chi-square law.

    Q1(a, b) = P(X > b^2) for X ~ ncx2(2, a^2).  For p > 1/2 the root is
    taken on the complement CDF, which keeps full relative accuracy at
    p = 1 - 1e-7.
    """
    from scipy.optimize import brentq
    from scipy.stats import ncx2

    nc = a * a
    if p > 0.5:
        def f(b: float) -> float:
            return float(ncx2.cdf(b * b, 2, nc)) - (1.0 - p)
    else:
        def f(b: float) -> float:
            return float(ncx2.sf(b * b, 2, nc)) - p
    return brentq(f, 1e-12, a + 40.0, xtol=1e-300, rtol=1e-15, maxiter=500)


def calibration_reference(a: float, p_lo: float, p_hi: float) -> tuple[float, float]:
    """(mu, nu) solving ln(-ln p) = nu + mu ln b*(p) at both anchors."""
    b_lo = marcum_b_reference(a, p_lo)
    b_hi = marcum_b_reference(a, p_hi)
    y_lo = math.log(-math.log(p_lo))
    y_hi = math.log(-math.log(p_hi))
    mu = (y_hi - y_lo) / (math.log(b_hi) - math.log(b_lo))
    return mu, y_lo - mu * math.log(b_lo)
