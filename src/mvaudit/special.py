"""Self-contained special functions for deep-tail Student-t probabilities.

The headline quantities of this package are upper-tail probabilities around
1e-10 and below, so every routine here evaluates the small tail directly
(log-gamma -> regularized incomplete beta -> t survival function) instead of
taking complements of CDF values near 1.  The only dependency is the Python
standard library, whose ``math.lgamma`` is the log-gamma used here.
"""

from __future__ import annotations

import math
from typing import NamedTuple

__all__ = [
    "DomainError",
    "ConvergenceError",
    "TailProbability",
    "log_gamma",
    "reg_inc_beta",
    "student_t_sf",
    "student_t_cdf",
    "student_t_quantile",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of a special function."""


class ConvergenceError(ArithmeticError):
    """Continued-fraction evaluation hit its iteration cap."""


_LN_HALF = math.log(0.5)
_LN10 = math.log(10.0)
_LN_SQRT_PI = 0.5 * math.log(math.pi)


class TailProbability(NamedTuple("TailProbability", [("value", float), ("log_value", float)])):
    """An upper-tail probability with its log-space companion.

    ``value`` may underflow to 0.0 for extreme tails; ``log_value`` stays
    finite as long as the mathematical probability is positive.
    """

    __slots__ = ()

    def __new__(cls, value: float, log_value: float):
        if not (0.0 <= value <= 1.0):
            raise DomainError(f"tail probability {value!r} outside [0, 1]")
        return super().__new__(cls, value, log_value)

    @property
    def log10(self) -> float:
        return self.log_value / _LN10


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0 by ``math.lgamma``: exactly 0.0 at x = 1 and x = 2."""
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"log_gamma requires a positive finite argument, got {x!r}")
    return math.lgamma(x)


def _log_beta(a: float, b: float) -> float:
    if b == 0.5 and a >= 16.0:
        # ln Gamma(a) - ln Gamma(a + 1/2) cancels; its large-a series does not
        # (DiDonato & Morris, ACM TOMS 18(3), 1992, Algorithm 708)
        r = 1.0 / a
        r2 = r * r
        series = 1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * (17 / 14336 - r2 * 31 / 18432)))
        return _LN_SQRT_PI - 0.5 * math.log(a) + r * series
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


_CF_MAX_ITER = 500
_CF_TOL = 1e-16
_CF_FPMIN = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    Valid (fast-converging) for x < (a + 1)/(a + b + 2); the caller is
    responsible for routing the complementary case through (b, a, 1 - x).
    """
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_FPMIN:
        d = _CF_FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_FPMIN:
            d = _CF_FPMIN
        c = 1.0 + aa / c
        if abs(c) < _CF_FPMIN:
            c = _CF_FPMIN
        d = 1.0 / d
        delta = d * c
        h_next = h * delta
        if abs(delta - 1.0) < _CF_TOL or h_next == h:
            return h_next
        h = h_next
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _inc_beta(a: float, b: float, x: float, xc: float) -> tuple[float, float]:
    """(I_x(a, b), its log) for 0 < x < 1, from x and xc = 1 - x each computed by the caller.

    The continued fraction runs on whichever of I_x(a, b) and I_xc(b, a) is
    the numerically smaller branch; on the second, I = 1 - I_xc(b, a), whose
    log is -inf where that leaves nothing.
    """
    ln_front = a * math.log(x) + b * math.log(xc) - _log_beta(a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        log_value = ln_front + math.log(_beta_cf(a, b, x)) - math.log(a)
        return math.exp(log_value), log_value
    value = 1.0 - math.exp(ln_front) * _beta_cf(b, a, xc) / b
    return value, math.log(value) if value > 0.0 else -math.inf


def reg_inc_beta(x: float, a: float, b: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    x = float(x)
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and a > 0.0) or not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"reg_inc_beta requires a > 0 and b > 0, got a={a!r}, b={b!r}")
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    if x == 0.5 and a == b:
        return 0.5
    return _inc_beta(a, b, x, 1.0 - x)[0]


def _t_upper_tail(t: float, nu: float) -> tuple[float, float]:
    """(value, log value) of P[T > t] for t >= 0 under nu degrees of freedom.

    Works from x = nu/(nu + t^2) and its complement computed independently,
    so no accuracy is lost to 1 - x cancellation on either branch.
    """
    a = 0.5 * nu
    b = 0.5
    t2 = t * t
    denom = nu + t2
    if denom == math.inf:
        # Beyond double range for x; only the log survives.
        ln_x = math.log(nu) - 2.0 * math.log(t)
        log_value = _LN_HALF + a * ln_x - _log_beta(a, b) - math.log(a)
        return 0.0, log_value
    x = nu / denom
    xc = t2 / denom
    if xc == 0.0:
        return 0.5, _LN_HALF
    value, log_value = _inc_beta(a, b, x, xc)
    if log_value == -math.inf:  # the complement left no tail: nu is too large for the fraction
        raise DomainError(f"t tail at t={t!r}, nu={nu!r} is beyond the continued fraction's reach")
    return 0.5 * value, _LN_HALF + log_value


def student_t_sf(t: float, nu: float) -> TailProbability:
    """Survival function P[T > t] of the Student t distribution.

    The small tail is always evaluated directly, so relative accuracy is
    preserved far below the ~1e-16 resolution of ``1 - cdf``.
    """
    t = float(t)
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"student_t_sf requires nu > 0, got {nu!r}")
    if not math.isfinite(t):
        raise DomainError(f"student_t_sf requires finite t, got {t!r}")
    if t >= 0.0:
        value, log_value = _t_upper_tail(t, nu)
        return TailProbability(value, log_value)
    small, _ = _t_upper_tail(-t, nu)
    value = 1.0 - small
    return TailProbability(value, math.log1p(-small))


def student_t_cdf(t: float, nu: float) -> float:
    """P[T <= t] for the Student t distribution, via the smaller tail."""
    return student_t_sf(-t, nu).value


def student_t_quantile(p: float, nu: float) -> float:
    """Inverse CDF of the Student t distribution.

    Bisection on the directly-evaluated tail; accurate to well below 1e-10
    in probability space and monotone in p.
    """
    p = float(p)
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"student_t_quantile requires nu > 0, got {nu!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"student_t_quantile requires 0 < p < 1, got {p!r}")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -_t_isf(p, nu)
    return _t_isf(1.0 - p, nu)


def _t_isf(alpha: float, nu: float) -> float:
    """Solve student_t_sf(t, nu) == alpha for t >= 0 (alpha <= 0.5): double, then bisect."""
    lo = 0.0
    hi = 1.0
    while student_t_sf(hi, nu).value > alpha:  # the public sf raises once hi overflows
        lo = hi
        hi *= 2.0
    while hi - lo > 1e-15 * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if student_t_sf(mid, nu).value > alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
