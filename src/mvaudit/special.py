"""Self-contained special functions for deep-tail Student-t probabilities.

The headline quantities of this package are upper-tail probabilities around
1e-10 and below, so every routine here evaluates the small tail directly
instead of taking complements of CDF values near 1.  P[T > t] is
I_x(nu/2, 1/2) / 2 with x = nu/(nu + t^2), and ln x = -log1p(t^2/nu) is
exact to rounding however close x is to 1.  One of two routes takes it:

- nu >= 30 and t^2/nu <= 20: the large-a expansion BGRAT with b = 1/2
  (DiDonato & Morris, ACM TOMS 18(3), 1992, Algorithm 708), on
  Q(1/2, z) = erfc(sqrt(z));
- otherwise: the continued fraction on the smaller of I_x and its
  complement, from ln x and ln(1 - x).

A quantile is the smallest double whose log tail is at most ln alpha, found
by bisecting the bit patterns of the doubles.  The only dependency is the
Python standard library, whose ``math.lgamma`` is the log-gamma used here.
"""

from __future__ import annotations

import bisect
import math
import struct
import sys
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

# a = nu/2 from which ln B(a, 1/2) is taken from its large-a series, whose
# truncation error is 7e-18 at a = 15, and the t tail from BGRAT
_LARGE_A = 15.0
# t^2/nu above which the continued fraction takes the tail over from BGRAT:
# each BGRAT term is about (log1p(t^2/nu) / 2 pi)^2 times the last, so the
# expansion needs 27 terms at this cut and does not converge past t^2/nu = 534
_FAR_TAIL = 20.0


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


def _half_series(a: float) -> float:
    """ln B(a, 1/2) - ln sqrt(pi) + ln(a)/2 for a >= _LARGE_A, by its large-a series.

    ln Gamma(a) - ln Gamma(a + 1/2) cancels; this series does not (DiDonato &
    Morris, ACM TOMS 18(3), 1992, Algorithm 708).
    """
    r = 1.0 / a
    r2 = r * r
    return r * (1 / 8 - r2 * (1 / 192 - r2 * (1 / 640 - r2 * (
        17 / 14336 - r2 * (31 / 18432 - r2 * 691 / 180224)))))


def _log_beta(a: float, b: float) -> float:
    if b == 0.5 and a >= _LARGE_A:
        return _LN_SQRT_PI - 0.5 * math.log(a) + _half_series(a)
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


_CF_MAX_ITER = 500
_CF_FPMIN = 1e-300


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz scheme.

    Valid (fast-converging) for x < (a + 1)/(a + b + 2); the caller is
    responsible for routing the complementary case through (b, a, 1 - x).
    Step m applies its two partial numerators in turn and stops once the
    second's factor is within an ulp of 1.0.  (Where a is large and x is
    fixed the numerators hardly shrink, and that factor can stay an ulp
    away from 1.0 at every step.)
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
        for aa in (
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < _CF_FPMIN:
                d = _CF_FPMIN
            c = 1.0 + aa / c
            if abs(c) < _CF_FPMIN:
                c = _CF_FPMIN
            d = 1.0 / d
            h *= d * c
        if abs(d * c - 1.0) <= 2.0**-52:
            return h
    raise ConvergenceError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def _inc_beta(a: float, b: float, ln_x: float, ln_xc: float) -> tuple[float, float]:
    """(I_x(a, b), its log) for 0 < x < 1, from ln x and ln(1 - x) each computed by the caller.

    The continued fraction runs on whichever of I_x(a, b) and I_xc(b, a) is
    the numerically smaller branch; on the second, I = 1 - I_xc(b, a), whose
    log is -inf where that leaves nothing.
    """
    ln_front = a * ln_x + b * ln_xc - _log_beta(a, b)
    x = math.exp(ln_x)
    if x < (a + 1.0) / (a + b + 2.0):
        log_value = ln_front + math.log(_beta_cf(a, b, x)) - math.log(a)
        return math.exp(log_value), log_value
    value = 1.0 - math.exp(ln_front) * _beta_cf(b, a, math.exp(ln_xc)) / b
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
    return _inc_beta(a, b, math.log(x), math.log1p(-x))[0]


# d_1 .. d_32 of BGRAT for b = 1/2, which depend on nothing else, each rounded
# once from c_k = 1/(2k + 1)! and d_k = (b - 1) c_k + sum over i < k of
# (i b - k) c_i d_(k-i) / k.  The slowest case, a = 15 at t^2/nu = 20, needs 27.
_BGRAT_D = (
    -0.08333333333333333, 0.00625, -0.0005042989417989418, 4.343722442680776e-05,
    -3.896385732323232e-06, 3.5833354634507906e-07, -3.349747072060578e-08,
    3.1675854343161146e-09, -3.0210368517370963e-10, 2.900415787669253e-11,
    -2.799396748375269e-12, 2.713639320017204e-13, -2.6400478921841528e-14,
    2.576345276111418e-15, -2.5208132554200558e-16, 2.472127507451747e-17,
    -2.4292486395023516e-18, 2.3913480187649295e-19, -2.3577559464117404e-20,
    2.3279246157682317e-21, -2.3014011079062038e-22, 2.2778073573447367e-23,
    -2.2568250552677534e-24, 2.2381841130778133e-25, -2.221653734513267e-26,
    2.2070354267468694e-27, -2.1941574717669087e-28, 2.1828705107634888e-29,
    -2.1730439861920983e-30, 2.1645632514720973e-31, -2.157327205261502e-32,
    2.1512463414855992e-33,
)


def _bgrat_tail(a: float, ln1p_r: float) -> tuple[float, float]:
    """(value, log value) of I_x(a, 1/2) / 2 for a >= _LARGE_A and -ln x = ln1p_r <= ln(21).

    BGRAT with b = 1/2: I_x = G Q(1/2, z) (1 + sum of d_n J_n / J_0) with
    z = -(a - 1/4) ln x, G = Gamma(a + 1/2) / (Gamma(a) sqrt(a - 1/4)) and
    J_n from J_(n-1) by DiDonato & Morris's recurrence.  G comes from
    _half_series and Q(1/2, z) from erfc(sqrt(z)) while that is a normal
    double; past it, from the asymptotic series of the scaled erfc, so the
    log stays finite where the value underflows.
    """
    nu = a - 0.25
    z = nu * ln1p_r
    ln_g = -0.5 * math.log1p(-0.25 / a) - _half_series(a)
    if z < 700.0:
        q = math.erfc(math.sqrt(z))
        inv_j0 = math.exp(-z) * math.sqrt(z / math.pi) / q
    else:  # sqrt(pi z) e^z erfc(sqrt(z)) = sum of (-1)^k (2k - 1)!! / (2z)^k: 8 terms at z = 700
        s = term = 1.0
        k = 1
        while abs(term) > 1e-17:
            term *= (0.5 - k) / z
            s += term
            k += 1
        inv_j0 = z / s
        ln_q = math.log(s / math.sqrt(math.pi * z)) - z
    v = 0.25 / (nu * nu)
    h = 0.25 * ln1p_r * ln1p_r
    # j is J_n / J_0, and w = h^n v / J_0 the other factor of its recurrence
    w = inv_j0 * v
    j = total = 1.0
    for n, d in enumerate(_BGRAT_D):
        b2n = 2 * n + 0.5
        j = b2n * (b2n + 1.0) * v * j + (z + b2n + 1.0) * w
        w *= h
        last = total
        total += d * j
        if total == last:
            break
    if z < 700.0:
        value = 0.5 * math.exp(ln_g) * q * total
        return value, math.log(value)
    log_value = _LN_HALF + ln_g + ln_q + math.log(total)
    return math.exp(log_value), log_value


def _t_upper_tail(t: float, nu: float) -> tuple[float, float]:
    """(value, log value) of P[T > t] for t >= 0 under nu degrees of freedom.

    With r = t^2/nu, ln x = -log1p(r) and ln(1 - x) = -log1p(1/r) are each
    exact to rounding, so no accuracy is lost to 1 - x cancellation; where r
    is past the largest double, log1p(r) is 2 ln t - ln nu.
    """
    a = 0.5 * nu
    r = t * (t / nu)
    if r == 0.0:
        return 0.5, _LN_HALF
    ln1p_r = math.log1p(r) if r < math.inf else 2.0 * math.log(t) - math.log(nu)
    if a >= _LARGE_A and r <= _FAR_TAIL:
        return _bgrat_tail(a, ln1p_r)
    value, log_value = _inc_beta(a, 0.5, -ln1p_r, -math.log1p(1.0 / r))
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

    The smallest double whose directly evaluated log tail is at most the
    log of min(p, 1 - p), so within an ulp of the root up to the tail's own
    rounding.
    """
    p = float(p)
    nu = float(nu)
    if not (math.isfinite(nu) and nu > 0.0):
        raise DomainError(f"student_t_quantile requires nu > 0, got {nu!r}")
    if not (0.0 < p < 1.0):
        raise DomainError(f"student_t_quantile requires 0 < p < 1, got {p!r}")
    t = _t_isf(p if p < 0.5 else 1.0 - p, nu)
    if t == math.inf:
        raise DomainError(f"t quantile at p={p!r}, nu={nu!r} is beyond the largest double")
    return -t if p < 0.5 else t


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


# the bit pattern of the largest double; those of the nonnegative doubles,
# read as integers, are in the order of the doubles, and one past it is inf's
_T_MAX_BITS = struct.unpack("<q", struct.pack("<d", sys.float_info.max))[0]


def _t_isf(alpha: float, nu: float) -> float:
    """The smallest double t >= 0 whose log tail ln P[T > t] is at most ln alpha.

    Bisects the bit patterns from 0.0 to the largest double, at most 63 tail
    evaluations; inf where even the largest double leaves a tail above alpha.
    """
    ln_alpha = math.log(alpha)

    def past(bits: int) -> bool:
        return _t_upper_tail(_double(bits), nu)[1] <= ln_alpha

    return _double(bisect.bisect_left(range(_T_MAX_BITS + 1), True, key=past))
