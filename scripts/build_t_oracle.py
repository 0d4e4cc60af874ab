"""Regenerate tests/data/t_oracle.json.

Reference values for the Student-t survival/distribution functions.  Up to
nu = 200 they come from adaptive numerical quadrature of the density (mpmath
tanh-sinh), deliberately independent of the incomplete-beta route the
library itself uses.  For nu from 1e3 to 1e18 the density is too sharply
peaked for that quadrature (it is off by 5.2e-5 at nu = 1e4), so those
points come from mpmath's regularized incomplete beta, I_x(nu/2, 1/2) / 2 at
x = nu/(nu + t^2), which agrees with itself at 120 digits to 1e-63.  Also
freezes quantiles (bisection against the quadrature CDF) and log-gamma
reference points.

Working precision is 80 digits: at 50 the tanh-sinh error estimate is
optimistic for the most extreme tails (nu=200, |t|=20 is off by ~2e-10),
while at 80 every table value is verifiably converged well past the 30
stored digits.

Run from the repository root:  python3 scripts/build_t_oracle.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 80

OUT = Path(__file__).resolve().parent.parent / "tests" / "data" / "t_oracle.json"

NUS = (1, 2, 3, 5, 10, 30, 105, 200)
BETAINC_NUS = (10**3, 10**4, 10**5, 10**6, 10**9, 10**12, 10**15, 10**18)
T_GRID = (0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 14.0, 20.0)
QUANTILE_PROBES = ((0.975, 105), (0.999, 105), (0.025, 105), (0.9, 2), (0.995, 5), (0.6, 200))
LOG_GAMMA_POINTS = (
    "1e-6", "1e-4", "0.01", "0.1", "0.3", "0.5", "0.75", "0.99", "1.25", "1.4616",
    "1.75", "2.25", "2.5", "3.7", "5.5", "10", "52.5", "105.5", "337.1",
    "1000", "12345.678", "1e5", "1e6",
)


def t_pdf(nu):
    nu = mp.mpf(nu)
    c = mp.gamma((nu + 1) / 2) / (mp.sqrt(nu * mp.pi) * mp.gamma(nu / 2))
    return lambda u: c * (1 + u * u / nu) ** (-(nu + 1) / 2)


def sf_quad(t, nu):
    """P[T > t] by adaptive quadrature, always integrating the small tail.

    Complementing the large side at 50 digits would wipe out the relative
    accuracy of deep tails, so each side is integrated directly.
    """
    f = t_pdf(nu)
    t = mp.mpf(t)
    if t >= 0:
        return mp.quad(f, [t, mp.inf])
    return 1 - mp.quad(f, [-mp.inf, t])


def sf_betainc(t, nu):
    """P[T > t] as I_x(nu/2, 1/2) / 2, or its complement for t < 0."""
    t, nu = mp.mpf(t), mp.mpf(nu)
    tail = mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / (nu + t * t), regularized=True) / 2
    return tail if t >= 0 else 1 - tail


def cdf_quad(t, nu):
    f = t_pdf(nu)
    t = mp.mpf(t)
    if t <= 0:
        return mp.quad(f, [-mp.inf, t])
    return 1 - mp.quad(f, [t, mp.inf])


def quantile_quad(p, nu):
    """Bisection of the quadrature CDF; p away from 1/2 assumed."""
    p = mp.mpf(p)
    lo, hi = mp.mpf(-1), mp.mpf(1)
    while cdf_quad(lo, nu) > p:
        lo *= 2
    while cdf_quad(hi, nu) < p:
        hi *= 2
    for _ in range(120):
        mid = (lo + hi) / 2
        if cdf_quad(mid, nu) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < mp.mpf("1e-32"):
            break
    return (lo + hi) / 2


def main() -> None:
    table = []
    ts = sorted({-t for t in T_GRID} | set(T_GRID))
    for nu in NUS:
        for t in ts:
            table.append(
                {
                    "nu": nu,
                    "t": t,
                    "sf": mp.nstr(sf_quad(t, nu), 30),
                    "cdf": mp.nstr(cdf_quad(t, nu), 30),
                }
            )
        print(f"nu={nu}: {len(ts)} points")
    for nu in BETAINC_NUS:
        for t in ts:
            table.append(
                {
                    "nu": nu,
                    "t": t,
                    "sf": mp.nstr(sf_betainc(t, nu), 30),
                    "cdf": mp.nstr(sf_betainc(-t, nu), 30),
                }
            )
        print(f"nu={nu}: {len(ts)} points (incomplete beta)")
    quantiles = []
    for p, nu in QUANTILE_PROBES:
        q = quantile_quad(p, nu)
        quantiles.append({"nu": nu, "p": repr(p), "t": mp.nstr(q, 30)})
        print(f"quantile(p={p}, nu={nu}) = {mp.nstr(q, 20)}")
    log_gamma = [{"x": x, "value": mp.nstr(mp.loggamma(mp.mpf(x)), 30)} for x in LOG_GAMMA_POINTS]

    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(
        json.dumps(
            {
                "working_dps": mp.mp.dps,
                "method": "adaptive quadrature of the t density (tanh-sinh) up to nu = 200, "
                "the regularized incomplete beta from nu = 1e3, "
                "quantiles by bisection of the quadrature CDF",
                "sf_cdf": table,
                "quantiles": quantiles,
                "log_gamma": log_gamma,
            },
            indent=1,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {OUT} ({len(table)} sf/cdf pairs)")


if __name__ == "__main__":
    main()
