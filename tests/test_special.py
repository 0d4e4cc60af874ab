"""Special-function accuracy against closed forms and the quadrature oracle."""

import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvaudit import special
from mvaudit.special import (
    _BGRAT_D,
    _FAR_TAIL,
    _LARGE_A,
    ConvergenceError,
    DomainError,
    TailProbability,
    _bgrat_tail,
    _log_beta,
    log_gamma,
    reg_inc_beta,
    student_t_cdf,
    student_t_quantile,
    student_t_sf,
)


def reference_log_sf(t, nu):
    """ln P[T > t] at 40 digits, from mpmath's regularized incomplete beta.

    That cannot resolve a tail below about 1e-1000 (it raises after seconds),
    so a tail whose density is below e^-1000 comes from a quadrature of the
    density relative to its value at |t|, over breakpoints spaced by the
    density's decay length there.
    """
    with mp.workdps(40):
        u, nu = abs(mp.mpf(t)), mp.mpf(nu)
        w = nu + u * u
        log_density = -(nu + 1) / 2 * mp.log1p(u * u / nu)
        if log_density > -1000:
            log_tail = mp.log(mp.betainc(nu / 2, mp.mpf(1) / 2, 0, nu / w, regularized=True) / 2)
        else:
            h = w / ((nu + 1) * u)
            relative = mp.quad(lambda s: mp.exp(-(nu + 1) / 2 * mp.log1p((2 * u + s) * s / w)),
                               [0] + [h * 2**k for k in range(0, 64, 4)] + [mp.inf])
            log_tail = (mp.loggamma((nu + 1) / 2) - mp.loggamma(nu / 2) - mp.log(nu * mp.pi) / 2
                        + log_density + mp.log(relative))
        return log_tail if t >= 0 else mp.log1p(-mp.exp(log_tail))


class TestLogGamma:
    @pytest.mark.parametrize(
        "x, expected",
        [
            (1.0, 0.0),
            (2.0, 0.0),
            (0.5, math.log(math.sqrt(math.pi))),
            (10.0, math.log(362880.0)),
            (5.0, math.log(24.0)),
        ],
    )
    def test_closed_forms(self, x, expected):
        assert log_gamma(x) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    def test_oracle_table(self, t_oracle):
        for entry in t_oracle["log_gamma"]:
            x = float(entry["x"])
            exact = float(entry["value"])
            got = log_gamma(x)
            if abs(exact) >= 0.01:
                assert abs(got - exact) <= 1e-13 * abs(exact), x
            else:
                # near the zeros at x=1 and x=2 only absolute accuracy is meaningful
                assert abs(got - exact) <= 2e-15, x

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            log_gamma(x)

    def test_recurrence(self):
        # ln G(x+1) = ln G(x) + ln x
        for x in (1e-5, 0.2, 0.7, 3.3, 41.5):
            assert log_gamma(x + 1.0) == pytest.approx(
                log_gamma(x) + math.log(x), rel=1e-13, abs=1e-13
            )


class TestLogBeta:
    @given(
        st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False),
        st.floats(1e-3, 1e9, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200)
    def test_log_gamma_branch_is_the_formula(self, a, b):
        # the log-gamma branch: every (a, b) but b = 1/2 with a >= _LARGE_A
        assume(b != 0.5 or a < _LARGE_A)
        expected = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
        assert _log_beta(a, b).hex() == expected.hex()

    @pytest.mark.parametrize("n", [15, 16, 17, 52, 53, 100, 1000, 5000, 20000])
    def test_half_series_against_exact_beta(self, n):
        # B(n, 1/2) = 4^n n! (n-1)! / (2n)!, rounded once to a double and logged
        exact = math.log(float(Fraction(4**n * math.factorial(n) * math.factorial(n - 1),
                                        math.factorial(2 * n))))
        assert abs(_log_beta(float(n), 0.5) - exact) <= 4 * math.ulp(exact)


class TestRegIncBeta:
    @pytest.mark.parametrize(
        "x, a, b, expected",
        [
            (0.3, 1.0, 1.0, 0.3),
            (0.5, 3.7, 3.7, 0.5),
            (0.4, 2.0, 2.0, 0.4**2 * (3 - 2 * 0.4)),
            (0.0, 2.5, 1.5, 0.0),
            (1.0, 2.5, 1.5, 1.0),
        ],
    )
    def test_closed_forms(self, x, a, b, expected):
        assert reg_inc_beta(x, a, b) == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize(
        "x, a, b",
        [(-0.1, 1, 1), (1.1, 1, 1), (0.5, 0, 1), (0.5, 1, -2), (0.5, math.nan, 1)],
    )
    def test_domain(self, x, a, b):
        with pytest.raises(DomainError):
            reg_inc_beta(x, a, b)

    @given(
        # x kept away from the endpoints: near them a fractional exponent
        # amplifies the half-ulp representation error of the 1 - x argument
        # past 1e-14 no matter how the function itself is evaluated
        x=st.floats(0.01, 0.99),
        a=st.floats(0.01, 500.0),
        b=st.floats(0.01, 500.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_complement_symmetry(self, x, a, b):
        total = reg_inc_beta(x, a, b) + reg_inc_beta(1.0 - x, b, a)
        assert abs(total - 1.0) <= 1e-14

    def test_monotone_in_x(self):
        values = [reg_inc_beta(i / 200, 52.5, 0.5) for i in range(201)]
        assert all(u <= v for u, v in zip(values, values[1:]))

    def test_continued_fraction_cap_raises(self):
        # a = b = 1e6 just below the mean needs far more than _CF_MAX_ITER
        # terms: the cap raises instead of returning a partial sum
        with pytest.raises(ConvergenceError, match="did not converge for a=1000000.0"):
            reg_inc_beta(0.5 - 1e-9, 1e6, 1e6)


class TestStudentTSf:
    @pytest.mark.parametrize(
        "t, nu, expected",
        [
            (0.0, 105, 0.5),
            (0.0, 7, 0.5),
            (1.0, 1, 0.25),
            (-1.0, 1, 0.75),
            (1.0, 2, 0.5 * (1 - 1 / math.sqrt(3))),
        ],
    )
    def test_closed_forms(self, t, nu, expected):
        assert student_t_sf(t, nu).value == pytest.approx(expected, rel=1e-14)

    def test_large_nu_takes_the_normal_tail(self):
        # x = nu/(nu + t^2) is within 1e-14 of 1 here, where 1 - I_x(b, a)
        # leaves nothing; BGRAT takes I_x itself, the normal tail to within 1/nu
        for t, nu in ((1.0, 1e16), (1.1287823048921275, 218627611809579.62)):
            assert math.isclose(student_t_sf(t, nu).value, 0.5 * math.erfc(t / math.sqrt(2.0)),
                                rel_tol=1e-14)

    def test_deep_tail_at_nu_1e18(self):
        # a ln x is 5e17 times -4e-16 here: ln x must come from log1p(t^2/nu)
        exact = 2.7536241186063443900902840863e-89
        assert math.isclose(student_t_sf(20.0, 1e18).value, exact, rel_tol=1e-14)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.integers(1, 300) | st.integers(1, 10**18)
        | st.integers(0, 180).map(lambda e: round(10 ** (e / 10))),
    )
    @example(20.0, 10**18)
    @example(1.1287823048921275, 218627611809579.62)
    @example(2.0, 10**14)
    @example(6.3, 10**10)
    @example(78.0, 31623)  # found: a tail below 1e-1000, past betainc's reach
    @example(-75.0, 794328)  # found: its complement, 1.0 - 1e-1000
    @settings(max_examples=300)
    def test_within_the_bound_or_a_domain_error(self, t, nu):
        # every t statistic at every integer dof (and the found non-integer
        # one) is within 1e-12 of mpmath's incomplete beta, or a typed error;
        # where the value underflows, its log is within 1e-12
        try:
            sf = student_t_sf(t, nu)
        except DomainError:
            return
        log_exact = reference_log_sf(t, nu)
        if log_exact >= math.log(1e-300):
            exact = mp.exp(log_exact)
            assert abs(sf.value - exact) <= 1e-12 * exact
        else:
            assert abs(sf.log_value - log_exact) <= 1e-12 * abs(log_exact)

    @pytest.mark.parametrize("nu", [30, 31, 105, 1e3, 1e5, 1e8])
    def test_no_fall_at_the_far_tail_cut(self, nu):
        # the continued fraction takes over from BGRAT at t^2/nu = 20: the
        # tail, or its log where it underflows, keeps falling across the cut
        cut = math.sqrt(_FAR_TAIL * nu)
        logs = [student_t_sf(cut * (1.0 + 1e-9 * i), nu).log_value for i in range(-200, 201)]
        assert all(u > v for u, v in zip(logs, logs[1:]))

    @pytest.mark.parametrize("nu", [1e3, 1e5, 1e9, 1e18])
    def test_no_fall_where_erfc_underflows(self, nu):
        # from z = 700 on, Q(1/2, z) comes from the scaled erfc's series
        # instead of erfc: the log tail keeps falling across, at steps of 1e-12
        t = math.sqrt(nu * math.expm1(700.0 / (0.5 * nu - 0.25)))
        logs = [student_t_sf(t * (1.0 + 1e-12 * i), nu).log_value for i in range(-2000, 2001)]
        assert all(u > v for u, v in zip(logs, logs[1:]))

    @pytest.mark.parametrize("nu", [1e5, 1e8, 1e10])
    def test_cdf_does_not_fall_around_root_three(self, nu):
        # near |t| = sqrt(3) the continued fraction would change branch; BGRAT
        # has no branch there, so the cdf rises at every step of 1e-10
        for centre in (-math.sqrt(3.0), math.sqrt(3.0)):
            cdf = [student_t_cdf(centre + 1e-10 * i, nu) for i in range(-20000, 20001)]
            assert all(u <= v for u, v in zip(cdf, cdf[1:]))

    def test_bgrat_coefficients_are_their_recurrence(self):
        # d_k = (b - 1) c_k + sum over i < k of (i b - k) c_i d_(k-i) / k, with
        # b = 1/2 and c_k = 1/(2k + 1)!, in exact rationals, rounded once
        d = []
        for k in range(1, len(_BGRAT_D) + 1):
            c = [Fraction(1, math.factorial(2 * i + 1)) for i in range(1, k + 1)]
            s = sum(((Fraction(i, 2) - k) * c[i - 1] * d[k - i - 1] for i in range(1, k)),
                    Fraction(0))
            d.append(-c[-1] / 2 + s / k)
        assert [float(x) for x in d] == list(_BGRAT_D)

    def test_bgrat_converges_before_its_coefficients_run_out(self, monkeypatch):
        # a = 15 at t^2/nu = 20 is the slowest case, and its sum stops
        # changing after 27 terms: the last coefficients add nothing
        ln1p_r = math.log1p(_FAR_TAIL)
        full = _bgrat_tail(_LARGE_A, ln1p_r)
        monkeypatch.setattr(special, "_BGRAT_D", _BGRAT_D[:27])
        assert _bgrat_tail(_LARGE_A, ln1p_r) == full
        monkeypatch.setattr(special, "_BGRAT_D", _BGRAT_D[:26])
        assert _bgrat_tail(_LARGE_A, ln1p_r) != full

    def test_underflowed_tail_keeps_its_log(self):
        # past z = -(nu/2 - 1/4) ln x = 700, erfc(sqrt(z)) is no normal
        # double: Q comes from its asymptotic series, and log_value from its log
        for t, nu in ((80.0, 1e3), (1e3, 1e9), (100.0, 1e18)):
            sf = student_t_sf(t, nu)
            log_exact = reference_log_sf(t, nu)
            assert sf.value < 1e-300 and math.isfinite(sf.log_value)
            assert abs(sf.log_value - log_exact) <= 1e-14 * abs(log_exact)

    def test_cauchy_closed_form_deep(self):
        # SF(t, 1) = atan(1/t)/pi for t > 0: exercises extreme arguments
        for t in (3.0, 50.0, 1e5, 1e150):
            expected = math.atan(1.0 / t) / math.pi
            assert math.isclose(student_t_sf(t, 1).value, expected, rel_tol=1e-12)

    def test_cauchy_where_t_squared_overflows(self):
        # past t = sqrt(DBL_MAX) ~ 1.34e154 the tail is taken from log(nu / t^2),
        # and its value must not fall to 0 there
        t, p = 1e155, 1e-156
        tail = math.atan2(1.0, t) / math.pi
        assert math.isclose(student_t_sf(t, 1).value, tail, rel_tol=1e-12)
        assert math.isclose(student_t_cdf(-t, 1), tail, rel_tol=1e-12)
        assert math.isclose(student_t_quantile(p, 1), -1.0 / math.tan(math.pi * p), rel_tol=1e-12)
        grid = [1.3e154 + 1e149 * i for i in range(1001)]
        values = [student_t_sf(x, 1).value for x in grid]
        assert all(u >= v for u, v in zip(values, values[1:]))

    def test_oracle_table(self, t_oracle):
        for entry in t_oracle["sf_cdf"]:
            nu, t = entry["nu"], entry["t"]
            sf = student_t_sf(t, nu)
            cdf = student_t_cdf(t, nu)
            exact_sf = float(entry["sf"])
            exact_cdf = float(entry["cdf"])
            assert abs(sf.value - exact_sf) <= 1e-12 * exact_sf, (t, nu)
            assert abs(cdf - exact_cdf) <= 1e-12 * max(exact_cdf, 1e-300), (t, nu)

    def test_log_value_matches(self, t_oracle):
        for entry in t_oracle["sf_cdf"]:
            sf = student_t_sf(entry["t"], entry["nu"])
            if sf.value > 0:
                assert sf.log_value == pytest.approx(math.log(sf.value), rel=1e-12)

    @pytest.mark.parametrize("nu", [1, 2, 5, 105, 200])
    def test_symmetry(self, nu):
        for t in [0.05 + 0.7 * i for i in range(72)]:  # up to ~49.8
            total = student_t_sf(t, nu).value + student_t_sf(-t, nu).value
            assert abs(total - 1.0) <= 1e-14, t

    @pytest.mark.parametrize("nu", [1, 2, 5, 105, 200])
    def test_strictly_decreasing(self, nu):
        # double precision can resolve strictness from the saturated left
        # flank (~ -8) out to arbitrarily deep right tails
        grid = [-8.0 + 0.25 * i for i in range(153)]  # -8 .. 30
        values = [student_t_sf(t, nu).value for t in grid]
        assert all(u > v for u, v in zip(values, values[1:]))

    @given(
        st.floats(-60.0, 60.0, allow_nan=False),
        st.floats(-60.0, 60.0, allow_nan=False),
        st.floats(0.5, 1e6, allow_nan=False),
    )
    @settings(max_examples=300)
    def test_monotone_non_increasing(self, t1, t2, nu):
        lo, hi = sorted((t1, t2))
        assert student_t_sf(lo, nu).value >= student_t_sf(hi, nu).value

    @given(st.floats(-1e3, 1e3, allow_nan=False), st.floats(0.5, 1e6, allow_nan=False))
    @settings(max_examples=300)
    def test_tails_sum_to_one(self, t, nu):
        assert student_t_sf(t, nu).value + student_t_sf(-t, nu).value == 1.0

    def test_deep_tail_sanity(self):
        previous = None
        for t in range(0, 21):
            sf = student_t_sf(float(t), 105)
            assert sf.value > 0.0 and math.isfinite(sf.value)
            assert math.isfinite(sf.log_value)
            if previous is not None:
                assert sf.value < previous
            previous = sf.value
        assert student_t_sf(20.0, 105).value < 1e-30

    def test_log_survives_value_underflow(self):
        sf = student_t_sf(1e180, 2)
        assert sf.value == 0.0
        assert math.isfinite(sf.log_value) and sf.log_value < -700

    @pytest.mark.parametrize("t, nu", [(1.0, 0.0), (1.0, -3.0), (math.inf, 5.0), (math.nan, 5.0)])
    def test_domain(self, t, nu):
        with pytest.raises(DomainError):
            student_t_sf(t, nu)

    def test_thread_safety(self):
        args = [(0.1 * i - 3.0, nu) for i in range(80) for nu in (1, 105)]
        serial = [student_t_sf(t, nu).value for t, nu in args]
        with ThreadPoolExecutor(max_workers=8) as pool:
            concurrent = list(pool.map(lambda a: student_t_sf(*a).value, args))
        assert serial == concurrent


class TestStudentTCdf:
    @pytest.mark.parametrize(
        "t, nu, expected",
        [(0.0, 7, 0.5), (-1.0, 1, 0.25), (1.0, 1, 0.75)],
    )
    def test_closed_forms(self, t, nu, expected):
        assert student_t_cdf(t, nu) == pytest.approx(expected, rel=1e-14)

    def test_complements_sf(self):
        for t in (-9.3, -2.0, 0.0, 0.7, 4.4):
            assert student_t_cdf(t, 105) + student_t_sf(t, 105).value == pytest.approx(
                1.0, abs=1e-14
            )


def assert_smallest_double_past(alpha, nu):
    """_t_isf(alpha, nu) is the smallest double whose log tail is at most ln
    alpha, or inf where the largest double leaves more, and it is found by
    bisecting the bit patterns of the doubles in at most 64 evaluations."""
    calls = []
    tail = special._t_upper_tail
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(special, "_t_upper_tail", lambda t, v: calls.append(t) or tail(t, v))
        t = special._t_isf(alpha, nu)
    assert len(calls) <= 64
    ln_alpha = math.log(alpha)
    if t == math.inf:
        assert tail(sys.float_info.max, nu)[1] > ln_alpha
    else:
        assert tail(t, nu)[1] <= ln_alpha < tail(math.nextafter(t, 0.0), nu)[1]


class TestStudentTQuantile:
    @pytest.mark.parametrize(
        "p, nu, expected",
        [(0.5, 105, 0.0), (0.75, 1, 1.0), (0.25, 1, -1.0)],
    )
    def test_closed_forms(self, p, nu, expected):
        assert student_t_quantile(p, nu) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("nu", [1e-3, 0.5, 1, 2.5, 29, 30, 105, 1e5, 1e18, 1.7e308])
    def test_median_is_positive_zero(self, nu):
        # no special case: t = 0 has the tail ln(1/2) exactly, the smallest double that does
        q = student_t_quantile(0.5, nu)
        assert q == 0.0 and math.copysign(1.0, q) == 1.0

    def test_oracle_quantiles(self, t_oracle):
        for entry in t_oracle["quantiles"]:
            p, nu = float(entry["p"]), entry["nu"]
            q = student_t_quantile(p, nu)
            assert math.isclose(q, float(entry["t"]), rel_tol=2e-15), (p, nu)
            assert abs(student_t_cdf(q, nu) - p) <= 1e-10

    @pytest.mark.parametrize("nu", [1, 2, 5, 105, 200])
    def test_round_trip(self, nu):
        grid = [0.001 + (0.999 - 0.001) * i / 40 for i in range(41)]
        for p in grid:
            q = student_t_quantile(p, nu)
            assert abs(student_t_cdf(q, nu) - p) <= 1e-9, (p, nu)

    @pytest.mark.parametrize("p, nu", [(0.995, 99799), (0.95, 102), (0.05, 105), (1e-300, 1e18)])
    def test_few_tail_evaluations(self, p, nu):
        assert_smallest_double_past(min(p, 1.0 - p), nu)

    @given(alpha=st.floats(1e-300, 0.5, exclude_max=True), nu=st.floats(0.01, 1e18))
    @settings(max_examples=200)
    def test_smallest_double_past_alpha(self, alpha, nu):
        assert_smallest_double_past(alpha, nu)

    @pytest.mark.parametrize("nu", [0.2, 0.5, 1.5, 3, 30, 105, 1e3, 99799, 1e8, 1e18])
    def test_round_trip_to_rounding(self, nu):
        # the tail at the quantile is alpha to within what rounding t to a
        # double can move it, at every nu and far into the tail
        for alpha in (1e-12, 1e-6, 0.001, 0.025, 0.05, 0.25, 0.45, 0.4999):
            q = -student_t_quantile(alpha, nu)
            assert math.isclose(student_t_sf(q, nu).value, alpha, rel_tol=1e-13), alpha

    def test_monotone_in_p(self):
        qs = [student_t_quantile(0.02 + 0.03 * i, 105) for i in range(33)]
        assert all(u < v for u, v in zip(qs, qs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            student_t_quantile(p, 105)

    @pytest.mark.parametrize("nu", [0.0, math.nan])
    def test_dof_domain(self, nu):
        with pytest.raises(DomainError, match="^student_t_quantile requires nu > 0"):
            student_t_quantile(0.3, nu)

    def test_quantile_past_two_to_the_1023(self):
        # the doubling bracket stops at the largest double instead of at inf
        q = student_t_quantile(4.14e-112, 0.3599)
        assert 2.0**1023 < -q < sys.float_info.max
        assert math.isclose(student_t_sf(-q, 0.3599).value, 4.14e-112, rel_tol=1e-12)

    @pytest.mark.parametrize("p, nu", [(1e-300, 0.5), (1e-16, 0.01), (1 - 1e-16, 0.01)])
    def test_quantile_beyond_the_largest_double(self, p, nu):
        # even t = 1.8e308 leaves a tail above min(p, 1 - p)
        message = f"t quantile at p={p!r}, nu={nu!r} is beyond the largest double"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            student_t_quantile(p, nu)


class TestTailProbability:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            TailProbability(1.5, 0.4)

    def test_log10(self):
        tp = TailProbability(1e-10, math.log(1e-10))
        assert tp.log10 == pytest.approx(-10.0, rel=1e-12)
