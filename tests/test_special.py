"""Special-function accuracy against closed forms and the quadrature oracle."""

import math
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvaudit.special import (
    DomainError,
    TailProbability,
    _log_beta,
    log_gamma,
    reg_inc_beta,
    student_t_cdf,
    student_t_quantile,
    student_t_sf,
)


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
        # the log-gamma branch: every (a, b) but b = 1/2 with a >= 16
        assume(b != 0.5 or a < 16.0)
        expected = log_gamma(a) + log_gamma(b) - log_gamma(a + b)
        assert _log_beta(a, b).hex() == expected.hex()

    @pytest.mark.parametrize("n", [16, 17, 52, 53, 100, 1000, 5000, 20000])
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

    def test_nu_beyond_the_continued_fraction(self):
        # the complement branch leaves 1 - I <= 0: a typed error naming t and nu
        with pytest.raises(DomainError, match=r"t=1\.0, nu=1e\+16"):
            student_t_sf(1.0, 1e16)
        assert 0.0 < student_t_sf(1.1287823048921275, 218627611809579.62).value < 0.5

    def test_cauchy_closed_form_deep(self):
        # SF(t, 1) = atan(1/t)/pi for t > 0: exercises extreme arguments
        for t in (3.0, 50.0, 1e5, 1e150):
            expected = math.atan(1.0 / t) / math.pi
            assert student_t_sf(t, 1).value == pytest.approx(expected, rel=1e-12)

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


class TestStudentTQuantile:
    @pytest.mark.parametrize(
        "p, nu, expected",
        [(0.5, 105, 0.0), (0.75, 1, 1.0), (0.25, 1, -1.0)],
    )
    def test_closed_forms(self, p, nu, expected):
        assert student_t_quantile(p, nu) == pytest.approx(expected, abs=1e-12)

    def test_oracle_quantiles(self, t_oracle):
        for entry in t_oracle["quantiles"]:
            p, nu = float(entry["p"]), entry["nu"]
            q = student_t_quantile(p, nu)
            assert q == pytest.approx(float(entry["t"]), rel=1e-9, abs=1e-9)
            assert abs(student_t_cdf(q, nu) - p) <= 1e-10

    @pytest.mark.parametrize("nu", [1, 2, 5, 105, 200])
    def test_round_trip(self, nu):
        grid = [0.001 + (0.999 - 0.001) * i / 40 for i in range(41)]
        for p in grid:
            q = student_t_quantile(p, nu)
            assert abs(student_t_cdf(q, nu) - p) <= 1e-9, (p, nu)

    def test_monotone_in_p(self):
        qs = [student_t_quantile(0.02 + 0.03 * i, 105) for i in range(33)]
        assert all(u < v for u, v in zip(qs, qs[1:]))

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.5])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            student_t_quantile(p, 105)


class TestTailProbability:
    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            TailProbability(1.5, 0.4)

    def test_log10(self):
        tp = TailProbability(1e-10, math.log(1e-10))
        assert tp.log10 == pytest.approx(-10.0, rel=1e-12)
