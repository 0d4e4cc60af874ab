"""Aggregate prediction statistic, intervals, and the reversal tail."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvaudit.errors import AuditError
from mvaudit.prediction import analyze_dataset, prediction_interval, reversal_probability
from mvaudit.wls import fit_through_origin
from tests.conftest import dataset_of, make_random_dataset

P11 = 1.322065e-10
P14 = 5.151422e-8


def district(i, ballot_c1, mail_total, mail_c1, status="green"):
    """One CSV row; ``dataset_of`` builds a dataset of such rows."""
    return (f"p{i:03d}", f"P{i}", 2 * ballot_c1 + 10, ballot_c1, mail_total, mail_c1, status)


@pytest.fixture()
def small_fit():
    greens = [district(1, 100, 50, 40), district(2, 200, 100, 85), district(3, 150, 60, 58)]
    return fit_through_origin(dataset_of(greens))


@pytest.fixture()
def small_red():
    return dataset_of([district(9, 120, 80, 30, status="red")])


@pytest.fixture()
def small_report(small_fit, small_red):
    # the interval does not depend on the threshold
    return reversal_probability(small_fit, small_red, 0.0)


class TestReversalProbability:
    def test_headline_fixture_values(self, dataset):
        report = analyze_dataset(dataset).report
        assert report.dof == 105
        assert report.p_reversal.value == pytest.approx(P11, rel=1e-3)
        report14 = analyze_dataset(dataset, include_dubious=True).report
        assert report14.dof == 102
        assert report14.p_reversal.value == pytest.approx(P14, rel=1e-3)

    def test_threshold_at_prediction_gives_half(self, small_fit, small_red):
        threshold = small_fit.slope * 120
        report = reversal_probability(small_fit, small_red, threshold)
        assert report.t_stat == 0.0
        assert report.p_reversal.value == 0.5

    def test_monotone_in_threshold(self, small_fit, small_red):
        ps = [
            reversal_probability(small_fit, small_red, th).p_reversal.value
            for th in range(0, 200, 10)
        ]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    @given(
        data_seed=st.integers(0, 2**32 - 1),
        n_green=st.integers(2, 40),
        below=st.lists(st.floats(-1e3, -1e-3), min_size=1, max_size=5),
        above=st.lists(st.floats(1e-3, 1e12), min_size=1, max_size=10),
    )
    @settings(max_examples=100)
    def test_monotone_in_threshold_property(self, data_seed, n_green, below, above):
        # thresholds `gap` prediction sds from the prediction: t of both signs,
        # out to tails whose value underflows while log_value stays finite
        rng = np.random.default_rng(data_seed)
        green, red = make_random_dataset(rng, n_green, int(rng.integers(1, 5))).split()
        fit = fit_through_origin(green)
        assume(fit.sigma2 > 0.0)
        centre = reversal_probability(fit, red, 0.0)
        thresholds = sorted(centre.prediction + gap * centre.pred_sd for gap in below + above)
        reports = [reversal_probability(fit, red, th) for th in thresholds]
        assert reports[0].t_stat < 0.0 < reports[-1].t_stat
        values = [r.p_reversal.value for r in reports]
        logs = [r.p_reversal.log_value for r in reports]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(a >= b for a, b in zip(logs, logs[1:]))
        assert all(math.isfinite(log) for log in logs)

    def test_depends_only_on_gap(self, small_fit, small_red):
        # the standardization uses threshold and prediction only through
        # their difference: shifting both by c leaves t unchanged
        r1 = reversal_probability(small_fit, small_red, 90.0)
        for c in (1.0, 13.0, 4096.0):
            r2 = reversal_probability(small_fit, small_red, 90.0 + c)
            shifted_back = r2.t_stat - c / r2.pred_sd
            assert shifted_back == pytest.approx(r1.t_stat, abs=1e-12)

    def test_variance_composition(self, dataset):
        result = analyze_dataset(dataset)
        fit, report = result.fit, result.report
        lhs = report.pred_sd**2
        rhs = fit.slope_var * report.red_ballot_c1**2 + fit.sigma2 * report.red_mail_total
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_degenerate_fit_flagged(self, small_red):
        exact = dataset_of([district(1, 100, 50, 40), district(2, 200, 100, 80)])
        fit = fit_through_origin(exact)
        assert fit.sigma2 == 0.0
        hi = reversal_probability(fit, small_red, 1_000_000.0)
        assert hi.degenerate and hi.p_reversal.value == 0.0
        lo = reversal_probability(fit, small_red, 1.0)
        assert lo.degenerate and lo.p_reversal.value == 1.0

    def test_report_records_aggregates(self, dataset):
        report = analyze_dataset(dataset).report
        assert report.red_mail_total == 77769
        assert report.red_mail_c1 == 34479
        assert report.threshold == 49911
        assert report.variant == "M11"
        assert report.p_reversal.value == pytest.approx(
            math.exp(report.p_reversal.log_value), rel=1e-12
        )


class TestPredictionInterval:
    def test_hand_computed_half_interval(self, small_report):
        # independent arithmetic: exact rationals for the fit, closed-form
        # t quantile at 2 dof (cdf(t) = 3/4 at t = sqrt(2/3))
        s_xx = Fraction(100**2, 50) + Fraction(200**2, 100) + Fraction(150**2, 60)
        s_xy = Fraction(100 * 40, 50) + Fraction(200 * 85, 100) + Fraction(150 * 58, 60)
        slope = s_xy / s_xx
        wrss = (
            (40 - slope * 100) ** 2 / 50
            + (85 - slope * 200) ** 2 / 100
            + (58 - slope * 150) ** 2 / 60
        )
        sigma2 = wrss / 2
        prediction = slope * 120
        pred_var = sigma2 * (Fraction(120**2) / s_xx + 80)
        halfwidth = math.sqrt(2.0 / 3.0) * math.sqrt(float(pred_var))
        interval = prediction_interval(small_report, 0.5)
        assert small_report.prediction == pytest.approx(float(prediction), rel=1e-14)
        assert interval.lower == pytest.approx(float(prediction) - halfwidth, rel=1e-10)
        assert interval.upper == pytest.approx(float(prediction) + halfwidth, rel=1e-10)

    def test_width_monotone_and_collapsing(self, small_report):
        widths = [
            prediction_interval(small_report, level).upper
            - prediction_interval(small_report, level).lower
            for level in (1e-9, 0.1, 0.5, 0.9, 0.999)
        ]
        assert widths[0] < 1e-6
        assert all(a < b for a, b in zip(widths, widths[1:]))

    def test_symmetric_about_prediction(self, small_report):
        interval = prediction_interval(small_report, 0.9)
        assert interval.upper - small_report.prediction == pytest.approx(
            small_report.prediction - interval.lower, rel=1e-12
        )
        assert interval.lower <= small_report.prediction <= interval.upper

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.99])
    def test_interval_tail_duality(self, dataset, level):
        # the upper endpoint of the level-lambda interval is exactly the
        # threshold whose reversal probability is (1 - lambda)/2
        result = analyze_dataset(dataset)
        _, red = dataset.split()
        interval = prediction_interval(result.report, level)
        report = reversal_probability(result.fit, red, interval.upper)
        assert report.p_reversal.value == pytest.approx((1.0 - level) / 2.0, abs=1e-9)

    def test_threshold_far_outside_high_interval(self, dataset):
        # consistency with p ~ 1.3e-10: 49911 lies above even the 99.999% band
        result = analyze_dataset(dataset)
        interval = prediction_interval(result.report, 0.99999)
        assert interval.upper < 49911
        assert interval.lower < 34479 < interval.upper

    @pytest.mark.parametrize("level", [0.0, 1.0, -1.0, 2.0])
    def test_level_domain(self, small_report, level):
        with pytest.raises(AuditError):
            prediction_interval(small_report, level)

    def test_degenerate_report_has_no_interval(self, small_fit, small_red):
        # a zero prediction sd, from sigma2 == 0 or from a contested side with
        # neither candidate-1 ballot votes nor mail votes, has no interval
        exact = fit_through_origin(dataset_of([district(1, 100, 50, 40), district(2, 200, 100, 80)]))
        empty_red = dataset_of([district(9, 0, 0, 0, status="red")])
        for fit, red in ((exact, small_red), (small_fit, empty_red)):
            report = reversal_probability(fit, red, 1.0)
            assert report.degenerate
            assert prediction_interval(report, 0.5) is None
            with pytest.raises(AuditError):
                prediction_interval(report, 1.0)
