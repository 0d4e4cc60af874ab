"""Aggregate prediction for the contested districts and the reversal tail.

Given the through-origin fit on accepted districts, the total mail vote for
candidate 1 in the contested districts is predicted as slope * ballot_c1 with
variance sigma^2 * (ballot_c1^2 / s_xx + mail_total): slope uncertainty plus
fresh noise.  Standardizing the reversal threshold against that scale gives a
Student-t statistic whose upper tail is the reversal probability.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .data import ElectionDataset, RedTotals, aggregate_red, reversal_threshold
from .errors import AuditError
from .special import TailProbability, student_t_quantile, student_t_sf
from .wls import RegressionFit, fit_through_origin

__all__ = [
    "ReversalReport",
    "PredictionInterval",
    "AnalysisResult",
    "reversal_probability",
    "prediction_interval",
    "analyze_dataset",
]


class ReversalReport(NamedTuple):
    """Everything behind one reversal probability, aggregates included."""

    red_ballot_c1: int
    red_mail_total: int
    red_mail_c1: int
    threshold: float
    prediction: float
    pred_sd: float
    t_stat: float
    dof: int
    p_reversal: TailProbability
    variant: str = "M11"
    degenerate: bool = False


class PredictionInterval(NamedTuple):
    level: float
    lower: float
    upper: float


def _standardize(
    slope: float, sigma2: float, s_xx: float, totals: RedTotals, value: float
) -> tuple[float, float, float]:
    """(prediction, pred_sd, t) for the contested aggregate and an observed ``value``.

    ``slope``, ``sigma2`` and ``s_xx`` come from the accepted-side fit.  The
    Monte Carlo calibration standardizes its simulated aggregates here too,
    so it tests exactly the statistic the analysis reports.  A zero pred_sd
    (sigma2 == 0, or contested districts with neither candidate-1 ballot
    votes nor mail votes) cannot be standardized; t is then the sign of the
    shortfall as an infinity, or 0 when there is none.
    """
    ballot_c1, mail_total = totals.ballot_c1, totals.mail_total
    prediction = slope * ballot_c1
    pred_sd = math.sqrt(sigma2 * (ballot_c1 * ballot_c1 / s_xx + mail_total))
    if pred_sd == 0.0:
        t = math.copysign(math.inf, value - prediction) if value != prediction else 0.0
    else:
        t = (value - prediction) / pred_sd
    return prediction, pred_sd, t


def reversal_probability(
    fit: RegressionFit,
    red: ElectionDataset,
    threshold: float,
    variant: str = "M11",
) -> ReversalReport:
    """Probability that the true contested mail vote reaches ``threshold``.

    A zero prediction sd cannot be standardized; the report is then flagged
    degenerate with p forced to 0 or 1 by the sign of the shortfall instead
    of silently pretending certainty was computed.
    """
    totals = aggregate_red(red)
    prediction, pred_sd, t_stat = _standardize(fit.slope, fit.sigma2, fit.s_xx, totals, threshold)
    degenerate = pred_sd == 0.0
    if degenerate:
        p = 1.0 if threshold <= prediction else 0.0
        tail = TailProbability(p, 0.0 if p == 1.0 else -math.inf)
    else:
        tail = student_t_sf(t_stat, fit.dof)
    return ReversalReport(
        red_ballot_c1=totals.ballot_c1,
        red_mail_total=totals.mail_total,
        red_mail_c1=totals.mail_c1,
        threshold=threshold,
        prediction=prediction,
        pred_sd=pred_sd,
        t_stat=t_stat,
        dof=fit.dof,
        p_reversal=tail,
        variant=variant,
        degenerate=degenerate,
    )


def prediction_interval(report: ReversalReport, level: float) -> PredictionInterval | None:
    """Two-sided prediction interval for the contested mail-vote aggregate.

    None when the report is degenerate: a zero prediction sd has no interval.
    """
    if not (0.0 < level < 1.0):
        raise AuditError(f"interval level must be in (0, 1), got {level!r}")
    if report.degenerate:
        return None
    halfwidth = student_t_quantile(0.5 * (1.0 + level), report.dof) * report.pred_sd
    return PredictionInterval(level, report.prediction - halfwidth, report.prediction + halfwidth)


class AnalysisResult(NamedTuple):
    """Full pipeline output: partition sizes, fit and reversal report."""

    n_green: int
    n_red: int
    margin_official: int
    fit: RegressionFit
    report: ReversalReport


def analyze_dataset(
    ds: ElectionDataset, include_dubious: bool = False, strict: bool = False
) -> AnalysisResult:
    """Run partition -> fit -> threshold -> reversal probability."""
    green, red = ds.split(include_dubious)
    fit = fit_through_origin(green)
    threshold = reversal_threshold(ds, red, strict=strict)
    variant = "M14" if include_dubious else "M11"
    report = reversal_probability(fit, red, threshold, variant=variant)
    return AnalysisResult(len(green), len(red), ds.margin_official, fit, report)
