"""Simulation of the noise model and calibration of the t-statistic claim.

Random numbers come from the counter-based Philox generator so streams can
be split reproducibly: replication r uses Philox(key=seed, counter=[0,0,0,r]),
and within a replication the district at position i consumes uniform draws
2i and 2i+1 (Box-Muller, cosine branch).  Replications computed in any order
therefore reproduce the serial results bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import ElectionDataset, aggregate_red, contested_statuses, partition
from .errors import AuditError
from .prediction import _standardize
from .special import student_t_cdf, student_t_quantile
from .wls import InsufficientDataError, RankDeficiencyError, fit_through_origin

__all__ = [
    "ModelParameters",
    "ReplicationOutcome",
    "CalibrationReport",
    "simulate_election",
    "replicate_once",
    "calibrate",
    "PROBE_QUANTILES",
]

PROBE_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


@dataclass(frozen=True)
class ModelParameters:
    """True slope and noise scale of the generating model."""

    k: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma) and self.sigma > 0.0):
            raise AuditError(f"sigma must be positive, got {self.sigma!r}")
        if not math.isfinite(self.k):
            raise AuditError(f"k must be finite, got {self.k!r}")


def _standard_normals(seed: int, replication: int, n: int) -> np.ndarray:
    """n standard normals; draw i is a fixed function of (seed, replication, i)."""
    bitgen = np.random.Philox(key=int(seed), counter=[0, 0, 0, int(replication)])
    u = np.random.Generator(bitgen).random(2 * n)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    return radius * np.cos(2.0 * np.pi * u[1::2])


def _simulate_mail_counts(
    ds: ElectionDataset, params: ModelParameters, seed: int, replication: int
) -> tuple[np.ndarray, int]:
    """Simulated mail_c1 counts for every district, plus how many clamped."""
    ballot_c1 = np.array([d.ballot_c1 for d in ds], dtype=float)
    mail_total = np.array([d.mail_total for d in ds], dtype=float)
    z = _standard_normals(seed, replication, len(ds.districts))
    raw = np.rint(params.k * ballot_c1 + z * params.sigma * np.sqrt(mail_total))
    clamped = np.clip(raw, 0.0, mail_total)
    n_clamped = int(np.sum(clamped != raw))
    return clamped.astype(int), n_clamped


def simulate_election(
    ds: ElectionDataset, params: ModelParameters, seed: int, replication: int = 0
) -> ElectionDataset:
    """Replace every district's mail_c1 with a draw from the noise model.

    The draw is round(k * ballot_c1 + noise) with noise ~ N(0, sigma^2 *
    mail_total), clamped into [0, mail_total].  Ballot votes, totals, and
    statuses are unchanged; the result is deterministic in (seed, replication).
    """
    counts, _ = _simulate_mail_counts(ds, params, seed, replication)
    return ElectionDataset(tuple(replace(d, mail_c1=int(c)) for d, c in zip(ds, counts)))


class ReplicationOutcome(NamedTuple):
    """Result of one simulated pipeline pass."""

    t_stat: float | None  # None when the accepted-side fit failed
    red_mail_c1: int
    n_clamped: int


def replicate_once(
    ds: ElectionDataset,
    params: ModelParameters,
    seed: int,
    replication: int,
    include_dubious: bool = False,
) -> ReplicationOutcome:
    """Simulate all mail votes once, refit the accepted side, standardize.

    The realized contested aggregate plays the role of the threshold, so under
    the model the statistic should follow the t distribution used by the
    reversal probability.
    """
    counts, n_clamped = _simulate_mail_counts(ds, params, seed, replication)
    contested = contested_statuses(include_dubious)
    green = [replace(d, mail_c1=int(c)) for d, c in zip(ds, counts) if d.status not in contested]
    red = [d for d in ds if d.status in contested]
    realized = sum(int(c) for d, c in zip(ds, counts) if d.status in contested)
    try:
        fit = fit_through_origin(green)
    except (InsufficientDataError, RankDeficiencyError):
        return ReplicationOutcome(None, realized, n_clamped)
    if fit.sigma2 <= 0.0:
        return ReplicationOutcome(None, realized, n_clamped)
    _, _, t = _standardize(fit, aggregate_red(red), realized)
    return ReplicationOutcome(t, realized, n_clamped)


@dataclass(frozen=True)
class CalibrationReport:
    """Empirical distribution of the pipeline t-statistic under the model.

    t_stats holds one entry per successful replication, in replication
    order; replications whose fit failed are tallied in failed_replications.
    """

    replications: int
    t_stats: tuple[float, ...]
    ks_distance: float
    quantile_errors: dict[float, float]
    seed: int
    dof: int
    failed_replications: int
    clamped_fraction: float
    mean_red_mail_c1: float
    expected_red_mail_c1: float


def _ks_distance(sorted_values: np.ndarray, dof: int) -> float:
    n = len(sorted_values)
    cdf = np.array([student_t_cdf(v, dof) for v in sorted_values])
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


def calibrate(
    ds: ElectionDataset,
    params: ModelParameters,
    replications: int,
    seed: int,
    include_dubious: bool = False,
) -> CalibrationReport:
    """Check the t-distribution claim empirically on this dataset's geometry.

    Simulates the model ``replications`` times, collects the standardized
    statistics, and reports the Kolmogorov-Smirnov distance to the
    t distribution with the degrees of freedom of the observed accepted-side
    fit, plus probe-quantile errors.  That fit must succeed; failed fits of
    simulated elections are counted, not fatal.
    """
    if replications < 100:
        raise AuditError(f"need at least 100 replications, got {replications}")
    green, red = partition(ds, include_dubious_as_red=include_dubious)
    if not red:
        raise AuditError("dataset has no contested districts to calibrate against")
    dof = fit_through_origin(green).dof
    t_stats: list[float] = []
    total_clamped = 0
    failed = 0
    realized_total = 0.0
    for r in range(replications):
        outcome = replicate_once(ds, params, seed, r, include_dubious=include_dubious)
        total_clamped += outcome.n_clamped
        realized_total += outcome.red_mail_c1
        if outcome.t_stat is None:
            failed += 1
        else:
            t_stats.append(outcome.t_stat)
    ordered = np.sort(np.array(t_stats, dtype=float))
    ks = _ks_distance(ordered, dof) if len(ordered) else math.nan
    quantile_errors = {}
    for p in PROBE_QUANTILES:
        empirical = float(np.quantile(ordered, p)) if len(ordered) else math.nan
        quantile_errors[p] = abs(empirical - student_t_quantile(p, dof))
    return CalibrationReport(
        replications=replications,
        t_stats=tuple(t_stats),
        ks_distance=ks,
        quantile_errors=quantile_errors,
        seed=seed,
        dof=dof,
        failed_replications=failed,
        clamped_fraction=total_clamped / (replications * len(ds.districts)),
        mean_red_mail_c1=realized_total / replications,
        expected_red_mail_c1=params.k * aggregate_red(red).ballot_c1,
    )
