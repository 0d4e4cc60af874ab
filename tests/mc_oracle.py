"""Scalar Monte Carlo replication, the reference for the block kernel.

One replication at a time: draw every district's noise from the
replication's own Philox stream, build the accepted side with the simulated
mail_c1 as a new checked dataset, refit it with ``fit_through_origin`` and
standardize the realized contested aggregate with ``prediction._standardize``.
``mvaudit.montecarlo`` computes the same statistics for a block of
replications at once; ``tests/test_montecarlo.py`` requires the two to agree
bit for bit.  ``simulate_election`` returns a whole simulated dataset, for
tests that run the analysis on it.  ``ks_distance`` evaluates the t cdf at
every sample, the reference for the library's bracketed search.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple

import numpy as np

from mvaudit.data import HEADER, ElectionDataset, aggregate_red
from mvaudit.montecarlo import ModelParameters, ReplicationOutcome
from mvaudit.prediction import _standardize
from mvaudit.special import student_t_cdf
from mvaudit.wls import InsufficientDataError, RankDeficiencyError, fit_through_origin


def standard_normals(seed: int, replication: int, n: int) -> np.ndarray:
    """n standard normals; draw i is a fixed function of (seed, replication, i)."""
    bitgen = np.random.Philox(key=int(seed), counter=[0, 0, 0, int(replication)])
    u = np.random.Generator(bitgen).random(2 * n)
    radius = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    return radius * np.cos(2.0 * np.pi * u[1::2])


def simulate_mail_counts(
    ds: ElectionDataset, params: ModelParameters, seed: int, replication: int
) -> tuple[np.ndarray, int]:
    """Simulated mail_c1 counts for every district, plus how many with mail votes clamped."""
    ballot_c1 = np.array(ds.ballot_c1, dtype=float)
    mail_total = np.array(ds.mail_total, dtype=float)
    z = standard_normals(seed, replication, len(ds))
    raw = np.rint(params.k * ballot_c1 + z * params.sigma * np.sqrt(mail_total))
    clamped = np.clip(raw, 0.0, mail_total)
    n_clamped = int(np.sum((clamped != raw) & (mail_total > 0)))
    return clamped.astype(int), n_clamped


def simulate_election(
    ds: ElectionDataset, params: ModelParameters, seed: int, replication: int = 0
) -> ElectionDataset:
    """Replace every district's mail_c1 with a draw from the noise model.

    The draw is round(k * ballot_c1 + noise) with noise ~ N(0, sigma^2 *
    mail_total), clamped into [0, mail_total].  Ballot votes, totals, and
    statuses are unchanged; the result is deterministic in (seed, replication).
    """
    counts, _ = simulate_mail_counts(ds, params, seed, replication)
    return ElectionDataset(*[getattr(ds, c) for c in HEADER[:5]], counts.tolist(), ds.status)


def replicate_once(
    ds: ElectionDataset,
    params: ModelParameters,
    seed: int,
    replication: int,
    include_dubious: bool = False,
) -> ReplicationOutcome:
    """Simulate, build the accepted side anew, refit it, standardize."""
    counts, n_clamped = simulate_mail_counts(ds, params, seed, replication)
    contested = {"red", "dubious"} if include_dubious else {"red"}  # apart from ds.contested
    red_rows = [s in contested for s in ds.status]
    green_rows = [not r for r in red_rows]
    columns = [getattr(ds, c) for c in HEADER]
    simulated = [*columns[:5], tuple(map(int, counts)), columns[6]]
    green = ElectionDataset(*(tuple(compress(c, green_rows)) for c in simulated))
    red = ElectionDataset(*(tuple(compress(c, red_rows)) for c in columns))
    realized = sum(compress(simulated[5], red_rows))
    try:
        fit = fit_through_origin(green)
    except (InsufficientDataError, RankDeficiencyError):
        return ReplicationOutcome(None, realized, n_clamped)
    if fit.sigma2 <= 0.0:
        return ReplicationOutcome(None, realized, n_clamped)
    _, _, t = _standardize(fit.slope, fit.sigma2, fit.s_xx, aggregate_red(red), realized)
    return ReplicationOutcome(t, realized, n_clamped)


def ks_distance(sorted_values: np.ndarray, dof: float) -> float:
    """Kolmogorov-Smirnov distance of sorted samples to the t cdf, from every sample."""
    n = len(sorted_values)
    cdf = np.array([student_t_cdf(v, dof) for v in sorted_values])
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))


class OracleCalibration(NamedTuple):
    """The fields of ``CalibrationReport`` that the replications determine."""

    t_stats: tuple[float, ...]
    failed_replications: int
    clamped_fraction: float
    mean_red_mail_c1: float


def calibrate(
    ds: ElectionDataset,
    params: ModelParameters,
    replications: int,
    seed: int,
    include_dubious: bool = False,
) -> OracleCalibration:
    """Replications 0 .. replications-1 in order, tallied as ``calibrate`` does."""
    t_stats: list[float] = []
    total_clamped = 0
    failed = 0
    realized_total = 0  # an exact int sum
    for r in range(replications):
        outcome = replicate_once(ds, params, seed, r, include_dubious=include_dubious)
        total_clamped += outcome.n_clamped
        realized_total += outcome.red_mail_c1
        if outcome.t_stat is None:
            failed += 1
        else:
            t_stats.append(outcome.t_stat)
    return OracleCalibration(
        t_stats=tuple(t_stats),
        failed_replications=failed,
        clamped_fraction=total_clamped / (replications * len(ds)),
        mean_red_mail_c1=realized_total / replications,
    )
