"""Simulation of the noise model and calibration of the t-statistic claim.

Random numbers come from the counter-based Philox generator so streams can
be split reproducibly: replication r uses Philox(key=seed, counter=[0,0,0,r]),
and within a replication the district at position i consumes uniform draws
2i and 2i+1 (Box-Muller, cosine branch).

Replications are simulated in blocks of rows (replications) by districts:
at most BLOCK_ROWS rows and, unless one row is wider, at most BLOCK_ELEMENTS
rows x districts, so peak memory grows with neither count.  Each row is
filled from its own stream (one generator, reset to the state of a fresh
Philox(key=seed, counter=[0,0,0,r]) before each row) and transformed
elementwise.  Simulation changes only mail_c1, so the
observed accepted-side fit supplies s_xx, dof and the geometry checks, and
each row recomputes only s_xy and the weighted residual sum of squares, from
the terms ``wls.fit_through_origin`` uses: int * int / int for s_xy
(correctly rounded at any size; float terms when max(ballot_c1) *
max(mail_total) < 2**53 over the fitted rows, as mail_c1 <= mail_total makes
every product exact) and ``math.fsum`` for both sums (correctly rounded
whatever the grouping).  The realized contested aggregate is an exact
integer sum.  So a replication gives the same bits alone (``replicate_once``),
in any block and in any order; the block size only bounds peak memory.
numpy is imported on first use, inside the array functions, so importing
the package skips it.
"""

from __future__ import annotations

import math
from operator import mul, truediv
from typing import NamedTuple

from .data import ElectionDataset, aggregate_red, contested_statuses
from .errors import AuditError
from .prediction import _standardize
from .special import student_t_cdf, student_t_quantile
from .wls import InsufficientDataError, RankDeficiencyError, RegressionFit, fit_through_origin

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

# Replications simulated together, and their draws per district: bounds peak
# memory whatever the replication and district counts.
BLOCK_ROWS = 256
BLOCK_ELEMENTS = 2**15


class ModelParameters(NamedTuple("ModelParameters", [("k", float), ("sigma", float)])):
    """True slope and noise scale of the generating model."""

    __slots__ = ()

    def __new__(cls, k: float, sigma: float):
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise AuditError(f"sigma must be positive, got {sigma!r}")
        if not math.isfinite(k):
            raise AuditError(f"k must be finite, got {k!r}")
        return super().__new__(cls, k, sigma)


def _standard_normals(seed: int, replications: range, n: int) -> np.ndarray:
    """n standard normals per replication, one row each.

    Entry [j, i] is a fixed function of (seed, replications[j], i).
    """
    import numpy as np
    bitgen = np.random.Philox(key=int(seed))
    generator, state = np.random.Generator(bitgen), bitgen.state
    u = np.empty((len(replications), 2 * n))
    for row, r in zip(u, replications):
        state["state"]["counter"][3] = r
        bitgen.state = state
        generator.random(out=row)
    radius = np.sqrt(-2.0 * np.log1p(-u[:, 0::2]))
    return radius * np.cos(2.0 * np.pi * u[:, 1::2])


def _float_columns(ds: ElectionDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ballot_c1, mail_total and sqrt(mail_total) as float arrays, built once per run."""
    import numpy as np
    mail_total = np.array(ds.mail_total, dtype=float)
    return np.array(ds.ballot_c1, dtype=float), mail_total, np.sqrt(mail_total)


def _mail_counts(
    columns: tuple[np.ndarray, ...], params: ModelParameters, seed: int, replications: range
) -> tuple[np.ndarray, np.ndarray]:
    """Simulated mail_c1 counts, one row per replication, and the clamps per row.

    ``columns`` are the dataset's ``_float_columns``.
    """
    import numpy as np
    ballot_c1, mail_total, root_mail_total = columns
    z = _standard_normals(seed, replications, len(ballot_c1))
    raw = np.rint(params.k * ballot_c1 + z * params.sigma * root_mail_total)
    clamped = np.clip(raw, 0.0, mail_total)
    return clamped.astype(int), np.count_nonzero(clamped != raw, axis=1)


def simulate_election(
    ds: ElectionDataset, params: ModelParameters, seed: int, replication: int = 0
) -> ElectionDataset:
    """Replace every district's mail_c1 with a draw from the noise model.

    The draw is round(k * ballot_c1 + noise) with noise ~ N(0, sigma^2 *
    mail_total), clamped into [0, mail_total].  Ballot votes, totals, and
    statuses are unchanged; the result is deterministic in (seed, replication).
    """
    counts, _ = _mail_counts(_float_columns(ds), params, seed, range(replication, replication + 1))
    return ds.with_mail_c1(counts[0].tolist())


class ReplicationOutcome(NamedTuple):
    """Result of one simulated pipeline pass."""

    t_stat: float | None  # None when the accepted-side fit failed or pred_sd is 0
    red_mail_c1: int
    n_clamped: int


def _replications(
    ds: ElectionDataset,
    params: ModelParameters,
    seed: int,
    replications: range,
    include_dubious: bool,
    fit: RegressionFit | None,
) -> list[ReplicationOutcome]:
    """Outcomes of ``replications``, simulated a block at a time.

    ``fit`` is the through-origin fit of the observed accepted side (see the
    module docstring), or None when the geometry admits no fit: every t is
    then None.
    """
    import numpy as np
    contested = contested_statuses(include_dubious)
    red = np.array([i for i, s in enumerate(ds.status) if s in contested], dtype=np.intp)
    used = [
        i for i, (s, m) in enumerate(zip(ds.status, ds.mail_total)) if s not in contested and m > 0
    ]
    ballot_c1 = [ds.ballot_c1[i] for i in used]
    mail_total = [ds.mail_total[i] for i in used]
    used = np.array(used, dtype=np.intp)  # a list would be converted again on every block
    columns = _float_columns(ds)
    ballot_c1_f, mail_total_f = columns[0][used], columns[1][used]
    exact_floats = max(ballot_c1, default=0) * max(mail_total, default=0) < 2**53
    if fit is not None:
        totals = aggregate_red(ds.split(include_dubious)[1])
        if totals.ballot_c1 == 0 and totals.mail_total == 0:
            raise AuditError(
                "contested districts have neither candidate-1 ballot votes nor mail votes: "
                "the prediction sd is 0 in every replication"
            )
    rows = max(1, min(BLOCK_ROWS, BLOCK_ELEMENTS // max(len(ds), 1)))
    outcomes: list[ReplicationOutcome] = []
    for start in range(replications.start, replications.stop, rows):
        block = range(start, min(start + rows, replications.stop))
        counts, n_clamped = _mail_counts(columns, params, seed, block)
        realized = [sum(row) for row in counts[:, red].tolist()]
        if fit is None:
            t_stats = [None] * len(block)
        else:
            mail_c1 = counts[:, used]
            if exact_floats:  # exact product / exact total: rounded as the int quotient is
                s_xy = [math.fsum(row) for row in (mail_c1 * ballot_c1_f / mail_total_f).tolist()]
            else:  # int * int / int is correctly rounded at any size, like the fit's own terms
                s_xy = [math.fsum(map(truediv, map(mul, ballot_c1, row), mail_total))
                        for row in mail_c1.tolist()]
            slope = np.array(s_xy) / fit.s_xx
            residuals = mail_c1 - slope[:, None] * ballot_c1_f
            wrss = [math.fsum(row) for row in (residuals * residuals / mail_total_f).tolist()]
            t_stats = []
            for slope_r, wrss_r, realized_r in zip(slope.tolist(), wrss, realized):
                sigma2 = wrss_r / fit.dof
                _, pred_sd, t = _standardize(slope_r, sigma2, fit.s_xx, totals, realized_r)
                t_stats.append(t if pred_sd > 0.0 else None)
        outcomes += map(ReplicationOutcome, t_stats, realized, n_clamped.tolist())
    return outcomes


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
    green, _ = ds.split(include_dubious)
    try:
        fit = fit_through_origin(green)
    except (InsufficientDataError, RankDeficiencyError):
        fit = None
    rows = range(replication, replication + 1)
    (outcome,) = _replications(ds, params, seed, rows, include_dubious, fit)
    return outcome


class CalibrationReport(NamedTuple):
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
    import numpy as np
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
    import numpy as np
    if replications < 100:
        raise AuditError(f"need at least 100 replications, got {replications}")
    if not 0 <= seed < 2**128:
        raise AuditError(f"seed must be in [0, 2**128), got {seed}")
    green, red = ds.split(include_dubious)
    if not len(red):
        raise AuditError("dataset has no contested districts to calibrate against")
    fit = fit_through_origin(green)
    outcomes = _replications(ds, params, seed, range(replications), include_dubious, fit)
    t_stats = [o.t_stat for o in outcomes if o.t_stat is not None]
    realized_total = 0.0
    for o in outcomes:
        realized_total += o.red_mail_c1
    ordered = np.sort(np.array(t_stats, dtype=float))
    ks = _ks_distance(ordered, fit.dof) if len(ordered) else math.nan
    quantile_errors = {}
    for p in PROBE_QUANTILES:
        empirical = float(np.quantile(ordered, p)) if len(ordered) else math.nan
        quantile_errors[p] = abs(empirical - student_t_quantile(p, fit.dof))
    return CalibrationReport(
        replications=replications,
        t_stats=tuple(t_stats),
        ks_distance=ks,
        quantile_errors=quantile_errors,
        seed=seed,
        dof=fit.dof,
        failed_replications=replications - len(t_stats),
        clamped_fraction=sum(o.n_clamped for o in outcomes) / (replications * len(ds)),
        mean_red_mail_c1=realized_total / replications,
        expected_red_mail_c1=params.k * aggregate_red(red).ballot_c1,
    )
