"""Simulation of the noise model and calibration of the t-statistic claim.

Random numbers come from the counter-based Philox generator so streams can
be split reproducibly: replication r uses Philox(key=seed, counter=[0,0,0,r]),
and within a replication the district at position i consumes uniform draws
2i and 2i+1 (Box-Muller, cosine branch).

Replications are simulated in blocks of rows (replications) by districts:
at most BLOCK_ELEMENTS rows x districts, or one row where a row alone is
wider, which bounds a block's draws whatever either count.  Each row is
filled from its own stream (one generator, reset to the state of a fresh
Philox(key=seed, counter=[0,0,0,r]) before each row) and transformed
elementwise.  ``calibrate`` and ``replicate_once`` (a one-row run) share
``_replications``, which splits the dataset, fits its accepted side (also
for a default k or sigma) and sums its contested side once, before the
first block.  Simulation changes only mail_c1, so that observed fit supplies
s_xx, dof and the geometry checks, and each row recomputes only s_xy and the
weighted residual sum of squares, from the terms ``wls.fit_through_origin``
uses: int * int / int for s_xy (correctly rounded at any size; float terms
when max(ballot_c1) * max(mail_total) < 2**53 over the fitted rows, as
mail_c1 <= mail_total makes every product exact) and the correctly rounded
sum ``math.fsum`` returns, whatever the grouping; ``_fsums`` takes that sum
for a whole block at once.  So a replication gives the same bits alone, in
any block and in any order.  A run keeps one t statistic per successful
replication and, as exact integer sums, the realized contested aggregates
and the clamps: 46 B per replication at the peak on the fixture (200,000
replications), the report's tuple and its sorted copy included.

The Kolmogorov-Smirnov distance evaluates the t cdf only at the samples
where the maximum can lie, bracketing the others between evaluated ones
(``_ks_distance``); its value is that of evaluating every sample.

numpy is imported on first use, inside the array functions, so importing
the package skips it.
"""

from __future__ import annotations

import math
from itertools import compress
from operator import mul, truediv
from typing import NamedTuple

from .data import ElectionDataset, RedTotals, aggregate_red
from .errors import AuditError
from .prediction import _standardize
from .special import student_t_cdf, student_t_quantile
from .wls import RegressionFit, fit_through_origin

__all__ = [
    "ModelParameters",
    "ReplicationOutcome",
    "CalibrationReport",
    "replicate_once",
    "calibrate",
    "PROBE_QUANTILES",
]

PROBE_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)

# Draws per kind in one block (replications x districts): bounds peak memory
# whatever the replication and district counts.
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
) -> tuple[np.ndarray, int]:
    """Simulated mail_c1 counts, one row per replication, and the block's clamps.

    ``columns`` are the dataset's ``_float_columns``.  A district without mail
    votes, whose count is 0 in every draw, is not counted as a clamp.
    """
    import numpy as np
    ballot_c1, mail_total, root_mail_total = columns
    z = _standard_normals(seed, replications, len(ballot_c1))
    raw = np.rint(params.k * ballot_c1 + z * params.sigma * root_mail_total)
    clamped = np.clip(raw, 0.0, mail_total)
    return clamped.astype(int), int(np.count_nonzero((clamped != raw) & (mail_total > 0)))


class ReplicationOutcome(NamedTuple):
    """Result of one simulated pipeline pass."""

    t_stat: float | None  # None when the refit's sigma2, and so pred_sd, is 0
    red_mail_c1: int
    n_clamped: int


def _fsums(terms: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each column of a 2-D float array of one row or more, bit for bit.

    A pairwise tree of TwoSum steps, run on whole rows at a time, leaves each
    column's exact sum as hi + sum(e) over its m - 1 rounding errors e
    (Ogita, Rump & Oishi, "Accurate sum and dot product", 2005).  numpy sums
    the errors to E within 4 * m * 2**-53 * sum(|e|), and fl(hi + E) is kept
    when its TwoSum remainder plus that bound lies strictly inside half the
    gap to its nearer floating-point neighbour: then it is the correctly
    rounded sum, which ``math.fsum`` returns unless a partial sum of its own
    overflows.  Columns that fail the test, sum to zero or whose sum(|x|)
    reaches 2**1022 (which also takes in inf and NaN) are summed by
    ``math.fsum``, which also raises what it raises.  Columns are contiguous
    down the rows, so every step works on contiguous memory.
    """
    import numpy as np
    m = len(terms)
    errors = np.zeros((max(m - 1, 1), terms.shape[1]))
    x, filled = terms, 0
    with np.errstate(over="ignore", invalid="ignore"):  # such columns go to math.fsum
        while len(x) > 1:  # pair the first half of the rows with the second
            half = len(x) // 2
            a, b = x[:half], x[half : 2 * half]
            s = a + b
            b_part = s - a
            e = errors[filled : filled + half]
            np.subtract(a, s - b_part, out=e)
            e += b - b_part
            filled += half
            x = np.concatenate((s, x[-1:])) if len(x) % 2 else s
        hi = x[0]
        error_sum = errors.sum(axis=0)
        # the smallest subnormal covers the bound's own underflow
        bound = np.abs(errors).sum(axis=0) * (4 * m * 2.0**-53) + 5e-324
        total = hi + error_sum
        z = total - hi
        remainder = (hi - (total - z)) + (error_sum - z)
        size = np.abs(total)
        # false for a zero sum, whose half gap is 0
        rounded = np.abs(remainder) + bound < (size - np.nextafter(size, 0.0)) * 0.5
        rounded &= np.abs(terms).sum(axis=0) < 2.0**1022
    for i in np.flatnonzero(~rounded).tolist():
        total[i] = math.fsum(terms[:, i].tolist())
    return total


def _replications(
    ds: ElectionDataset,
    params: ModelParameters | tuple[float | None, float | None],
    seed: int,
    replications: range,
    include_dubious: bool,
) -> tuple[RegressionFit, ModelParameters, RedTotals, list[float], int, int]:
    """The observed fit, the model, the contested totals and what the replications give.

    A None in ``params`` stands for the observed accepted-side fit's slope or
    residual sd.  The t statistics are those where pred_sd is not 0, in order;
    realized and n_clamped are exact sums over every replication.  See the
    module docstring for what each replication takes from the observed side.
    """
    import numpy as np
    green, red = ds.split(include_dubious)
    k, sigma = params
    fit = None
    if k is None or sigma is None:  # a fitted default is checked before the seed
        fit = fit_through_origin(green)
        k = fit.slope if k is None else k
        sigma = math.sqrt(fit.sigma2) if sigma is None else sigma
    params = ModelParameters(k, sigma)
    if not 0 <= seed < 2**128:  # the Philox key
        raise AuditError(f"seed must be in [0, 2**128), got {seed}")
    first, last = replications.start, replications.stop - 1
    if not 0 <= first <= last < 2**64:  # one word of the Philox counter
        raise AuditError(f"replication must be in [0, 2**64), got {first if first < 0 else last}")
    totals = aggregate_red(red)
    if fit is None:
        fit = fit_through_origin(green)
    if totals.ballot_c1 == 0 and totals.mail_total == 0:
        raise AuditError(
            "contested districts have neither candidate-1 ballot votes nor mail votes: "
            "the prediction sd is 0 in every replication"
        )
    top_mail = max(ds.mail_total)
    if top_mail >= 2**53:
        raise AuditError(f"mail_total {top_mail} is 2**53 or more: counts are drawn as doubles")
    # 53-bit uniforms keep every Box-Muller |z| below 8.58
    if not math.isfinite(abs(k) * max(ds.ballot_c1) + 8.6 * sigma * math.sqrt(top_mail)):
        raise AuditError(f"model k={k!r}, sigma={sigma!r} overflows a double in the draws")
    ballot_c1, mail_total = (  # the fitted rows, selected as fit_through_origin selects them
        list(compress(column, green.mail_total)) for column in (green.ballot_c1, green.mail_total)
    )
    red_rows = np.array(ds.contested(include_dubious))
    columns = _float_columns(ds)
    used = ~red_rows & (columns[1] > 0)
    # one row per fitted district and one column per replication, for _fsums
    ballot_c1_f, mail_total_f = columns[0][used, None], columns[1][used, None]
    exact_floats = max(ballot_c1, default=0) * max(mail_total, default=0) < 2**53
    rows = max(1, BLOCK_ELEMENTS // len(ds))
    t_stats, realized, n_clamped = [], 0, 0
    for start in range(replications.start, replications.stop, rows):
        block = range(start, min(start + rows, replications.stop))
        counts, clamps = _mail_counts(columns, params, seed, block)
        block_realized = [sum(row) for row in counts[:, red_rows].tolist()]
        mail_c1 = counts.T[used]
        if exact_floats:  # exact product / exact total: rounded as the int quotient is
            s_xy = _fsums(mail_c1 * ballot_c1_f / mail_total_f)
        else:  # int * int / int is correctly rounded at any size, like the fit's own terms
            s_xy = np.array([math.fsum(map(truediv, map(mul, ballot_c1, row), mail_total))
                             for row in mail_c1.T.tolist()])
        slope = s_xy / fit.s_xx
        residuals = mail_c1 - slope * ballot_c1_f
        wrss = _fsums(residuals * residuals / mail_total_f)
        for slope_r, wrss_r, realized_r in zip(slope.tolist(), wrss.tolist(), block_realized):
            sigma2 = wrss_r / fit.dof
            _, pred_sd, t = _standardize(slope_r, sigma2, fit.s_xx, totals, realized_r)
            if pred_sd > 0.0:
                t_stats.append(t)
        realized += sum(block_realized)
        n_clamped += clamps
    return fit, params, totals, t_stats, realized, n_clamped


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
    reversal probability.  The dataset must have contested districts and its
    observed accepted side must admit a fit; the errors are ``calibrate``'s.
    """
    rows = range(replication, replication + 1)
    *_, t_stats, realized, n_clamped = _replications(ds, params, seed, rows, include_dubious)
    return ReplicationOutcome(t_stats[0] if t_stats else None, realized, n_clamped)


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
    model: ModelParameters  # the model simulated, with any fitted default filled in


# How far below the largest distance found a block's bounds must lie before its
# samples go unevaluated.  student_t_cdf is monotone only up to its own error.
# Below nu = 30, near |t| = 3**0.5, where its continued fraction changes
# branch, it falls by up to 3.2e-15 between adjacent doubles (nu = 28; 3e-16
# to 8e-16 for nu <= 12).  From nu = 30 on nothing changes branch there, and
# scans find falls of an ulp at most.  The slack is 310 times the largest fall.
_KS_SLACK = 1e-12


def _ks_distance(ordered: list[float], dof: int) -> float:
    """max over i of (i + 1)/n - F(x_i) and F(x_i) - i/n, F the t cdf.

    F is evaluated at every 32nd sample and the last.  Between samples j < k,
    F rises from F(x_j) to F(x_k), so no sample in between exceeds
    k/n - F(x_j) or F(x_k) - (j + 1)/n: a block whose two bounds lie below the
    largest distance found, by _KS_SLACK, is passed over and any other is
    split at its middle sample.  The result is the full maximum, bit for bit.
    """
    n = len(ordered)
    cdf: dict[int, float] = {}

    def F(i: int) -> float:
        if i not in cdf:
            cdf[i] = student_t_cdf(ordered[i], dof)
        return cdf[i]

    def distance(i: int) -> float:
        return max((i + 1) / n - F(i), F(i) - i / n)

    ends = [*range(0, n - 1, 32), n - 1]
    best = max(map(distance, ends))
    blocks = list(zip(ends, ends[1:]))
    while blocks:
        j, k = blocks.pop()
        if k - j < 2 or max(k / n - F(j), F(k) - (j + 1) / n) < best - _KS_SLACK:
            continue
        middle = (j + k) // 2
        best = max(best, distance(middle))
        blocks += [(j, middle), (middle, k)]
    return best


def _linear_quantile(ordered: list[float], p: float) -> float:
    """``np.quantile(ordered, p)`` of a sorted list, bit for bit but for the sign of a zero.

    numpy's default (linear) interpolation in plain Python: np.quantile
    imports numpy.ma on its first call, which a cold calibrate would pay for.
    (np.quantile partitions its input again, which can swap -0.0 and 0.0.)
    """
    h = (len(ordered) - 1) * p
    i = math.floor(h)
    a, b = ordered[i], ordered[min(i + 1, len(ordered) - 1)]
    g = h - i
    d = b - a
    return b - d * (1.0 - g) if g >= 0.5 else a + d * g


def calibrate(
    ds: ElectionDataset,
    params: ModelParameters | tuple[float | None, float | None],
    replications: int,
    seed: int,
    include_dubious: bool = False,
) -> CalibrationReport:
    """Check the t-distribution claim empirically on this dataset's geometry.

    Simulates the model ``replications`` times, collects the standardized
    statistics, and reports the Kolmogorov-Smirnov distance to the
    t distribution with the degrees of freedom of the observed accepted-side
    fit, plus probe-quantile errors.  ``params`` may also be a (k, sigma)
    pair in which None stands for that fit's slope or residual sd.  The
    dataset must have contested districts, mail totals below 2**53 (counts
    are drawn as doubles) and a model whose draws stay finite, and that fit
    must succeed; failed fits of simulated elections are counted, not fatal.
    """
    if replications < 100:
        raise AuditError(f"need at least 100 replications, got {replications}")
    fit, params, totals, t_stats, realized, n_clamped = _replications(
        ds, params, seed, range(replications), include_dubious
    )
    t_stats = tuple(t_stats)  # frees the list before sorting
    ordered = sorted(t_stats)
    ks = _ks_distance(ordered, fit.dof) if ordered else math.nan
    quantile_errors = {}
    for p in PROBE_QUANTILES:
        empirical = _linear_quantile(ordered, p) if ordered else math.nan
        quantile_errors[p] = abs(empirical - student_t_quantile(p, fit.dof))
    return CalibrationReport(
        replications=replications,
        t_stats=t_stats,
        ks_distance=ks,
        quantile_errors=quantile_errors,
        seed=seed,
        dof=fit.dof,
        failed_replications=replications - len(t_stats),
        clamped_fraction=n_clamped / (replications * len(ds)),
        mean_red_mail_c1=realized / replications,
        expected_red_mail_c1=params.k * totals.ballot_c1,
        model=params,
    )
