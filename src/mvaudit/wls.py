"""Weighted through-origin least squares with a diagonal variance structure.

The audit pipeline regresses mail votes on ballot votes with district mail
totals as the variance weights.  The one-regressor sums are taken with
math.fsum, so they are correctly rounded whatever the district order.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import mul, not_, sub, truediv
from typing import NamedTuple

from .data import ElectionDataset
from .errors import AuditError

__all__ = [
    "RankDeficiencyError",
    "InsufficientDataError",
    "RegressionFit",
    "fit_through_origin",
]


class RankDeficiencyError(AuditError):
    """The design matrix is numerically rank deficient."""


class InsufficientDataError(AuditError):
    """Too few usable observations for the requested fit."""


class RegressionFit(NamedTuple):
    """Through-origin fit of mail votes on ballot votes, weights 1/mail_total.

    slope     least-squares slope of mail_c1 on ballot_c1
    sigma2    noise-scale estimate: weighted RSS / (n_used - 1)
    s_xx      sum of ballot_c1^2 / mail_total over fitted districts
    dof       n_used - 1
    residuals mail_c1 - slope * ballot_c1 per fitted district
    excluded  ids of districts skipped because mail_total == 0
    """

    slope: float
    sigma2: float
    s_xx: float
    dof: int
    n_used: int
    residuals: dict[str, float]
    excluded: tuple[str, ...] = ()

    @property
    def slope_var(self) -> float:
        return self.sigma2 / self.s_xx


def fit_through_origin(ds: ElectionDataset) -> RegressionFit:
    """Fit mail_c1 = slope * ballot_c1 with var(noise) = sigma^2 * mail_total.

    Districts with no mail votes carry no information (their weight is
    undefined) and are excluded but recorded.
    """
    ids, x, y, m = (  # a count selects its row when it is not 0
        tuple(compress(column, ds.mail_total))
        for column in (ds.district_id, ds.ballot_c1, ds.mail_c1, ds.mail_total)
    )
    excluded = tuple(compress(ds.district_id, map(not_, ds.mail_total)))
    if len(ids) < 2:
        raise InsufficientDataError(
            f"through-origin fit needs at least 2 districts with mail votes, got {len(ids)}"
        )
    if not any(x):
        raise RankDeficiencyError("all ballot_c1 regressor values are zero")
    s_xx = math.fsum(map(truediv, map(mul, x, x), m))
    s_xy = math.fsum(map(truediv, map(mul, x, y), m))
    slope = s_xy / s_xx
    residuals = list(map(sub, y, map(mul, repeat(slope), x)))
    wrss = math.fsum(map(truediv, map(mul, residuals, residuals), m))
    n_used = len(ids)
    dof = n_used - 1
    sigma2 = wrss / dof
    return RegressionFit(slope, sigma2, s_xx, dof, n_used, dict(zip(ids, residuals)), excluded)
