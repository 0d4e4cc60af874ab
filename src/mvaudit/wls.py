"""Weighted through-origin least squares with a diagonal variance structure.

The audit pipeline regresses mail votes on ballot votes with district mail
totals as the variance weights.  The one-regressor sums are taken with
math.fsum, so they are correctly rounded whatever the district order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .data import DistrictRecord
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


@dataclass
class RegressionFit:
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
    residuals: dict[str, float] = field(repr=False)
    excluded: tuple[str, ...] = ()

    @property
    def slope_var(self) -> float:
        return self.sigma2 / self.s_xx


def fit_through_origin(districts: Iterable[DistrictRecord]) -> RegressionFit:
    """Fit mail_c1 = slope * ballot_c1 with var(noise) = sigma^2 * mail_total.

    Districts with no mail votes carry no information (their weight is
    undefined) and are excluded but recorded.
    """
    districts = tuple(districts)
    used = [d for d in districts if d.mail_total > 0]
    excluded = tuple(d.district_id for d in districts if d.mail_total == 0)
    if len(used) < 2:
        raise InsufficientDataError(
            f"through-origin fit needs at least 2 districts with mail votes, got {len(used)}"
        )
    if all(d.ballot_c1 == 0 for d in used):
        raise RankDeficiencyError("all ballot_c1 regressor values are zero")
    s_xx = math.fsum(d.ballot_c1 * d.ballot_c1 / d.mail_total for d in used)
    s_xy = math.fsum(d.ballot_c1 * d.mail_c1 / d.mail_total for d in used)
    slope = s_xy / s_xx
    residuals = {d.district_id: d.mail_c1 - slope * d.ballot_c1 for d in used}
    wrss = math.fsum(r * r / d.mail_total for d, r in zip(used, residuals.values()))
    n_used = len(used)
    dof = n_used - 1
    sigma2 = wrss / dof
    return RegressionFit(
        slope=slope,
        sigma2=sigma2,
        s_xx=s_xx,
        dof=dof,
        n_used=n_used,
        residuals=residuals,
        excluded=excluded,
    )

