"""Seeded synthetic precinct-level dataset in the mvaudit CSV dialect.

Districts follow the package's own noise model: candidate-1 mail votes are
round(k * ballot_c1 + N(0, sigma^2 * mail_total)), clamped to [0, mail_total].
About 1% of districts are contested ("red"), 0.3% "dubious", and 0.2% of the
accepted ones have no mail votes at all, so the fit excludes them.

The official margin is set last by adjusting the ballot totals of accepted
("green") districts.  A ballot total enters neither the regression (which
uses ballot_c1, mail_total and mail_c1) nor the tail statistic, so it moves
the reversal threshold without touching anything else.  The margin is chosen
so that the t statistics of the two variants (dubious districts accepted or
contested) average TARGET_T.  They differ by at most about 2.4 over seeds,
so at ~1e5 degrees of freedom both reversal probabilities stay in
[1e-11, 1e-5]: deep in the tail, far from underflow.

The same (seed, n) always gives byte-identical CSV text.
"""

from __future__ import annotations

import math

import numpy as np

HEADER = "district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status"

RED_SHARE = 0.01
DUBIOUS_SHARE = 0.003
ZERO_MAIL_SHARE = 0.002
K_TRUE = 0.18
SIGMA_TRUE = 1.5
TARGET_T = 5.5


def _fit_sd(bc1, mt, mc1, green_used, red):
    """Prediction sd and point prediction of the contested aggregate.

    Float64 sums are accurate enough here: the result only steers the margin.
    """
    x, w, y = bc1[green_used], mt[green_used], mc1[green_used]
    s_xx = np.sum(x * x / w)
    slope = np.sum(x * y / w) / s_xx
    sigma2 = np.sum((y - slope * x) ** 2 / w) / (len(x) - 1)
    b, m = bc1[red].sum(), mt[red].sum()
    return slope * b, math.sqrt(sigma2 * (b * b / s_xx + m))


def generate(seed: int, n: int = 100_000) -> str:
    """CSV text of ``n`` synthetic districts drawn from ``seed``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    n_red = max(2, round(n * RED_SHARE))
    n_dubious = max(1, round(n * DUBIOUS_SHARE))
    n_zero = max(1, round(n * ZERO_MAIL_SHARE))
    order = rng.permutation(n)
    status = np.zeros(n, dtype=np.int8)  # 0 green, 1 red, 2 dubious
    status[order[:n_red]] = 1
    status[order[n_red : n_red + n_dubious]] = 2
    zero_mail = np.zeros(n, dtype=bool)
    zero_mail[order[n_red + n_dubious : n_red + n_dubious + n_zero]] = True

    ballot_total = np.rint(np.exp(rng.normal(7.0, 0.45, n))).astype(np.int64) + 100
    # Mean share 0.53 balances candidate 1's weaker mail vote, so the margin
    # adjustment below moves each ballot total by about one vote.
    share = np.clip(rng.normal(0.53, 0.07, n), 0.3, 0.7)
    ballot_c1 = np.rint(share * ballot_total).astype(np.int64)
    mail_total = np.rint(ballot_total * rng.uniform(0.2, 0.3, n)).astype(np.int64)
    mail_total[zero_mail] = 0
    noise = rng.standard_normal(n) * SIGMA_TRUE * np.sqrt(mail_total)
    mail_c1 = np.clip(np.rint(K_TRUE * ballot_c1 + noise), 0, mail_total).astype(np.int64)

    bc1, mt, mc1 = (a.astype(float) for a in (ballot_c1, mail_total, mail_c1))
    used = mail_total > 0
    # t_v = (counted_v + deficit - pred_v) / sd_v; solve t_11 + t_14 = 2 * TARGET_T.
    offsets, inv_sd = [], []
    for red in (status == 1, status != 0):
        pred, sd = _fit_sd(bc1, mt, mc1, used & ~red, red)
        offsets.append((mail_c1[red].sum() - pred) / sd)
        inv_sd.append(1.0 / sd)
    deficit = math.ceil((2 * TARGET_T - sum(offsets)) / sum(inv_sd))
    if deficit < 1:
        raise ValueError(f"seed {seed}: contested districts already exceed the target")
    margin = 2 * deficit - 1  # odd, so ceil(margin / 2) == deficit

    c2_minus_c1 = ballot_total - 2 * ballot_c1 + mail_total - 2 * mail_c1
    shift, extra = divmod(margin - int(c2_minus_c1.sum()), int(np.sum(status == 0)))
    green_idx = np.flatnonzero(status == 0)
    ballot_total[green_idx] += shift
    ballot_total[green_idx[:extra]] += 1
    if np.any(ballot_total < ballot_c1):
        raise ValueError(f"seed {seed}: margin adjustment left a negative ballot count")

    names = ("green", "red", "dubious")
    width = len(str(n))
    rows = [HEADER]
    for i, (bt, b1, m, m1, s) in enumerate(
        zip(ballot_total.tolist(), ballot_c1.tolist(), mail_total.tolist(), mail_c1.tolist(),
            status.tolist()),
        start=1,
    ):
        rows.append(f"p{i:0{width}d},Precinct {i:0{width}d},{bt},{b1},{m},{m1},{names[s]}")
    return "\n".join(rows) + "\n"
