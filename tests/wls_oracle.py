"""General multi-column weighted least squares, the reference for the fit.

QR on rows scaled by 1/sqrt(w), so ill-conditioned normal equations are
never inverted directly.  The through-origin fit in ``mvaudit.wls`` is
checked against this solver, and the solver against the textbook normal
equations in ``tests/test_wls.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from mvaudit.data import ElectionDataset
from mvaudit.wls import InsufficientDataError, RankDeficiencyError

_PIVOT_RTOL = 1e-12


@dataclass
class GeneralWlsProblem:
    """Observations y = X beta + noise with var(noise_n) = sigma^2 * w_n."""

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        self.X = np.atleast_2d(np.asarray(self.X, dtype=float))
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.w = np.asarray(self.w, dtype=float).ravel()
        n, p = self.X.shape
        if p < 1 or n < p:
            raise InsufficientDataError(f"need N >= p >= 1, got N={n}, p={p}")
        if self.y.shape != (n,) or self.w.shape != (n,):
            raise ValueError(f"shape mismatch: X is {n}x{p}, y {self.y.shape}, w {self.w.shape}")
        if not np.all(np.isfinite(self.X)) or not np.all(np.isfinite(self.y)):
            raise ValueError("X and y must be finite")
        if not np.all(np.isfinite(self.w)) or np.any(self.w <= 0.0):
            raise ValueError("all variance weights must be positive and finite")


@dataclass
class GeneralWlsFit:
    beta: np.ndarray
    sigma2: float
    cov_beta: np.ndarray
    dof: int
    residuals: np.ndarray


def solve_general(problem: GeneralWlsProblem) -> GeneralWlsFit:
    """Minimize sum((y_n - X_n beta)^2 / w_n) and estimate sigma^2.

    sigma2 is the weighted residual sum of squares over N - p; cov_beta is
    sigma2 * (X' W^-1 X)^-1 recovered from the QR factor.
    """
    n, p = problem.X.shape
    root_w = np.sqrt(problem.w)
    Xs = problem.X / root_w[:, None]
    ys = problem.y / root_w
    q, r = np.linalg.qr(Xs, mode="reduced")
    diag = np.abs(np.diag(r))
    if diag.max() == 0.0 or diag.min() <= _PIVOT_RTOL * diag.max():
        raise RankDeficiencyError(
            f"design matrix is numerically singular (pivot ratio {diag.min():.3e}/{diag.max():.3e})"
        )
    beta = np.linalg.solve(r, q.T @ ys)
    residuals = problem.y - problem.X @ beta
    wrss = float(np.sum(residuals * residuals / problem.w))
    dof = n - p
    sigma2 = wrss / dof if dof > 0 else 0.0
    r_inv = np.linalg.inv(r)
    cov_beta = sigma2 * (r_inv @ r_inv.T)
    return GeneralWlsFit(beta=beta, sigma2=sigma2, cov_beta=cov_beta, dof=dof, residuals=residuals)


def as_general_problem(ds: ElectionDataset) -> GeneralWlsProblem:
    """The through-origin fit expressed as a 1-column general problem."""
    used = [i for i, m in enumerate(ds.mail_total) if m > 0]
    return GeneralWlsProblem(
        X=np.array([[float(ds.ballot_c1[i])] for i in used]),
        y=np.array([float(ds.mail_c1[i]) for i in used]),
        w=np.array([float(ds.mail_total[i]) for i in used]),
    )
