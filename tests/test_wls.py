"""General weighted least squares and the specialized through-origin fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvaudit.wls import InsufficientDataError, RankDeficiencyError, fit_through_origin
from tests.conftest import dataset_of
from tests.wls_oracle import GeneralWlsProblem, as_general_problem, solve_general


def normal_equation_oracle(X, y, w):
    """Direct dense (X' W^-1 X)^-1 X' W^-1 y, the textbook route."""
    X = np.asarray(X, float)
    y = np.asarray(y, float)
    w_inv = np.diag(1.0 / np.asarray(w, float))
    xtwx = X.T @ w_inv @ X
    xtwx_inv = np.linalg.inv(xtwx)
    beta = xtwx_inv @ X.T @ w_inv @ y
    resid = y - X @ beta
    dof = X.shape[0] - X.shape[1]
    sigma2 = float(resid @ w_inv @ resid) / dof if dof > 0 else 0.0
    return beta, sigma2, sigma2 * xtwx_inv


def random_problem(rng, n=None, p=None):
    n = n or int(rng.integers(6, 51))
    p = p or int(rng.integers(1, min(5, n)))
    X = rng.normal(0.0, 3.0, (n, p)) + rng.normal(0.0, 1.0, (1, p))
    y = rng.normal(0.0, 2.0, n) + X @ rng.normal(1.0, 1.0, p)
    w = rng.uniform(0.2, 9.0, n)
    return GeneralWlsProblem(X=X, y=y, w=w)


class TestSolveGeneral:
    def test_intercept_only_is_weighted_nothing(self):
        rng = np.random.default_rng(7)
        y = rng.normal(5.0, 2.0, 20)
        problem = GeneralWlsProblem(X=np.ones((20, 1)), y=y, w=np.ones(20))
        fit = solve_general(problem)
        assert fit.beta[0] == pytest.approx(float(np.mean(y)), rel=1e-13)
        assert fit.sigma2 == pytest.approx(float(np.var(y, ddof=1)), rel=1e-12)
        assert fit.dof == 19

    def test_exact_span_gives_zero_noise(self):
        rng = np.random.default_rng(8)
        X = rng.normal(0, 1, (12, 2))
        beta = np.array([2.0, -3.0])
        problem = GeneralWlsProblem(X=X, y=X @ beta, w=rng.uniform(0.5, 2.0, 12))
        fit = solve_general(problem)
        assert np.allclose(fit.beta, beta, rtol=1e-10)
        assert abs(fit.sigma2) < 1e-18
        assert np.max(np.abs(fit.residuals)) < 1e-9

    def test_random_12x2_matches_oracle(self):
        rng = np.random.default_rng(12)
        problem = random_problem(rng, n=12, p=2)
        fit = solve_general(problem)
        beta, sigma2, cov = normal_equation_oracle(problem.X, problem.y, problem.w)
        assert np.allclose(fit.beta, beta, rtol=1e-10, atol=0)
        assert fit.sigma2 == pytest.approx(sigma2, rel=1e-10)

    def test_hundred_random_problems_match_oracle(self):
        rng = np.random.default_rng(2016)
        for _ in range(100):
            problem = random_problem(rng)
            fit = solve_general(problem)
            beta, sigma2, cov = normal_equation_oracle(problem.X, problem.y, problem.w)
            assert np.all(np.abs(fit.beta - beta) <= 1e-10 * np.maximum(np.abs(beta), 1e-6))
            assert fit.sigma2 == pytest.approx(sigma2, rel=1e-10, abs=1e-14)
            assert np.allclose(fit.cov_beta, cov, rtol=1e-8, atol=1e-14)

    def test_rank_deficiency_detected(self):
        col = np.arange(1.0, 11.0)
        X = np.column_stack([col, 2.0 * col])
        with pytest.raises(RankDeficiencyError):
            solve_general(GeneralWlsProblem(X=X, y=col, w=np.ones(10)))

    def test_shape_validation(self):
        with pytest.raises(InsufficientDataError):
            GeneralWlsProblem(X=np.ones((2, 3)), y=np.ones(2), w=np.ones(2))
        with pytest.raises(ValueError):
            GeneralWlsProblem(X=np.ones((3, 1)), y=np.ones(3), w=np.array([1.0, -1.0, 1.0]))

    @given(c=st.floats(0.1, 50.0))
    @settings(max_examples=40)
    def test_weight_scale_invariance(self, c):
        rng = np.random.default_rng(99)
        problem = random_problem(rng, n=15, p=3)
        base = solve_general(problem)
        scaled = solve_general(
            GeneralWlsProblem(X=problem.X, y=problem.y, w=problem.w * c)
        )
        assert np.allclose(scaled.beta, base.beta, rtol=1e-10)
        assert scaled.sigma2 == pytest.approx(base.sigma2 / c, rel=1e-10)


def district(i, ballot_c1, mail_total, mail_c1, status="green", ballot_total=None):
    """One CSV row; ``dataset_of`` builds a dataset of such rows."""
    return (f"t{i:03d}", f"T{i}", ballot_total or max(2 * ballot_c1, 1), ballot_c1,
            mail_total, mail_c1, status)


class TestFitThroughOrigin:
    def test_exact_line(self):
        exact = dataset_of([district(1, 100, 50, 40), district(2, 200, 100, 80)])
        fit = fit_through_origin(exact)
        assert fit.slope == pytest.approx(0.4, rel=1e-15)
        assert fit.sigma2 == pytest.approx(0.0, abs=1e-20)
        assert fit.dof == 1
        assert fit.n_used == 2

    def test_single_district_insufficient(self):
        with pytest.raises(InsufficientDataError):
            fit_through_origin(dataset_of([district(1, 100, 50, 40)]))

    def test_all_zero_regressor(self):
        with pytest.raises(RankDeficiencyError):
            fit_through_origin(dataset_of([district(1, 0, 50, 10), district(2, 0, 60, 12)]))

    def test_zero_mail_districts_excluded(self):
        fit = fit_through_origin(
            dataset_of([district(1, 100, 50, 40), district(2, 200, 100, 80), district(3, 150, 0, 0)])
        )
        assert fit.excluded == ("t003",)
        assert fit.n_used == 2
        assert fit.dof == 1

    def test_matches_general_solver_on_fixture(self, dataset):
        green, _ = dataset.split()
        fit = fit_through_origin(green)
        general = solve_general(as_general_problem(green))
        assert fit.slope == pytest.approx(float(general.beta[0]), rel=1e-12)
        assert fit.sigma2 == pytest.approx(general.sigma2, rel=1e-12)
        assert fit.slope_var == pytest.approx(float(general.cov_beta[0, 0]), rel=1e-12)
        assert fit.dof == general.dof == 105

    def test_matches_general_solver_on_random_data(self):
        rng = np.random.default_rng(424242)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            districts = []
            for i in range(n):
                m = int(rng.integers(10, 2000))
                vb = int(rng.integers(1, 5000))
                vm = int(rng.integers(0, m + 1))
                districts.append(district(i, vb, m, vm))
            ds = dataset_of(districts)
            fit = fit_through_origin(ds)
            general = solve_general(as_general_problem(ds))
            assert fit.slope == pytest.approx(float(general.beta[0]), rel=1e-12)
            assert fit.sigma2 == pytest.approx(general.sigma2, rel=1e-12, abs=1e-18)

    def test_weighted_residual_orthogonality(self, dataset):
        green, _ = dataset.split()
        fit = fit_through_origin(green)
        terms = [
            ballot_c1 * (mail_c1 - fit.slope * ballot_c1) / mail_total
            for ballot_c1, mail_c1, mail_total in zip(
                green.ballot_c1, green.mail_c1, green.mail_total
            )
            if mail_total > 0
        ]
        scale = sum(abs(t) for t in terms)
        assert abs(math.fsum(terms)) <= 1e-9 * scale

    def test_scale_equivariance(self):
        base = [district(i, 50 * (i + 1), 1000, 60 + 17 * i) for i in range(6)]
        tripled = [(*d[:5], 3 * d[5], d[6]) for d in base]
        f1, f3 = fit_through_origin(dataset_of(base)), fit_through_origin(dataset_of(tripled))
        assert f3.slope == pytest.approx(3.0 * f1.slope, rel=1e-12)
        assert f3.sigma2 == pytest.approx(9.0 * f1.sigma2, rel=1e-12)
