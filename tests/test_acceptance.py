"""Acceptance gate: every release criterion with its stated tolerance.

Each test prints one "ACCEPTANCE <n> ... PASS" line (visible with -s or -rA);
a failing criterion fails its test.  Run just this gate with

    pytest tests/test_acceptance.py -v
"""

import json
import math
import time

import numpy as np
import pytest

from mvaudit.cli import main as cli_main
from mvaudit.data import (
    aggregate_red,
    load_dataset,
    parse_dataset,
    reversal_threshold,
    serialize_dataset,
)
from mvaudit.fixtures import fixture_path
from mvaudit.montecarlo import ModelParameters, calibrate, replicate_once
from mvaudit.prediction import analyze_dataset
from mvaudit.scenario import build_reversal_scenario
from mvaudit.special import student_t_cdf, student_t_quantile, student_t_sf
from mvaudit.wls import fit_through_origin
from tests.conftest import dataset_of, make_random_dataset
from tests.test_wls import normal_equation_oracle, random_problem
from tests.wls_oracle import as_general_problem, solve_general

P11_PUBLISHED = 1.322065e-10
P14_PUBLISHED = 5.151422e-8


def report_pass(n: int, label: str) -> None:
    print(f"ACCEPTANCE {n} ({label}): PASS")


def test_criterion_1_headline_probability(dataset):
    start = time.perf_counter()
    ds = load_dataset(fixture_path())
    result = analyze_dataset(ds)
    elapsed = time.perf_counter() - start
    p = result.report.p_reversal.value
    assert abs(p / P11_PUBLISHED - 1.0) <= 1e-3, p
    assert result.report.dof == 105
    assert elapsed < 1.0, f"analysis took {elapsed:.3f}s"
    report_pass(1, f"headline p = {p:.6e} within 0.1%, {elapsed * 1e3:.0f} ms")


def test_criterion_2_published_constants(dataset):
    green, red = dataset.split()
    green14, red14 = dataset.split(True)
    totals = aggregate_red(red)
    assert totals.mail_total == 77_769
    assert totals.mail_c1 == 34_479
    assert reversal_threshold(dataset, red) == 49_911
    assert dataset.margin_official == 30_863
    assert (len(green), len(red)) == (106, 11)
    assert (len(green14), len(red14)) == (103, 14)
    report_pass(2, "77769 / 34479 / 49911 / 30863 / (106,11) / (103,14) exact")


def test_criterion_3_fourteen_district_variant(dataset):
    result = analyze_dataset(dataset, include_dubious=True)
    p = result.report.p_reversal.value
    assert result.report.dof == 102
    assert abs(p / P14_PUBLISHED - 1.0) <= 1e-3, p
    report_pass(3, f"14-district p = {p:.6e} within 0.1%")


def test_criterion_4_reversal_scenario(dataset):
    result = build_reversal_scenario(dataset, 15_432)
    assert result.resulting_margin == 1
    m = result.modified
    c1_votes = sum(m.ballot_c1) + sum(m.mail_c1)
    c2_votes = sum(m.ballot_total) - sum(m.ballot_c1) + sum(m.mail_total) - sum(m.mail_c1)
    margin = c1_votes - c2_votes
    assert margin == 1

    rng = np.random.default_rng(424242)
    for _ in range(1000):
        ds = make_random_dataset(
            rng,
            n_green=int(rng.integers(1, 7)),
            n_red=int(rng.integers(1, 6)),
            n_dubious=int(rng.integers(0, 3)),
        )
        include_dubious = bool(rng.integers(0, 2))
        _, reds = ds.split(include_dubious)
        votes = int(rng.integers(0, sum(reds.mail_total) - sum(reds.mail_c1) + 1))
        scenario = build_reversal_scenario(ds, votes, include_dubious=include_dubious)
        assert scenario.resulting_margin == -ds.margin_official + 2 * votes
        m = scenario.modified
        assert sum(m.ballot_total) + sum(m.mail_total) == sum(ds.ballot_total) + sum(ds.mail_total)
        assert m.mail_total == ds.mail_total
        assert m.ballot_total == ds.ballot_total
        for mail_c1, mail_total in zip(m.mail_c1, m.mail_total):
            assert 0 <= mail_c1 <= mail_total
        assert sum(scenario.votes_moved.values()) == votes
    report_pass(4, "margin +1 exact; invariants hold on 1000 random datasets")


def test_criterion_5_special_functions(t_oracle):
    start = time.perf_counter()
    for entry in t_oracle["sf_cdf"]:
        nu, t = entry["nu"], entry["t"]
        exact_sf, exact_cdf = float(entry["sf"]), float(entry["cdf"])
        assert abs(student_t_sf(t, nu).value - exact_sf) <= 1e-12 * exact_sf
        assert abs(student_t_cdf(t, nu) - exact_cdf) <= 1e-12 * exact_cdf
    assert len(t_oracle["sf_cdf"]) >= 200
    assert any(e["nu"] == 105 and abs(e["t"]) == 20 for e in t_oracle["sf_cdf"])

    # closed forms at 1e-14
    assert student_t_sf(1.0, 1).value == pytest.approx(0.25, rel=1e-14)
    assert student_t_sf(1.0, 2).value == pytest.approx(0.5 * (1 - 1 / math.sqrt(3)), rel=1e-14)
    assert student_t_sf(0.0, 105).value == 0.5
    from mvaudit.special import log_gamma, reg_inc_beta

    assert log_gamma(1.0) == 0.0
    assert log_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-14)
    assert log_gamma(10.0) == pytest.approx(math.log(362880.0), rel=1e-14)
    assert reg_inc_beta(0.3, 1, 1) == pytest.approx(0.3, abs=1e-14)
    assert reg_inc_beta(0.5, 3.7, 3.7) == pytest.approx(0.5, abs=1e-14)
    assert reg_inc_beta(0.4, 2, 2) == pytest.approx(0.352, abs=1e-14)

    # quantile / cdf round trip at 1e-9
    for nu in (1, 2, 5, 105, 200):
        for i in range(41):
            p = 0.001 + (0.998 * i) / 40
            q = student_t_quantile(p, nu)
            assert abs(student_t_cdf(q, nu) - p) <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"special-function suite took {elapsed:.1f}s"
    report_pass(5, f"oracle 1e-12, closed forms 1e-14, round trip 1e-9, {elapsed:.1f}s")


def test_criterion_6_wls_equivalences(dataset):
    green, _ = dataset.split()
    fit = fit_through_origin(green)
    general = solve_general(as_general_problem(green))
    assert fit.slope == pytest.approx(float(general.beta[0]), rel=1e-12)
    assert fit.sigma2 == pytest.approx(general.sigma2, rel=1e-12)

    rng = np.random.default_rng(99120)
    for _ in range(100):
        n = int(rng.integers(3, 40))
        from tests.test_wls import district

        districts = dataset_of(
            district(i, int(rng.integers(1, 5000)), int(m := rng.integers(10, 2000)),
                     int(rng.integers(0, m + 1)))
            for i in range(n)
        )
        f = fit_through_origin(districts)
        g = solve_general(as_general_problem(districts))
        assert f.slope == pytest.approx(float(g.beta[0]), rel=1e-12)
        assert f.sigma2 == pytest.approx(g.sigma2, rel=1e-12, abs=1e-18)

    rng = np.random.default_rng(515151)
    for _ in range(100):
        problem = random_problem(rng)  # N <= 50, p <= 4
        solved = solve_general(problem)
        beta, sigma2, _ = normal_equation_oracle(problem.X, problem.y, problem.w)
        assert np.all(np.abs(solved.beta - beta) <= 1e-10 * np.maximum(np.abs(beta), 1e-6))
        assert solved.sigma2 == pytest.approx(sigma2, rel=1e-10)
    report_pass(6, "through-origin == GLS (1e-12); GLS == normal equations (1e-10)")


def test_criterion_7_monte_carlo_calibration(dataset):
    green, _ = dataset.split()
    fit = fit_through_origin(green)
    params = ModelParameters(k=fit.slope, sigma=math.sqrt(fit.sigma2))
    start = time.perf_counter()
    report = calibrate(dataset, params, replications=10_000, seed=20160522)
    elapsed = time.perf_counter() - start
    bound = 1.36 / math.sqrt(10_000)
    assert report.ks_distance < bound, (report.ks_distance, bound)
    assert report.clamped_fraction < 1e-3
    assert report.failed_replications == 0
    assert abs(report.mean_red_mail_c1 / report.expected_red_mail_c1 - 1.0) < 0.01
    assert elapsed < 60.0, f"calibration took {elapsed:.1f}s"

    rerun = calibrate(dataset, params, replications=10_000, seed=20160522)
    assert rerun == report

    # replication order independence (parallel execution equivalence)
    rng = np.random.default_rng(3)
    order = rng.permutation(250)
    shuffled = [None] * 250
    for r in order:
        shuffled[r] = replicate_once(dataset, params, seed=20160522, replication=int(r)).t_stat
    assert tuple(shuffled) == report.t_stats[:250]
    report_pass(
        7,
        f"KS {report.ks_distance:.4f} < {bound:.4f}, clamped {report.clamped_fraction:.1e}, "
        f"deterministic, {elapsed:.1f}s",
    )


def test_criterion_8_determinism_and_formats(dataset, fixture_csv_path, capsys):
    # CSV round trip is the identity
    text = serialize_dataset(dataset)
    assert parse_dataset(text) == dataset
    assert serialize_dataset(parse_dataset(text)) == text
    assert fixture_csv_path.read_text(encoding="utf-8") == text

    # JSON schema stability across subcommands and runs
    fixture = str(fixture_csv_path)
    outputs = {}
    for name, argv in {
        "analyze": ["analyze", fixture, "--json"],
        "analyze14": ["analyze", fixture, "--json", "--include-dubious"],
        "scenario": ["scenario", fixture, "--json"],
        "validate": ["validate", fixture, "--json"],
        "calibrate": ["calibrate", fixture, "--reps", "100", "--seed", "5", "--json"],
    }.items():
        assert cli_main(argv) == 0
        outputs[name] = capsys.readouterr().out
        assert cli_main(argv) == 0
        assert capsys.readouterr().out == outputs[name], f"{name} not byte-stable"
    assert set(json.loads(outputs["analyze"])) == set(json.loads(outputs["analyze14"]))

    # identical seeds give byte-identical calibration reports (checked above);
    # different seeds must differ
    assert cli_main(["calibrate", fixture, "--reps", "100", "--seed", "6", "--json"]) == 0
    other_seed = capsys.readouterr().out
    assert other_seed != outputs["calibrate"]
    report_pass(8, "CSV round trip, stable JSON schemas, byte-identical reports")
