"""Model simulation and calibration of the standardized statistic."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvaudit.data import ElectionDataset, ValidationError, aggregate_red
from mvaudit import montecarlo
from mvaudit.errors import AuditError
from mvaudit.montecarlo import (
    BLOCK_ELEMENTS,
    BLOCK_ROWS,
    ModelParameters,
    _float_columns,
    _mail_counts,
    _standard_normals,
    calibrate,
    replicate_once,
)
from mvaudit.prediction import analyze_dataset, reversal_probability
from mvaudit.wls import fit_through_origin
from tests import mc_oracle
from tests.conftest import dataset_of, make_random_dataset, rows_of
from tests.mc_oracle import simulate_election

# slope chosen so model means sit mid-range of the mail totals
PARAMS = ModelParameters(k=0.3, sigma=3.0)


def small_template(n_green=8, n_red=3):
    return dataset_of(
        (f"m{i:03d}", f"M{i}", 4000 + 137 * i, 1800 + 61 * i, 900 + 45 * i, 0,
         "green" if i < n_green else "red")
        for i in range(n_green + n_red)
    )


class TestSimulateElection:
    def test_deterministic_given_seed(self, dataset):
        params = ModelParameters(k=0.18, sigma=7.0)
        a = simulate_election(dataset, params, seed=42)
        b = simulate_election(dataset, params, seed=42)
        assert a == b
        c = simulate_election(dataset, params, seed=43)
        assert c != a

    def test_noise_free_limit(self):
        template = small_template()
        tiny = ModelParameters(k=0.8, sigma=1e-9)
        simulated = simulate_election(template, tiny, seed=1)
        for ballot_c1, mail_total, mail_c1 in zip(
            template.ballot_c1, template.mail_total, simulated.mail_c1
        ):
            expected = min(round(0.8 * ballot_c1), mail_total)
            assert mail_c1 == expected

    def test_only_mail_c1_changes(self, dataset):
        simulated = simulate_election(dataset, ModelParameters(k=0.18, sigma=7.0), seed=5)
        for column in ("district_id", "ballot_total", "ballot_c1", "mail_total", "status"):
            assert getattr(dataset, column) == getattr(simulated, column)
        for mail_c1, mail_total in zip(simulated.mail_c1, simulated.mail_total):
            assert 0 <= mail_c1 <= mail_total

    def test_district_stream_offsets(self):
        # district i's noise depends only on (seed, replication, i): a prefix
        # of the stream reproduces it, so per-district parallel generation
        # matches serial generation
        full = _standard_normals(seed=7, replications=range(3, 4), n=40)[0]
        for i in (0, 1, 17, 39):
            prefix = _standard_normals(seed=7, replications=range(3, 4), n=i + 1)[0]
            assert prefix[i] == full[i]

    @pytest.mark.parametrize("seed", [0, 2**128 - 1])
    @pytest.mark.parametrize("n", [1, 2, 7, 8])
    def test_rekeyed_streams_match_fresh_generators(self, seed, n):
        # one generator re-keyed per row must give each row what a fresh
        # Philox(key=seed, counter=[0, 0, 0, r]) gives, from mid-block on; for
        # odd n, 2n uniforms leave buffered draws behind each row
        replications = range(BLOCK_ROWS // 2, BLOCK_ROWS // 2 + 9)
        rows = _standard_normals(seed, replications, n)
        for row, r in zip(rows, replications):
            assert row.tobytes() == mc_oracle.standard_normals(seed, r, n).tobytes()

    def test_replications_are_distinct_streams(self):
        a, b = _standard_normals(seed=7, replications=range(2), n=20)
        assert not np.allclose(a, b)

    def test_simulated_variance_tracks_model(self, dataset):
        # law of large numbers on the fixture geometry: for the largest
        # districts the sample variance of mail_c1 approaches sigma^2 * m
        params = ModelParameters(k=0.18, sigma=7.0)
        n_reps = 10_000
        counts, _ = _mail_counts(_float_columns(dataset), params, 11, range(n_reps))
        mail_totals = np.array(dataset.mail_total)
        largest = np.argsort(mail_totals)[-5:]
        for i in largest:
            sample_var = counts[:, i].var(ddof=1)
            assert sample_var == pytest.approx(params.sigma**2 * mail_totals[i], rel=0.05)


class TestCalibrate:
    def test_requires_hundred_replications(self, dataset):
        with pytest.raises(AuditError, match="100"):
            calibrate(dataset, PARAMS, replications=99, seed=1)

    def test_report_shape_and_determinism(self):
        template = small_template()
        a = calibrate(template, PARAMS, replications=150, seed=9)
        b = calibrate(template, PARAMS, replications=150, seed=9)
        assert a == b
        assert len(a.t_stats) + a.failed_replications == 150
        assert a.dof == 7
        assert set(a.quantile_errors) == {0.05, 0.25, 0.5, 0.75, 0.95}
        assert a.ks_distance >= 0.0

    def test_shuffled_replication_order_matches_serial(self):
        # the counter-based streams make replication order irrelevant,
        # which is what allows parallel execution to be bit-identical
        template = small_template()
        serial = calibrate(template, PARAMS, replications=120, seed=9)
        rng = np.random.default_rng(0)
        order = rng.permutation(120)
        collected = [None] * 120
        for r in order:
            collected[r] = replicate_once(template, PARAMS, seed=9, replication=int(r)).t_stat
        assert tuple(t for t in collected if t is not None) == serial.t_stats

    def test_extreme_sigma_counts_failures(self):
        # a noise-free two-district accepted side fits exactly: sigma2 == 0,
        # every replication is counted as failed and the report stays formed
        template = dataset_of(
            (
                ("g1", "G1", 1000, 500, 400, 0, "green"),
                ("g2", "G2", 1000, 250, 400, 0, "green"),
                ("r1", "R1", 1000, 400, 400, 0, "red"),
            )
        )
        report = calibrate(template, ModelParameters(k=0.5, sigma=1e-9), 100, seed=3)
        assert report.failed_replications == 100
        assert report.t_stats == ()
        assert math.isnan(report.ks_distance)

    def test_loose_ks_on_small_run(self, dataset):
        green, _ = dataset.split()
        fit = fit_through_origin(green)
        params = ModelParameters(k=fit.slope, sigma=math.sqrt(fit.sigma2))
        report = calibrate(dataset, params, replications=400, seed=20160522)
        assert report.failed_replications == 0
        assert report.ks_distance < 1.36 / math.sqrt(400)
        assert report.clamped_fraction <= 0.001
        assert report.mean_red_mail_c1 == pytest.approx(report.expected_red_mail_c1, rel=0.025)

    def test_wide_dataset_blocks_stay_within_budget(self, monkeypatch):
        # 3,000 districts leave room for 10 replications per block, and the
        # blocks still give the t statistics of one block of all 100
        ds = make_random_dataset(np.random.default_rng(5), n_green=2900, n_red=100)
        blocks = []
        mail_counts = montecarlo._mail_counts

        def recording(columns, params, seed, replications):
            blocks.append(replications)
            return mail_counts(columns, params, seed, replications)

        monkeypatch.setattr(montecarlo, "_mail_counts", recording)
        report = calibrate(ds, PARAMS, replications=100, seed=4)
        assert max(map(len, blocks)) * len(ds) <= BLOCK_ELEMENTS
        assert [r for block in blocks for r in block] == list(range(100))
        monkeypatch.setattr(montecarlo, "BLOCK_ELEMENTS", 100 * len(ds))
        blocks.clear()
        assert calibrate(ds, PARAMS, replications=100, seed=4) == report
        assert blocks == [range(100)]

    def test_wide_dataset_converts_columns_once(self, monkeypatch):
        # one-row blocks must not turn the whole columns into arrays again per block
        ds = make_random_dataset(np.random.default_rng(5), n_green=2900, n_red=100)
        array = np.array
        conversions = []

        def counting(obj, *args, **kwargs):
            if isinstance(obj, tuple) and len(obj) == len(ds):
                conversions.append(len(obj))
            return array(obj, *args, **kwargs)

        monkeypatch.setattr(montecarlo, "BLOCK_ELEMENTS", len(ds))
        monkeypatch.setattr(np, "array", counting)
        counts = []
        for reps in (100, 200):
            conversions.clear()
            calibrate(ds, PARAMS, replications=reps, seed=4)
            counts.append(len(conversions))
        assert counts[0] == counts[1] > 0

    def test_observed_side_is_set_up_once_per_call(self, monkeypatch):
        # one split and one fit of the observed data, whatever the block count
        ds = small_template()
        calls = []
        split, fit = ElectionDataset.split, montecarlo.fit_through_origin

        def counting_split(self, *args):
            calls.append("split")
            return split(self, *args)

        def counting_fit(green):
            calls.append("fit")
            return fit(green)

        monkeypatch.setattr(ElectionDataset, "split", counting_split)
        monkeypatch.setattr(montecarlo, "fit_through_origin", counting_fit)
        monkeypatch.setattr(montecarlo, "BLOCK_ROWS", 16)
        calibrate(ds, PARAMS, replications=100, seed=4)
        assert calls == ["split", "fit"]
        calls.clear()
        replicate_once(ds, PARAMS, seed=4, replication=7)
        assert calls == ["split", "fit"]

    def test_no_contested_districts_rejected(self):
        ds = small_template(n_red=0)
        for run in (lambda: calibrate(ds, PARAMS, replications=100, seed=4),
                    lambda: replicate_once(ds, PARAMS, seed=4, replication=0)):
            with pytest.raises(ValidationError, match="^dataset has no contested districts$"):
                run()

    def test_invalid_params_rejected(self):
        with pytest.raises(AuditError):
            ModelParameters(k=0.5, sigma=0.0)
        with pytest.raises(AuditError):
            ModelParameters(k=math.inf, sigma=1.0)


class TestAnalysisPathAgreement:
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**63 - 1),
        replication=st.integers(0, 10_000),
        include_dubious=st.booleans(),
    )
    @settings(max_examples=40)
    def test_replication_reproduces_analysis(self, data_seed, seed, replication, include_dubious):
        # a replication must compute exactly the statistic analyze reports on
        # the simulated election, with the realized aggregate as threshold
        rng = np.random.default_rng(data_seed)
        ds = make_random_dataset(
            rng,
            n_green=int(rng.integers(3, 15)),
            n_red=int(rng.integers(1, 5)),
            n_dubious=int(rng.integers(0, 3)),
        )
        # a green district without mail votes is left out of the fit and its dof
        rows = [list(row) for row in rows_of(ds)]
        rows[0][4:6] = 0, 0
        ds = dataset_of(rows)
        assume(ds.margin_official > 0)
        params = ModelParameters(k=float(rng.uniform(0.02, 0.5)), sigma=float(rng.uniform(0.5, 10.0)))

        outcome = replicate_once(ds, params, seed, replication, include_dubious=include_dubious)
        simulated = simulate_election(ds, params, seed, replication)
        green, red = simulated.split(include_dubious)
        realized = aggregate_red(red).mail_c1
        report = reversal_probability(fit_through_origin(green), red, threshold=realized)
        assert outcome.red_mail_c1 == realized
        assert outcome.t_stat.hex() == report.t_stat.hex()

        calibrated = calibrate(ds, params, replications=100, seed=seed, include_dubious=include_dubious)
        assert calibrated.dof == analyze_dataset(ds, include_dubious=include_dubious).fit.dof


def noise_free_template():
    # the two fitted accepted districts lie exactly on the model line, so
    # every replication fits with sigma2 == 0 and fails
    return dataset_of(
        (
            ("g1", "G1", 1000, 500, 400, 0, "green"),
            ("g2", "G2", 1000, 250, 400, 0, "green"),
            ("g3", "G3", 1000, 300, 0, 0, "green"),
            ("d1", "D1", 1000, 100, 300, 0, "dubious"),
            ("r1", "R1", 1000, 400, 400, 0, "red"),
        )
    )


# (ballot_c1, mail_total) put into one fitted row; the other rows' counts stay
# below 5,000, so this row holds max(ballot_c1)
BIG_ROWS = {
    "big": (3_000_000_019, 700_000_003),  # terms far beyond 2**53
    # max(ballot_c1) * max(mail_total) = 2**53 - 1: the float terms are exact
    "below_2**53": (441_650_591, 20_394_401),
    # ballot_c1 * 321 = 2**53 + 1, which no float holds; mail_c1 clamps to 321,
    # so a float term would be rounded where the int quotient is exact
    "above_2**53": (28_059_810_762_433, 321),
}


class TestScalarOracleAgreement:
    @given(
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**128 - 1),
        replications=st.integers(BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 60).filter(
            lambda r: r % BLOCK_ROWS != 0
        ),
        include_dubious=st.booleans(),
        case=st.sampled_from(("random", "big", "noise_free", "below_2**53", "above_2**53")),
    )
    @example(data_seed=1, seed=2**128 - 1, replications=BLOCK_ROWS + 1, include_dubious=False,
             case="random")
    @example(data_seed=2, seed=7, replications=2 * BLOCK_ROWS + 3, include_dubious=True,
             case="big")
    @example(data_seed=3, seed=0, replications=BLOCK_ROWS + 50, include_dubious=True,
             case="noise_free")
    @example(data_seed=4, seed=11, replications=BLOCK_ROWS + 5, include_dubious=False,
             case="below_2**53")
    @example(data_seed=5, seed=12, replications=BLOCK_ROWS + 5, include_dubious=True,
             case="above_2**53")
    @settings(max_examples=25)
    def test_calibrate_matches_scalar_replication(
        self, data_seed, seed, replications, include_dubious, case
    ):
        # the block kernel must reproduce the one-replication-at-a-time path
        # bit for bit, whatever block a replication falls in
        rng = np.random.default_rng(data_seed)
        if case == "noise_free":
            ds, params = noise_free_template(), ModelParameters(k=0.5, sigma=1e-9)
        else:
            ds = make_random_dataset(
                rng,
                n_green=int(rng.integers(3, 15)),
                n_red=int(rng.integers(1, 5)),
                n_dubious=int(rng.integers(0, 3)),
            )
            rows = [list(row) for row in rows_of(ds)]
            # a green district without mail votes is left out of every fit
            rows[0][4:6] = 0, 0
            if case in BIG_ROWS:
                # max(ballot_c1) * max(mail_total) over the fitted rows decides
                # whether the s_xy terms may be computed in floats
                big_ballot, big_mail = BIG_ROWS[case]
                rows[1][2:6] = big_ballot, big_ballot, big_mail, 0
            ds = dataset_of(rows)
            params = ModelParameters(
                k=float(rng.uniform(0.02, 0.5)), sigma=float(rng.uniform(0.5, 10.0))
            )

        report = calibrate(ds, params, replications, seed, include_dubious=include_dubious)
        oracle = mc_oracle.calibrate(ds, params, replications, seed, include_dubious)
        assert [t.hex() for t in report.t_stats] == [t.hex() for t in oracle.t_stats]
        assert report.failed_replications == oracle.failed_replications
        assert report.clamped_fraction.hex() == oracle.clamped_fraction.hex()
        assert report.mean_red_mail_c1.hex() == oracle.mean_red_mail_c1.hex()
        if case == "noise_free":
            assert report.failed_replications == replications
