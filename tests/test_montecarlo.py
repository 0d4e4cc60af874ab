"""Model simulation and calibration of the standardized statistic."""

import functools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvaudit.data import ElectionDataset, ValidationError, aggregate_red
from mvaudit import montecarlo
from mvaudit.errors import AuditError
from mvaudit.montecarlo import (
    _KS_SLACK,
    BLOCK_ELEMENTS,
    BLOCK_ROWS,
    ModelParameters,
    _float_columns,
    _fsums,
    _ks_distance,
    _mail_counts,
    _standard_normals,
    calibrate,
    replicate_once,
)
from mvaudit import cli
from mvaudit.prediction import analyze_dataset, reversal_probability
from mvaudit.special import student_t_cdf
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

    def test_observed_side_is_set_up_once_per_call(self, monkeypatch, fixture_csv_path):
        # one split and one fit of the observed data, whatever the block count,
        # and also when the CLI takes its default k and sigma from that fit
        ds = make_random_dataset(np.random.default_rng(3))
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
        monkeypatch.setattr(cli, "fit_through_origin", counting_fit, raising=False)
        monkeypatch.setattr(montecarlo, "BLOCK_ROWS", 16)
        calibrate(ds, PARAMS, replications=100, seed=4)
        assert calls == ["split", "fit"]
        calls.clear()
        calibrate(ds, (None, None), replications=100, seed=4)
        assert calls == ["split", "fit"]
        calls.clear()
        replicate_once(ds, PARAMS, seed=4, replication=7)
        assert calls == ["split", "fit"]
        calls.clear()
        assert cli.main(["calibrate", str(fixture_csv_path), "--reps", "100", "--json"]) == 0
        assert calls == ["split", "fit"]

    @pytest.mark.parametrize("model", [(None, None), (0.3, None), (None, 3.0)])
    def test_fitted_defaults_are_the_observed_fit(self, model):
        # a None in (k, sigma) is the observed fit's slope or residual sd, and
        # the report is the one that model, given in full, produces
        ds = make_random_dataset(np.random.default_rng(3))
        fit = fit_through_origin(ds.split()[0])
        fitted = ModelParameters(k=fit.slope, sigma=math.sqrt(fit.sigma2))
        k, sigma = (f if m is None else m for m, f in zip(model, fitted))
        report = calibrate(ds, model, replications=100, seed=4)
        assert report.model == (k, sigma)
        assert report == calibrate(ds, ModelParameters(k, sigma), replications=100, seed=4)

    def test_no_contested_districts_rejected(self):
        ds = small_template(n_red=0)
        for run in (lambda: calibrate(ds, PARAMS, replications=100, seed=4),
                    lambda: replicate_once(ds, PARAMS, seed=4, replication=0)):
            with pytest.raises(ValidationError, match="^dataset has no contested districts$"):
                run()

    @pytest.mark.parametrize(
        "seed, replication, message",
        [
            (-1, 0, "seed must be in [0, 2**128), got -1"),
            (2**128, 0, f"seed must be in [0, 2**128), got {2**128}"),
            (-1, -5, "seed must be in [0, 2**128), got -1"),
            (4, -5, "replication must be in [0, 2**64), got -5"),
            (4, 2**64, f"replication must be in [0, 2**64), got {2**64}"),
        ],
        ids=["seed_negative", "seed_too_large", "seed_first", "replication_negative",
             "replication_too_large"],
    )
    def test_replicate_once_checks_its_arguments(self, seed, replication, message):
        # calibrate's seed rule, and the replication is one 64-bit Philox counter word
        with pytest.raises(AuditError) as exc:
            replicate_once(small_template(), PARAMS, seed=seed, replication=replication)
        assert str(exc.value) == message

    def test_replicate_once_takes_the_largest_seed_and_replication(self):
        outcome = replicate_once(small_template(), PARAMS, seed=2**128 - 1, replication=2**64 - 1)
        assert outcome.t_stat is not None

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
    # every simulated mail_c1 of the fitted districts clamps to 0: the refit is exact
    @example(data_seed=967, seed=20160522, replication=500, include_dubious=False)
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
        if report.pred_sd == 0.0:  # a replication without a t statistic
            assert outcome.t_stat is None
        else:
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


# math.fsum's cases: (m terms, one column per sum) blocks for _fsums
SPECIAL_TERMS = (0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, 1.0, -1.0, 2.0**-53, -2.0**-54,
                 2.0**53, 1e300, -1e300, 1.7976931348623157e308, math.inf, -math.inf, math.nan)
TERMS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-300, max_value=1e-300),  # subnormals and signed zeros
    st.floats(min_value=-1e6, max_value=1e6),
    st.sampled_from(SPECIAL_TERMS),
)


@st.composite
def term_blocks(draw):
    """An (m, width) block; with cancellation, the second half of each column
    negates the first, some terms nudged by one ulp."""
    m = draw(st.integers(1, 40))
    columns = draw(st.lists(st.lists(TERMS, min_size=m, max_size=m), min_size=1, max_size=6))
    if draw(st.booleans()):
        half = m // 2
        for column in columns:
            nudges = draw(st.lists(st.booleans(), min_size=half, max_size=half))
            column[half : 2 * half] = [
                -math.nextafter(x, 0.0) if nudge else -x for x, nudge in zip(column, nudges)
            ]
    width = draw(st.sampled_from([1, 2, 3, 255, 256]))
    return block_of(*columns, width=width)


def block_of(*columns, width=None):
    """The columns side by side, repeated to ``width`` columns."""
    rows = np.array(columns, dtype=float)
    return np.ascontiguousarray(np.resize(rows, (width or len(rows), rows.shape[1])).T)


def outcome(sums, terms):
    try:
        return [x.hex() for x in sums(terms)]
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


TIE = 2.0**-54  # half an ulp of 1 from below


class TestFsums:
    @given(terms=term_blocks())
    # heavy cancellation
    @example(terms=block_of([1e16, 1.0, -1e16, 2.0**-40], [1e308, -1e308, 1e-308, 3.0]))
    # exponents from 1e-300 to 1e300
    @example(terms=block_of([1e300, 1e-300, -1e300, 3e-300], [1e-300, 1e300, 1.0, -1e-300]))
    # subnormals and signed zeros
    @example(terms=block_of([5e-324, -5e-324, 1e-320, -2.5e-320], [-0.0, -0.0, -0.0, -0.0],
                            [0.0, -0.0, 0.0, -0.0], [2.0**-1022, -5e-324, 0.0, 0.0]))
    # exact half-ulp ties, at a power of two and between
    @example(terms=block_of([1.0, -TIE, -2.0**-107], [1.0, -TIE, 2.0**-107], [1.0, 2.0**-53, 0.0],
                            [2.0**53, 1.0, 0.0], [1.0 + 2.0**-52, 2.0**-53, 0.0]))
    @example(terms=block_of([2.0**-1021, -5e-324, 0.0], [4.0, -2.0**-51, -2.0**-104]))
    # inf and NaN: a value, or what math.fsum raises for the first column that raises
    @example(terms=block_of([math.inf, 1.0], [math.nan, 1.0], [math.inf, math.nan]))
    @example(terms=block_of([1.0, 2.0], [math.inf, -math.inf], [1e308, 1e308]))
    @example(terms=block_of([1e308, 1e308, -1e308], [math.inf, -math.inf, 1.0]))
    # math.fsum overflows in a partial sum that the pairwise tree never forms
    @example(terms=block_of([1e308, 1e308, -1e308, 0.0]))
    # one term, and an odd count
    @example(terms=block_of([3.0], [-0.0], [5e-324]))
    @example(terms=block_of([1.0, 2.0**-60, 2.0**-120, -1.0, 7.0]))
    # a block of one replication and one of 256
    @example(terms=block_of([0.1] * 99))
    @example(terms=block_of([0.1] * 99, [1.0, -TIE, -2.0**-107] * 33, width=256))
    @settings(max_examples=300)
    def test_fsums_equal_math_fsum(self, terms):
        expected = outcome(lambda t: [math.fsum(c) for c in t.T.tolist()], terms)
        assert outcome(lambda t: _fsums(t).tolist(), terms) == expected


@functools.cache
def branch_switch(nu):
    """(before, after): nearby samples close to |t| = 3**0.5, where the t cdf
    at ``nu`` falls most as its continued fraction changes branch."""
    t = -math.sqrt(nu * ((0.5 * nu + 2.5) / (0.5 * nu + 1.0) - 1.0))
    before, after = t - 1e-6, t + 1e-6
    for _ in range(2):  # a coarse scan, then a fine one across its steepest fall
        ts = np.linspace(before, after, 2001).tolist()
        cdf = [student_t_cdf(x, nu) for x in ts]
        i = min(range(len(ts) - 1), key=lambda i: cdf[i + 1] - cdf[i])
        before, after = ts[i], ts[i + 1]
    return before, after


def straddled_maximum(nu=1e8, n=33):
    """n sorted samples whose largest distance is at the sample before the
    last, inside a block whose bounds miss it by the cdf's fall at the branch
    switch unless the slack covers that fall.

    Sample 0 sits before the fall and 1 .. n-2 after it; the last sits where
    the cdf has risen by 1/n, less half the fall, from sample 0.
    """
    before, after = branch_switch(nu)
    fall = student_t_cdf(before, nu) - student_t_cdf(after, nu)
    target = student_t_cdf(before, nu) + 1 / n - fall / 2
    lo, hi = after, 0.0
    for _ in range(100):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if student_t_cdf(mid, nu) < target else (lo, mid)
    return np.array([before] + [after] * (n - 2) + [lo])


KS_DOFS = [1, 2.5, 102, 105, 1e5, 1e8]


@st.composite
def ks_samples(draw):
    """Sorted samples from a t law, shifted and scaled, often rounded into ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3000))
    law = draw(st.sampled_from([1.0, 4.0, 100.0]))
    values = rng.standard_t(law, n) * draw(st.sampled_from([0.5, 1.0, 1.1])) + draw(
        st.sampled_from([0.0, 0.05, -0.3])
    )
    decimals = draw(st.sampled_from([None, 0, 1, 2]))
    return np.sort(values if decimals is None else np.round(values, decimals))


class TestKsDistance:
    @given(sorted_values=ks_samples(), dof=st.sampled_from(KS_DOFS))
    @example(sorted_values=straddled_maximum(), dof=1e8)
    @example(sorted_values=np.sort(np.random.default_rng(1).standard_t(4.0, 3000)), dof=105)
    @example(sorted_values=np.round(np.sort(np.random.default_rng(2).standard_normal(3000)), 1),
             dof=1e5)
    @example(sorted_values=np.array([0.7]), dof=1)
    @settings(max_examples=40)
    def test_equals_full_evaluation(self, sorted_values, dof):
        expected = mc_oracle.ks_distance(sorted_values, dof)
        assert _ks_distance(sorted_values, dof).hex() == expected.hex()

    @given(
        ts=st.lists(st.floats(-40.0, 40.0), min_size=2, max_size=200),
        dof=st.sampled_from(KS_DOFS),
    )
    @example(ts=list(branch_switch(1e8)), dof=1e8)
    @example(ts=list(branch_switch(1e5)), dof=1e5)
    def test_cdf_rises_over_sorted_inputs(self, ts, dof):
        # the bracketing rests on this: where the cdf falls, as at its branch
        # switch, the fall must stay far inside _KS_SLACK
        cdf = [student_t_cdf(t, dof) for t in sorted(ts)]
        assert min(b - a for a, b in zip(cdf, cdf[1:])) > -_KS_SLACK / 100

    @pytest.mark.parametrize("variant", [(), ("--include-dubious",)])
    def test_cli_calibrate_evaluates_few_cdf_values(self, monkeypatch, fixture_csv_path, variant):
        # 2,000 samples, of which at most 300 need the cdf
        calls = []

        def counting(t, nu):
            calls.append(t)
            return student_t_cdf(t, nu)

        monkeypatch.setattr(montecarlo, "student_t_cdf", counting)
        argv = ["calibrate", str(fixture_csv_path), "--reps", "2000", *variant, "--json"]
        assert cli.main(argv) == 0
        assert 0 < len(calls) <= 300
