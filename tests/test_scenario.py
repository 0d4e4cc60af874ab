"""Counterfactual vote reassignment: proportionality, caps, conservation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvaudit.data import serialize_dataset
from mvaudit.scenario import CapacityError, _largest_remainder, build_reversal_scenario
from tests.conftest import dataset_of, make_random_dataset, rows_of


def red(i, mail_total, mail_c1, ballot_c1=500):
    """One contested CSV row; ``dataset_of`` builds a dataset of such rows."""
    return (f"s{i:03d}", f"S{i}", 2000, ballot_c1, mail_total, mail_c1, "red")


def two_red_dataset():
    ds = dataset_of((red(1, 100, 20), red(2, 300, 60)))
    return ds, ds.split()[1]


def c1_minus_c2(ds):
    """The national margin recomputed from the columns, candidate-1-positive."""
    c1 = sum(ds.ballot_c1) + sum(ds.mail_c1)
    c2 = sum(ds.ballot_total) - sum(ds.ballot_c1) + sum(ds.mail_total) - sum(ds.mail_c1)
    return c1 - c2


class TestAllocation:
    def test_exact_proportionality(self):
        ds, reds = two_red_dataset()
        result = build_reversal_scenario(ds, reds, 4)
        assert result.votes_moved == {"s001": 1, "s002": 3}

    def test_zero_votes_is_identity(self, dataset):
        _, reds = dataset.split()
        result = build_reversal_scenario(dataset, reds, 0)
        assert result.modified == dataset
        assert serialize_dataset(result.modified) == serialize_dataset(dataset)
        assert result.resulting_margin == -dataset.margin_official

    def test_fixture_default_scenario_flips_by_one(self, dataset):
        _, reds = dataset.split()
        result = build_reversal_scenario(dataset, reds, 15432)
        assert result.total_moved == 15432
        assert result.resulting_margin == 1
        # recompute the national margin from scratch, candidate-1-positive
        assert c1_minus_c2(result.modified) == 1

    def test_caps_respected_with_redistribution(self):
        # first district can only give 5; the rest must absorb the surplus
        ds = dataset_of((red(1, 100, 95), red(2, 300, 60), red(3, 300, 60)))
        result = build_reversal_scenario(ds, ds.split()[1], 200)
        assert result.votes_moved["s001"] == 5
        assert sum(result.votes_moved.values()) == 200
        for mail_c1, mail_total in zip(result.modified.mail_c1, result.modified.mail_total):
            assert 0 <= mail_c1 <= mail_total

    def test_capacity_error_names_shortfall(self):
        ds, reds = two_red_dataset()
        with pytest.raises(CapacityError, match="short by 80"):
            build_reversal_scenario(ds, reds, 400)

    def test_deterministic_tie_break_by_id(self):
        # equal bases and one leftover vote: ascending district_id wins
        ds = dataset_of((red(2, 100, 20), red(1, 100, 20)))
        result = build_reversal_scenario(ds, ds.split()[1], 1)
        assert result.votes_moved == {"s001": 1, "s002": 0}

    def test_repeatable(self, dataset):
        _, reds = dataset.split()
        a = build_reversal_scenario(dataset, reds, 15432)
        b = build_reversal_scenario(dataset, reds, 15432)
        assert a.votes_moved == b.votes_moved
        assert a.modified == b.modified

    def test_alternate_base(self):
        ds = dataset_of((red(1, 100, 90), red(2, 300, 150)))
        _, reds = ds.split()
        by_total = build_reversal_scenario(ds, reds, 8, base="mail_total")
        by_capacity = build_reversal_scenario(ds, reds, 8, base="mail_c2")
        assert by_total.votes_moved == {"s001": 2, "s002": 6}
        # capacities are 10 and 150: quotas 0.5/7.5, remainder tie -> lower id
        assert by_capacity.votes_moved == {"s001": 1, "s002": 7}

    def test_unknown_base_rejected(self):
        ds, reds = two_red_dataset()
        with pytest.raises(Exception, match="allocation base"):
            build_reversal_scenario(ds, reds, 1, base="ballot_total")


class TestInvariants:
    def test_randomized_conservation_and_margin(self):
        rng = np.random.default_rng(20160522)
        for _ in range(1000):
            ds = make_random_dataset(
                rng,
                n_green=int(rng.integers(1, 8)),
                n_red=int(rng.integers(1, 6)),
                n_dubious=int(rng.integers(0, 3)),
            )
            _, reds = ds.split(bool(rng.integers(0, 2)))
            capacity = sum(reds.mail_total) - sum(reds.mail_c1)
            votes = int(rng.integers(0, capacity + 1))
            result = build_reversal_scenario(ds, reds, votes)
            modified = result.modified
            # conservation per district and nationally
            assert modified.ballot_total == ds.ballot_total
            assert modified.mail_total == ds.mail_total
            assert modified.ballot_c1 == ds.ballot_c1
            total_votes = sum(ds.ballot_total) + sum(ds.mail_total)
            assert sum(modified.ballot_total) + sum(modified.mail_total) == total_votes
            # untouched districts are bit-identical
            red_ids = set(reds.district_id)
            for before, after in zip(rows_of(ds), rows_of(modified)):
                if before[0] not in red_ids:
                    assert after == before
            # margin arithmetic is exact
            assert result.resulting_margin == -ds.margin_official + 2 * votes
            assert c1_minus_c2(modified) == result.resulting_margin
            assert sum(result.votes_moved.values()) == result.total_moved == votes


# bases up to 2**63 - 1, with small ones for ties in the remainders
bases_strategy = st.lists(
    st.one_of(st.integers(0, 4), st.integers(0, 2**63 - 1)), min_size=1, max_size=8
).filter(any).map(lambda bases: {f"s{i}": b for i, b in enumerate(bases)})


class TestLargestRemainder:
    @given(bases_strategy, st.data())
    @settings(max_examples=200)
    def test_exact_shares_at_any_size(self, bases, data):
        # float quotas past 2**53 handed out more units than asked for
        total = sum(bases.values())
        amount = data.draw(st.integers(0, total))
        shares = _largest_remainder(amount, bases)
        assert sum(shares.values()) == amount
        floors = {k: amount * b // total for k, b in bases.items()}
        assert all(shares[k] - floors[k] in (0, 1) for k in bases)
        # the extra units go to the largest exact remainders, ties by ascending id
        ranked = sorted(bases, key=lambda k: (-(amount * bases[k] % total), k))
        extra = amount - sum(floors.values())
        assert {k for k in bases if shares[k] > floors[k]} == set(ranked[:extra])
