"""The column-per-field dataset: one checked constructor that agrees with the CSV
parser, counts bounded by value, and the precinct-scale command path."""

import json
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mvaudit.cli import main
from mvaudit.data import (
    HEADER,
    STATUSES,
    ElectionDataset,
    ParseError,
    ValidationError,
    _check,
    parse_dataset,
    serialize_dataset,
)
from mvaudit.errors import AuditError
from mvaudit.prediction import analyze_dataset
from mvaudit.scenario import build_reversal_scenario
from tests.conftest import dataset_of, rows_of
from tests.test_data import district_strategy

COUNT_BOUND = 2**63

districts_strategy = st.lists(district_strategy, min_size=0, max_size=25, unique_by=lambda d: d[0])


def write_csv(path, rows):
    path.write_text("\n".join([",".join(HEADER), *rows]) + "\n", encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_text(rows):
    """CSV text of rows whose fields print as themselves."""
    return "".join(",".join(map(str, row)) + "\n" for row in [HEADER, *rows])


# count fields the rules reject, as the parser leaves them: text
BAD_COUNTS = st.sampled_from(["-1", "+5", "x", "", str(COUNT_BOUND)])
FAULTS = st.sampled_from(["excess", "status", "duplicate", "empty_id", "count"])


@st.composite
def faulty_rows(draw):
    """Valid rows with one or two fields that break a rule, every field as the parser reads it."""
    rows = [list(row) for row in draw(districts_strategy.filter(len))]
    for fault in sorted(draw(st.lists(FAULTS, min_size=1, max_size=2)), key="count".__eq__):
        row = draw(st.sampled_from(rows))
        others = [other for other in rows if other is not row]
        if fault == "count":  # last: the other faults need int counts
            row[draw(st.integers(2, 5))] = draw(BAD_COUNTS)
        elif fault == "excess":
            total = draw(st.sampled_from([2, 4]))
            row[total + 1] = row[total] + 1
        elif fault == "status":
            row[6] = draw(st.sampled_from(["purple", "Green", ""]))
        elif fault == "duplicate" and others:
            row[0] = draw(st.sampled_from(others))[0]
        else:
            row[0] = ""
    return [tuple(row) for row in rows]


class TestRecordEquivalence:
    """CSV records (rows) given as columns or as CSV text make one dataset."""

    @given(districts_strategy)
    @settings(max_examples=80)
    def test_records_and_csv_give_one_dataset(self, records):
        ds = dataset_of(records)
        parsed = parse_dataset(serialize_dataset(ds))
        assert parsed == ds
        assert parse_dataset(csv_text(records)) == ds
        assert rows_of(parsed) == records
        c1 = sum(r[3] + r[5] for r in records)
        c2 = sum((r[2] - r[3]) + (r[4] - r[5]) for r in records)
        assert ds.margin_official == parsed.margin_official == c2 - c1
        for status in STATUSES:
            expected = sum(1 for r in records if r[6] == status)
            assert ds.status.count(status) == parsed.status.count(status) == expected

    @given(faulty_rows())
    @settings(max_examples=150)
    def test_faulty_row_fails_as_in_csv(self, rows):
        # the constructor names the row, the parser that row's line: header + 1 + row
        columns = tuple(zip(*rows))
        with pytest.raises(ValidationError) as built:
            ElectionDataset(*columns)
        with pytest.raises(ParseError) as parsed:
            parse_dataset(csv_text(rows))
        assert (parsed.value.reason, parsed.value.line) == (str(built.value), built.value.row + 2)

    @given(districts_strategy, st.booleans())
    @settings(max_examples=60)
    def test_split_matches_partition(self, records, include_dubious):
        # the two sides partition the rows by status, each side in file order
        ds = dataset_of(records)
        green, red = ds.split(include_dubious)
        contested = {"red", "dubious"} if include_dubious else {"red"}
        assert green == dataset_of([r for r in records if r[6] not in contested])
        assert red == dataset_of([r for r in records if r[6] in contested])
        assert len(green) + len(red) == len(ds)

    def test_every_constructor_checks_the_columns(self):
        d = ("1", "A", 10, 5, 10, 5, "green")
        with pytest.raises(ValidationError, match="duplicate district_id '1'"):
            dataset_of((d, d))
        with pytest.raises(ValidationError, match="columns differ in length"):
            ElectionDataset(("1", "2"), ("A", "B"), (10,), (5,), (10,), (5,), ("green",))
        ds = dataset_of((d,))
        assert ElectionDataset(*map(list, zip(d))) == ds  # columns are kept as tuples

    @pytest.mark.parametrize(
        "value, message",
        [
            (-1, "bad integer in column mail_c1: -1"),
            (5.0, "bad integer in column mail_c1: 5.0"),
            (COUNT_BOUND, f"bad integer in column mail_c1: {COUNT_BOUND}"),
            (COUNT_BOUND - 1, "mail votes for candidate exceed mail total"),
        ],
        ids=["negative", "not_int", "over_bound", "over_mail_total"],
    )
    def test_bad_mail_c1_fails_at_its_row(self, value, message):
        # values the parser never makes; the later rows break rules too
        columns = list(zip(*[(f"d{i}", "A", 1000, 400, 300, 100, "green") for i in range(6)]))
        columns[5] = (100, 90, 80, value, 301, -5)
        with pytest.raises(ValidationError) as exc:
            ElectionDataset(*columns)
        assert (str(exc.value), exc.value.row) == (message, 3)


# (total, candidate-1 votes) pairs anywhere below the count bound
COUNT_PAIRS = st.lists(st.integers(0, COUNT_BOUND - 1), min_size=2, max_size=2).map(
    lambda pair: sorted(pair, reverse=True)
)
huge_district_strategy = st.builds(
    lambda i, ballot, mail, status: (f"h{i:04d}", f"Hyp {i}", *ballot, *mail, status),
    st.integers(0, 9999), COUNT_PAIRS, COUNT_PAIRS, st.sampled_from(STATUSES),
)


class TestScenarioColumn:
    @given(
        st.lists(district_strategy | huge_district_strategy, max_size=25, unique_by=lambda d: d[0]),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=80)
    def test_only_contested_mail_c1_changes(self, records, include_dubious, data):
        ds = dataset_of(records)
        _, red = ds.split(include_dubious)
        capacity = sum(red.mail_total) - sum(red.mail_c1)
        votes = data.draw(st.integers(0, capacity))
        modified = build_reversal_scenario(ds, votes, include_dubious=include_dubious).modified
        contested = set(red.district_id)
        for column in HEADER:
            if column != "mail_c1":
                assert getattr(modified, column) == getattr(ds, column)
        for district_id, before, after in zip(ds.district_id, ds.mail_c1, modified.mail_c1):
            assert after == before or district_id in contested
        assert sum(modified.mail_c1) - sum(ds.mail_c1) == votes
        _check(tuple(getattr(modified, column) for column in HEADER))  # built unchecked


def fingerprint(result):
    """Every number of an analysis, floats by their bits, the file order left out.

    The residuals are left out too: the slope bits and the columns determine them.
    """
    fit, report = result.fit, result.report
    return (
        result.n_green,
        result.n_red,
        result.margin_official,
        fit.slope.hex(),
        fit.sigma2.hex(),
        fit.s_xx.hex(),
        fit.dof,
        fit.n_used,
        sorted(fit.excluded),
        float(report.threshold).hex(),
        report.prediction.hex(),
        report.pred_sd.hex(),
        report.t_stat.hex(),
        report.p_reversal.value.hex(),
        report.p_reversal.log_value.hex(),
        report.degenerate,
    )


class TestPermutationInvariance:
    @given(districts_strategy, st.booleans(), st.data())
    @settings(max_examples=120)
    def test_analysis_ignores_row_order(self, records, include_dubious, data):
        shuffled = data.draw(st.permutations(records))
        try:
            result = analyze_dataset(dataset_of(records), include_dubious)
        except AuditError as exc:
            with pytest.raises(type(exc)) as again:
                analyze_dataset(dataset_of(shuffled), include_dubious)
            assert str(again.value) == str(exc)
            return
        permuted = analyze_dataset(dataset_of(shuffled), include_dubious)
        assert permuted.report == result.report
        assert fingerprint(permuted) == fingerprint(result)


@st.composite
def at_the_bound(draw):
    """CSV rows whose counts reach up to 2**63 - 1, two fitted accepted rows first."""
    top = COUNT_BOUND - 1
    count = st.one_of(st.integers(0, top), st.integers(top - 2**12, top))
    rows = []
    statuses = ["green", "green", *draw(st.lists(st.sampled_from(STATUSES), max_size=4)), "red"]
    for i, status in enumerate(statuses):
        ballot_total, mail_total = draw(count), draw(count)
        if i < 2:
            mail_total = max(mail_total, 1)
        ballot_c1 = draw(st.integers(0, ballot_total))
        mail_c1 = draw(st.integers(0, mail_total))
        rows.append(f"b{i},B{i},{ballot_total},{ballot_c1},{mail_total},{mail_c1},{status}")
    return "\n".join([",".join(HEADER), *rows]) + "\n"


class TestCountBound:
    @given(at_the_bound(), st.booleans())
    @settings(max_examples=150)
    def test_analysis_at_the_bound_is_finite_or_degenerate(self, text, include_dubious):
        ds = parse_dataset(text)
        assume(ds.margin_official > 0 and any(ds.ballot_c1[:2]))
        result = analyze_dataset(ds, include_dubious)
        fit, report = result.fit, result.report
        assert all(map(math.isfinite, (fit.slope, fit.sigma2, fit.s_xx, report.prediction)))
        assert 0.0 <= report.p_reversal.value <= 1.0
        if not report.degenerate:
            numbers = (report.pred_sd, report.t_stat, report.p_reversal.log10)
            assert all(map(math.isfinite, numbers))
        json.dumps({"margin": result.margin_official, "threshold": report.threshold})

    def test_bound_is_by_value(self):
        top = COUNT_BOUND - 1
        ds = parse_dataset(f"{','.join(HEADER)}\n1,A,{top},{top},{top},0,green\n")
        assert ds.ballot_total == (top,)
        with pytest.raises(ParseError) as exc:
            parse_dataset(f"{','.join(HEADER)}\n1,A,{top},0,{COUNT_BOUND},0,green\n")
        assert (exc.value.line, exc.value.reason) == (
            2, f"bad integer in column mail_total: '{COUNT_BOUND}'"
        )

    @pytest.mark.parametrize("digits", [400, 4300])
    @pytest.mark.parametrize("command", ["analyze", "validate"])
    @pytest.mark.parametrize("as_json", [False, True])
    def test_huge_counts_exit_one_with_line(self, capsys, tmp_path, digits, command, as_json):
        # 400 digits overflowed a float in the fit; 4,300 the json encoder
        big = "9" * digits
        path = write_csv(tmp_path / "huge.csv", [
            "1,A,1000,400,200,90,green",
            "2,B,1200,500,300,140,green",
            f"3,C,{big},{'4' * digits},{big},{'3' * digits},green",
            "4,D,900,300,250,70,green",
            "5,E,1100,450,280,100,red",
        ])
        message = f"line 4: bad integer in column ballot_total: '{big}'"
        code, out, err = run(capsys, command, path, *(["--json"] if as_json else []))
        assert code == 1
        if as_json:
            assert json.loads(out) == {"error": {"type": "data", "message": message}}
        else:
            assert out == "" and err == f"error: {message}\n"


def small_precinct_csv(path):
    """60 districts: every tenth contested, every tenth (offset 5) dubious, one without mail."""
    rows = []
    for i in range(60):
        status = "red" if i % 10 == 0 else "dubious" if i % 10 == 5 else "green"
        ballot_total = 800 + 7 * i
        mail_total = 0 if i == 7 else 150 + i
        ballot_c1, mail_c1 = ballot_total // 2 - 1, max(mail_total // 2 - 1 - i % 3, 0)
        counts = f"{ballot_total},{ballot_c1},{mail_total},{mail_c1}"
        rows.append(f"p{i:03d},Precinct {i},{counts},{status}")
    return write_csv(path, rows)


class TestColumnPath:
    def test_analyze_with_level_splits_once(self, capsys, tmp_path, monkeypatch):
        # the interval reuses the contested side that the analysis built
        path = small_precinct_csv(tmp_path / "precincts.csv")
        splits = []
        split = ElectionDataset.split

        def counting(ds, *args):
            splits.append(len(ds))
            return split(ds, *args)

        monkeypatch.setattr(ElectionDataset, "split", counting)
        code, out, _ = run(capsys, "analyze", path, "--include-dubious", "--level", "0.99", "--json")
        assert code == 0 and json.loads(out)["prediction_interval"]["level"] == 0.99
        assert splits == [60]
