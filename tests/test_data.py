"""Ingestion, validation, partitioning, and aggregation of district results."""

import csv
import io
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mvaudit.data import (
    HEADER,
    STATUSES,
    ElectionDataset,
    ParseError,
    ValidationError,
    aggregate_red,
    load_dataset,
    parse_dataset,
    reversal_threshold,
    serialize_dataset,
)
from tests import csv_oracle
from tests.conftest import dataset_of, make_random_dataset, rows_of

HEADER_LINE = ",".join(HEADER)


def csv_of(*rows: str) -> str:
    return "\n".join([HEADER_LINE, *rows]) + "\n"


class TestParse:
    def test_single_row_arithmetic(self):
        ds = parse_dataset(csv_of("10101,ExampleTown,1000,400,200,80,green"))
        assert len(ds) == 1
        assert ds.mail_total[0] - ds.mail_c1[0] == 120
        assert ds.ballot_total[0] - ds.ballot_c1[0] == 600
        assert ds.ballot_total[0] + ds.mail_total[0] == 1200
        assert ds.ballot_c1[0] + ds.mail_c1[0] == 480

    def test_mail_count_inversion(self):
        with pytest.raises(ParseError) as exc:
            parse_dataset(csv_of("1,A,1000,400,200,250,green"))
        assert "mail votes for candidate exceed mail total" in str(exc.value)
        assert exc.value.line == 2

    def test_ballot_count_inversion(self):
        with pytest.raises(ParseError, match="ballot votes for candidate exceed"):
            parse_dataset(csv_of("1,A,300,400,200,50,green"))

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ("1,A,10x0,400,200,80,green", "bad integer"),
            ("1,A,1000,-4,200,80,green", "bad integer"),
            ("1,A,1000,400,200,80,purple", "unknown status"),
            ("1,A,1000,400,200,80", "expected 7 columns"),
            ("1,A,1000,400,200,80,green,extra", "expected 7 columns"),
        ],
    )
    def test_bad_rows(self, row, fragment):
        with pytest.raises(ParseError, match=fragment) as exc:
            parse_dataset(csv_of(row))
        assert exc.value.line == 2

    def test_duplicate_id_reports_line(self):
        text = csv_of("1,A,100,40,50,20,green", "2,B,100,40,50,20,red", "1,C,100,40,50,20,green")
        with pytest.raises(ParseError, match="duplicate district_id") as exc:
            parse_dataset(text)
        assert exc.value.line == 4

    def test_header_required(self):
        with pytest.raises(ParseError, match="bad header"):
            parse_dataset("foo,bar\n1,A,100,40,50,20,green\n")
        with pytest.raises(ParseError, match="missing header"):
            parse_dataset("")

    def test_crlf_and_no_trailing_newline(self):
        text = HEADER_LINE + "\r\n" + "1,A,100,40,50,20,green"
        ds = parse_dataset(text)
        assert len(ds) == 1

    def test_bom_tolerated(self):
        ds = parse_dataset("﻿" + csv_of("1,A,100,40,50,20,green"))
        assert len(ds) == 1

    def test_count_over_4300_digits_rejected(self):
        # int() refuses more digits than this with a ValueError
        big = "9" * 5000
        with pytest.raises(ParseError) as exc:
            parse_dataset(csv_of(f"1,A,{big},400,200,80,green"))
        assert exc.value.line == 2
        assert exc.value.reason == f"bad integer in column ballot_total: {big!r}"
        assert len(parse_dataset(csv_of(f"1,A,{'0' * 4299}7,0,0,0,green"))) == 1

    def test_field_over_size_limit_reports_line(self):
        # csv.field_size_limit() defaults to 131,072 characters
        with pytest.raises(ParseError) as exc:
            parse_dataset(csv_of("1,A,100,40,50,20,green", f"2,{'x' * 131_073},100,40,50,20,red"))
        assert (exc.value.line, exc.value.reason) == (3, "field larger than field limit (131072)")

    def test_quoted_name(self):
        ds = parse_dataset(csv_of('1,"Sankt Anna, am Berg",100,40,50,20,green'))
        assert ds.name == ("Sankt Anna, am Berg",)

    @pytest.mark.parametrize("rows, line", [(2, 1), (2, 3), (600, 500)])
    def test_invalid_utf8_reports_line(self, tmp_path, rows, line):
        # 600 rows put line 500 past the first chunk the text decoder reads
        text = csv_of(*(f"{i},N{i},1000,400,200,80,green" for i in range(rows)))
        raw = text.encode("utf-8").split(b"\n")
        raw[line - 1] = b"\xff\xfe" + raw[line - 1]
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\n".join(raw))
        with pytest.raises(ParseError, match="invalid UTF-8 byte 0xff") as exc:
            load_dataset(path)
        assert exc.value.line == line

    def test_round_trip_identity(self, dataset):
        again = parse_dataset(serialize_dataset(dataset))
        assert again == dataset

    def test_fixture_file_is_canonical(self, fixture_csv_path, dataset):
        raw = fixture_csv_path.read_text(encoding="utf-8")
        assert raw == serialize_dataset(dataset)


class TestRecordInvariants:
    """The rules each CSV record (row) must keep, checked when a dataset is built."""

    def test_status_checked(self):
        with pytest.raises(ValidationError):
            dataset_of([("1", "A", 10, 5, 10, 5, "blue")])

    def test_negative_counts_rejected(self):
        with pytest.raises(ValidationError):
            dataset_of([("1", "A", 10, -1, 10, 5, "green")])

    def test_duplicate_ids_rejected_at_dataset(self):
        d = ("1", "A", 10, 5, 10, 5, "green")
        with pytest.raises(ValidationError):
            dataset_of((d, d))

    def test_attributes_cannot_change(self, dataset):
        message = "^cannot change 'status': an ElectionDataset is immutable$"
        with pytest.raises(AttributeError, match=message):
            dataset.status = ()
        with pytest.raises(AttributeError, match=message):
            del dataset.status

    def test_equal_datasets_hash_equal(self, dataset):
        twin = dataset_of(rows_of(dataset))
        assert twin is not dataset and twin == dataset
        assert hash(twin) == hash(dataset) and len({twin, dataset}) == 1

    @pytest.mark.parametrize(
        "rows, row, reason",
        [
            ([(7, None, 10, 5, 10, 5, "red")], 0, "district_id is not a str: 7"),
            ([("d1", "A", 10, 5, 10, 5, "red"), ("d2", 2.5, 1, 0, 0, 0, "dubious")], 1,
             "name is not a str: 2.5"),
            ([("d1", "A", 1, 0, 0, 0, "red"), ("d2", None, 1, 0, 0, 0, "red")], 1,
             "name is not a str: None"),
            ([("d1", "A", 1, 0, 0, 0, "red"), (["d2"], "B", 1, 0, 0, 0, "red")], 1,
             "district_id is not a str: ['d2']"),
        ],
    )
    def test_ids_and_names_must_be_str(self, rows, row, reason):
        # a value of another type would not read back as itself from the written CSV
        with pytest.raises(ValidationError) as exc:
            dataset_of(rows)
        assert (exc.value.row, str(exc.value)) == (row, reason)


# one valid CSV row: (district_id, name, ballot_total, ballot_c1, mail_total, mail_c1, status)
district_strategy = st.builds(
    lambda i, b, vb_frac, m, vm_frac, status: (
        f"h{i:04d}", f"Hyp {i}", b, int(b * vb_frac), m, int(m * vm_frac), status
    ),
    i=st.integers(0, 9999),
    b=st.integers(0, 10_000),
    vb_frac=st.floats(0.0, 1.0),
    m=st.integers(0, 3_000),
    vm_frac=st.floats(0.0, 1.0),
    status=st.sampled_from(["green", "red", "dubious"]),
)


# characters a name may hold that need quoting or stripping: separators, the quote, CR,
# LF, blanks and a BOM; csv.reader reads NUL from Python 3.11 on
NAME_CHARS = ',"\r\n \t\ufeffAz' + ("\x00" if sys.version_info >= (3, 11) else "")
# what the parser gives back for a name: surrounding blanks stripped
parsed_names = st.text(alphabet=NAME_CHARS, max_size=6).map(str.strip)


def writer_text(ds: ElectionDataset) -> str:
    """The dataset as csv.writer writes it, with LF line ends."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(zip(*(getattr(ds, column) for column in HEADER)))
    return out.getvalue()


@st.composite
def written_datasets(draw):
    """Datasets whose ids, names and statuses csv.writer writes alike on every Python:
    str without CR, some plain, some needing quotes."""
    text = st.text(alphabet=NAME_CHARS.replace("\r", ""), max_size=5)
    ids = draw(st.lists(text.filter(bool), max_size=8, unique=True))
    rows = [
        (i, draw(text), 10, draw(st.integers(0, 10)), 5, draw(st.integers(0, 5)),
         draw(st.sampled_from(STATUSES)))
        for i in ids
    ]
    return dataset_of(rows)


class TestRoundTripProperty:
    @given(
        st.lists(
            st.builds(lambda row, name: (row[0], name, *row[2:]), district_strategy, parsed_names),
            min_size=0,
            max_size=25,
            unique_by=lambda d: d[0],
        )
    )
    @settings(max_examples=60)
    @example([("h1", "A\rB", 10, 5, 10, 5, "red"), ("h2", 'x, "y"\nz', 3, 1, 2, 0, "green")])
    @example([("h0001", "Hyp 1", 10, 5, 10, 5, "red")])
    def test_parse_serialize_parse(self, districts):
        ds = dataset_of(districts)
        text = serialize_dataset(ds)
        assert parse_dataset(text) == ds
        assert serialize_dataset(parse_dataset(text)) == text

    @given(written_datasets())
    @settings(max_examples=200)
    @example(dataset_of([("d1", "Plain name", 10, 5, 10, 5, "red")]))
    @example(
        dataset_of(
            [("d1", 'Comma, "quote"', 10, 5, 10, 5, "red"), ("d2", "L\nF", 1, 0, 0, 0, "green")]
        )
    )
    def test_serialize_writes_as_csv_writer(self, ds):
        assert serialize_dataset(ds) == writer_text(ds)

    def test_cr_in_a_name_is_quoted(self):
        ds = dataset_of([("1", "A\rB", 100, 40, 50, 20, "green"), ("2", "C", 9, 9, 0, 0, "red")])
        text = serialize_dataset(ds)
        assert text == csv_of('1,"A\rB",100,40,50,20,green', "2,C,9,9,0,0,red")
        assert parse_dataset(text) == ds

    def test_plain_rows_need_no_csv_writer(self, dataset):
        with mock.patch("mvaudit.data.csv.writer", side_effect=AssertionError("csv.writer ran")):
            text = serialize_dataset(dataset)
        assert text == writer_text(dataset)


COUNT_CORRUPTIONS = ("١٠٠", "²", "+5", "5_0", " 7 ", "", "-1", "9" * 4301)


@st.composite
def csv_rows(draw):
    """A valid row, or one with a single corrupted field or column count."""
    ballot_total, mail_total = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    row = [
        f"d{draw(st.integers(0, 30))}",
        draw(st.sampled_from(["A", " Sankt Anna, am Berg ", 'Quote "Q"', ""])),
        str(ballot_total),
        str(draw(st.integers(0, ballot_total))),
        str(mail_total),
        str(draw(st.integers(0, mail_total))),
        draw(st.sampled_from(STATUSES)),
    ]
    fault = draw(st.sampled_from(["none"] * 6 + ["count", "excess", "status", "columns"]))
    column = draw(st.integers(2, 5))
    if fault == "count":
        row[column] = draw(st.sampled_from(COUNT_CORRUPTIONS))
    elif fault == "excess":
        total = draw(st.sampled_from([2, 4]))
        row[total + 1] = str(int(row[total]) + 1)
    elif fault == "status":
        row[6] = draw(st.sampled_from(["purple", " red ", "Green", ""]))
    elif fault == "columns":
        row = row[:column] if draw(st.booleans()) else [*row, "extra"]
    return row


@st.composite
def csv_texts(draw):
    """CSV text of such rows, with optional BOM, CRLF, blank lines, no final newline."""
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    out = io.StringIO()
    if draw(st.booleans()):
        out.write("\ufeff")
    writer = csv.writer(out, lineterminator=newline)
    writer.writerow(HEADER)
    for row in draw(st.lists(csv_rows(), max_size=6)):
        if draw(st.integers(0, 4)) == 0:
            out.write(newline)
        writer.writerow(row)
    text = out.getvalue()
    return text.removesuffix(newline) if draw(st.booleans()) else text


# characters that end fields, lines and quotes or come close to being digits
CSV_CHARS = ',"\r\n \x00\ufeff09a١²+-_'


class TestParserOracle:
    @given(csv_texts())
    @settings(max_examples=300)
    @example(csv_of("1,A,١٠٠,40,50,20,green"))
    @example(csv_of("1,A,100,²,50,20,green"))
    @example(csv_of("1,A,100,40,+5,20,green"))
    @example(csv_of("1,A,100,40,50,5_0,green"))
    @example(csv_of("1,A,100, 7 ,50,20,green"))
    @example(csv_of("1,A,100,40,50,,green"))
    @example(csv_of("1,A,100,40,-1,20,green"))
    @example(csv_of("1,A,100,40,50,20,green", f"2,B,{'9' * 4301},40,50,20,red"))
    @example(csv_of("1,A,100,40,50,+5,green", "2,B,100,+5,50,20,red"))
    @example(csv_of("1,A,100,40,50,20"))
    @example(csv_of("1,A,100,40,50,20,green,extra"))
    @example(csv_of("1,A,100,40,50,20,green", "1,B,100,40,50,20,red"))
    @example(csv_of("1,A,100,40,50,20,purple"))
    @example(csv_of("1,A,100,140,50,20,green"))
    @example(csv_of("1,A,100,40,50,60,green"))
    @example(csv_of("1,A,100,40,50,20,green", "", "2,B,100,40,50,20,red", ""))
    @example("\ufeff" + csv_of("1,A,100,40,50,20,red"))
    @example(csv_of("1,A,100,40,50,20,green", "2,B,100,40,50,20,red").replace("\n", "\r\n"))
    @example(csv_of('1,"Sankt Anna, am Berg",100,40,50,20,green', '2,"B, ""Q""",9,9,0,0,red'))
    def test_parse_matches_oracle(self, text):
        try:
            expected = csv_oracle.parse(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_dataset(text)
            assert (got.value.line, got.value.reason) == (exc.line, exc.reason)
            return
        ds = parse_dataset(text)
        assert rows_of(ds) == expected.rows
        assert ds.margin_official == expected.margin_official

    @given(
        st.one_of(
            st.text(),
            st.text(alphabet=CSV_CHARS).map(lambda tail: csv_of("1,A,9,4,5,2,red") + tail),
        )
    )
    @settings(max_examples=300)
    @example(csv_of(f"1,A,{'9' * 5000},40,50,20,green"))
    @example(csv_of(f"1,{'x' * 131_073},100,40,50,20,green"))
    @example(csv_of("1,A\rB,100,40,50,20,green"))
    def test_parse_raises_only_parse_error(self, text):
        try:
            ds = parse_dataset(text)
        except ParseError:
            return
        assert isinstance(ds, ElectionDataset)


def outcome(text: str):
    """The dataset ``text`` parses to, or the (line, reason) of its ParseError."""
    try:
        return parse_dataset(text)
    except ParseError as exc:
        return exc.line, exc.reason


# line breaks of str.splitlines that csv.reader reads as plain characters
SPLITLINES_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
# field characters besides the csv specials: blanks str.strip removes, digit look-alikes
FIELD_CHARS = " \ufeff09a١²+-_\t\x0b\x85\u2028"
FIELD_TOKENS = ("0", "7", " 12 ", "", "d1", "green", "red", "dubious")


@st.composite
def unquoted_texts(draw):
    """A header and lines of mostly 7 fields, some blank, some two rows joined by a
    str.splitlines break, with or without a final LF; a few hold a quote, CR or NUL."""
    field = st.one_of(st.sampled_from(FIELD_TOKENS), st.text(alphabet=FIELD_CHARS, max_size=3))
    width = st.sampled_from([7] * 8 + [6, 8])
    row = width.flatmap(lambda n: st.lists(field, min_size=n, max_size=n)).map(",".join)
    joined = st.tuples(row, st.sampled_from(SPLITLINES_BREAKS), row).map("".join)
    lines = draw(st.lists(st.one_of(row, row, row, row, joined, st.just("")), max_size=6))
    text = "\n".join([HEADER_LINE, *lines]) + draw(st.sampled_from(["", "\n"]))
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from('"\r\x00')) + text[at:]
    return text


class TestSplitPath:
    """Unquoted LF text is read by splitting, and must read exactly as csv.reader reads it."""

    @given(csv_texts())
    @settings(max_examples=300)
    def test_lf_parses_like_its_crlf_twin(self, text):
        # a CR sends the twin through csv.reader
        lf = text.replace("\r\n", "\n")
        assume('"' not in lf)
        assert outcome(lf) == outcome(lf.replace("\n", "\r\n"))

    @given(unquoted_texts())
    @settings(max_examples=300)
    @example(csv_of("1,A\x0bB,100,40,50,20,green", "2,\u2028,100,40,50,20,red"))
    @example(csv_of("1,A,100,40,50,20,green\x1c2,B,100,40,50,20,red"))
    @example(csv_of("1,A,100,40,50,20,green", " ", "2,B,100,40,50,20,red"))
    @example(csv_of("1,A,100,40,50,20,green\x00"))
    @example(csv_of("1,\x1c A\x85,\t100 ,40,50,20,\x0bred\u2028"))
    @example("\n" + csv_of("1,A,100,40,50,20,green"))
    @example(HEADER_LINE)
    def test_split_and_csv_reader_agree(self, text):
        split = outcome(text)
        with mock.patch("mvaudit.data._split_fields", return_value=None):
            assert outcome(text) == split

    def test_unquoted_lf_file_needs_no_csv_reader(self, fixture_csv_path, dataset):
        # rows shaped like the benchmark's precinct file
        text = csv_of(*(f"p{i:06d},Precinct {i:06d},{900 + i},{400 + i % 7},{i % 300},0,green"
                        for i in range(3000)))
        expected = csv_oracle.parse(text).rows
        with mock.patch("mvaudit.data.csv.reader", side_effect=AssertionError("csv.reader ran")):
            assert load_dataset(fixture_csv_path) == dataset
            assert rows_of(parse_dataset(text)) == expected

    @pytest.mark.parametrize(
        "text",
        [
            csv_of('1,"A",100,40,50,20,green'),
            csv_of("1,A,100,40,50,20,green").replace("\n", "\r\n"),
            csv_of("1,A,100,40,50,20,green\x00"),
            csv_of("1,A,100,40,50,20"),
            csv_of(f"1,{'x' * 131_073},100,40,50,20,green"),
            "",
        ],
        ids=["quote", "crlf", "nul", "six_fields", "long_line", "empty"],
    )
    def test_other_text_goes_to_csv_reader(self, text):
        with mock.patch("mvaudit.data.csv.reader", side_effect=RuntimeError("csv.reader ran")):
            with pytest.raises(RuntimeError, match="csv.reader ran"):
                parse_dataset(text)


class TestCountColumnFaults:
    """Faults that the one-pass count reader must still find, with oracle lines and reasons."""

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    @pytest.mark.parametrize("blank", ["", "  "])
    @pytest.mark.parametrize("row", [0, 2])
    @pytest.mark.parametrize("column", range(2, 6))
    def test_empty_field_fails_as_oracle_says(self, column, row, blank, newline):
        rows = [[str(i), f"N{i}", "100", "40", "50", "20", "green"] for i in range(3)]
        rows[row][column] = blank
        text = csv_of(*map(",".join, rows)).replace("\n", newline)
        with pytest.raises(ParseError) as expected:
            csv_oracle.parse(text)
        with pytest.raises(ParseError) as got:
            parse_dataset(text)
        assert (got.value.line, got.value.reason) == (expected.value.line, expected.value.reason)
        assert got.value.reason == f"bad integer in column {HEADER[column]}: ''"

    @pytest.mark.parametrize("layout", ["lf", "crlf", "long_line"])
    @pytest.mark.parametrize("count", ["9" * 700, "0" * 700 + "7"], ids=["nines", "padded_seven"])
    def test_count_int_refuses_is_bad_integer(self, count, layout):
        # a lowered limit makes int() refuse counts the 4,300-digit rule allows
        name = "x" * 5000 if layout == "long_line" else "A"
        text = csv_of(f"1,{name},100,40,50,20,green", f"2,B,100,40,{count},0,red")
        text = text.replace("\n", "\r\n") if layout == "crlf" else text
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            with pytest.raises(ParseError) as exc:
                parse_dataset(text)
            assert len(parse_dataset(csv_of("1,A,100,40,50,20,green"))) == 1
        finally:
            sys.set_int_max_str_digits(limit)
        reason = f"bad integer in column mail_total: {count!r}"
        assert (exc.value.line, exc.value.reason) == (3, reason)
        if count.startswith("0"):  # under the default limit it is a count
            assert parse_dataset(text).mail_total == (50, 7)


FAR_FAULTS = {
    "short_row": lambda name: f"{name},1000,400,200,80",
    "long_field": lambda name: f"{'x' * 131_073},1000,400,200,80,green",
    "bad_integer": lambda name: f"{name},1000,4x0,200,80,green",
}


def far_fault_text(layout: str, fault: str, at: int) -> str:
    """700 rows read by csv.reader, row ``at`` (1-based) holding ``fault``.

    "crlf" ends each line with CRLF; "quoted" quotes every name, and those of
    rows 25, 75, 125, ... span two lines, so lines and rows drift apart.
    """
    rows = []
    for i in range(1, 701):
        if layout == "crlf":
            name = f"N{i}"
        else:
            name = f'"N{i},\nx"' if i % 50 == 25 else f'"N{i}, x"'
        fields = FAR_FAULTS[fault](name) if i == at else f"{name},1000,400,200,80,green"
        rows.append(f"{i},{fields}")
    text = csv_of(*rows)
    return text.replace("\n", "\r\n") if layout == "crlf" else text


class TestFaultsPastTheFirstRows:
    """csv.reader-path faults deep in a file keep csv.reader's line numbers."""

    @pytest.mark.parametrize("at", [300, 700])
    @pytest.mark.parametrize("fault", sorted(FAR_FAULTS))
    @pytest.mark.parametrize("layout", ["crlf", "quoted"])
    def test_line_and_reason_match_oracle(self, layout, fault, at):
        text = far_fault_text(layout, fault, at)
        with pytest.raises(ParseError) as expected:
            csv_oracle.parse(text)
        with pytest.raises(ParseError) as got:
            parse_dataset(text)
        assert (got.value.line, got.value.reason) == (expected.value.line, expected.value.reason)
        # each of the first `at` rows spans one line, plus one per quoted line break
        assert got.value.line == 1 + at + (at // 50 if layout == "quoted" else 0)

    @pytest.mark.parametrize("layout", ["crlf", "quoted"])
    def test_fault_free_text_matches_oracle(self, layout):
        text = far_fault_text(layout, "short_row", at=0)
        assert rows_of(parse_dataset(text)) == csv_oracle.parse(text).rows


class TestPartition:
    """``ElectionDataset.split``: the accepted and contested sides of the districts."""

    def test_fixture_partitions(self, dataset):
        green, red = dataset.split()
        assert (len(green), len(red)) == (106, 11)
        green, red = dataset.split(include_dubious_as_red=True)
        assert (len(green), len(red)) == (103, 14)

    def test_no_drop_no_duplicate(self, dataset):
        for flag in (False, True):
            green, red = dataset.split(include_dubious_as_red=flag)
            ids = sorted(green.district_id + red.district_id)
            assert ids == sorted(dataset.district_id)

    @given(st.integers(0, 2**32 - 1), st.integers(0, 6), st.integers(0, 4), st.integers(0, 3))
    @settings(max_examples=50)
    def test_contested_marks_the_split_rows(self, seed, n_green, n_red, n_dubious):
        rng = np.random.default_rng(seed)
        rows = rows_of(make_random_dataset(rng, n_green, n_red, n_dubious))
        ds = dataset_of([rows[i] for i in rng.permutation(len(rows))])  # statuses interleaved
        for flag in (False, True):
            contested = ds.contested(flag)
            assert contested == [s == "red" or (flag and s == "dubious") for s in ds.status]
            green, red = ds.split(flag)
            assert rows_of(red) == [row for row, c in zip(rows_of(ds), contested) if c]
            assert rows_of(green) == [row for row, c in zip(rows_of(ds), contested) if not c]

    def test_no_dubious_means_flag_is_noop(self):
        ds = parse_dataset(csv_of("1,A,100,40,50,20,green", "2,B,100,40,50,20,red"))
        assert ds.split(False) == ds.split(True)


class TestAggregateRed:
    def test_fixture_totals(self, dataset):
        _, red = dataset.split()
        totals = aggregate_red(red)
        assert totals.mail_c1 == 34479
        assert totals.mail_total == 77769

    def test_single_district(self):
        assert tuple(aggregate_red(dataset_of([("1", "A", 10, 4, 6, 2, "red")]))) == (4, 6, 2)

    def test_permutation_invariant(self, dataset):
        _, red = dataset.split()
        assert aggregate_red(red) == aggregate_red(dataset_of(reversed(rows_of(red))))

    def test_empty_list_rejected(self):
        with pytest.raises(ValidationError):
            aggregate_red(dataset_of([]))


class TestReversalThreshold:
    def test_fixture(self, dataset):
        _, red = dataset.split()
        assert reversal_threshold(dataset, red) == 49911
        assert dataset.margin_official == 30863

    def test_small_even_margin(self):
        # margin 2: half rounded up is 1; a strict win needs one more
        ds = parse_dataset(csv_of("1,A,100,49,20,10,red"))
        assert ds.margin_official == 2
        _, red = ds.split()
        assert reversal_threshold(ds, red) == 11
        assert reversal_threshold(ds, red, strict=True) == 12

    def test_odd_margin_strictness_agrees(self, dataset):
        _, red = dataset.split()
        assert reversal_threshold(dataset, red) == reversal_threshold(dataset, red, strict=True)

    def test_exact_at_margin_beyond_float_precision(self):
        # ceil((2**53 + 1) / 2) in floats gives 2**52: the division rounds first
        margin = 2**53 + 1
        ds = parse_dataset(csv_of(f"1,A,{margin},0,0,0,red"))
        assert ds.margin_official == margin
        _, red = ds.split()
        assert reversal_threshold(ds, red) == 4503599627370497
        assert reversal_threshold(ds, red, strict=True) == 4503599627370497

    def test_requires_candidate2_lead(self):
        ds = parse_dataset(csv_of("1,A,100,80,20,10,red"))
        _, red = ds.split()
        with pytest.raises(ValidationError, match="margin"):
            reversal_threshold(ds, red)
