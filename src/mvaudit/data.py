"""District-level election results: ingestion, validation, aggregation.

The CSV dialect is fixed: UTF-8, comma separated, header exactly

    district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status

with base-10 integer counts, status in {green, red, dubious}, LF or CRLF
line endings.  "c1" is the candidate whose reversal chances are analyzed;
"c2" is the official winner.

A count is a string of ASCII digits 0-9 (surrounding blanks are stripped;
no sign, underscore or other Unicode digit) of at most 4,300 digits, the
longest Python converts to an int by default (fewer if int_max_str_digits is
set lower: what int() refuses is a bad integer), and its value is below 2**63.
No field may exceed the csv module's field size limit (131,072 characters).
Anything else ends in a ParseError with the line it was found on (of
several faults, the one on the earliest line).

Text that is not empty and has no quote, CR or NUL, no line longer than the
csv module's field size limit and seven fields on every non-blank data line
is read with str.split, at LF and at commas.  csv.reader would read it alike
(Python 3.10's rejects NUL, later ones accept it) but more slowly.  It reads
every other text, so quoting, CRLF and each error's line and message stay
as the csv module has them.

An ElectionDataset holds one tuple per CSV column, in file order, and is
checked a whole column at a time when it is built.  serialize_dataset writes
it as csv.writer would, formatting rows itself when no id, name or status
needs quoting (each is a str free of comma, quote, CR, LF and NUL); a field
holding CR is quoted on every Python version, as 3.13's csv.writer does.
"""

from __future__ import annotations

import csv
import io
from contextlib import suppress
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, le, not_
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

from .errors import AuditError

__all__ = [
    "STATUSES",
    "HEADER",
    "ParseError",
    "ValidationError",
    "ElectionDataset",
    "RedTotals",
    "parse_dataset",
    "load_dataset",
    "serialize_dataset",
    "aggregate_red",
    "reversal_threshold",
]

STATUSES = ("green", "red", "dubious")
HEADER = ("district_id", "name", "ballot_total", "ballot_c1", "mail_total", "mail_c1", "status")

_COUNT_COLUMNS = HEADER[2:6]
_MAX_DIGITS = 4300
_COUNT_BOUND = 2**63
_STATUS_SET = frozenset(STATUSES)
_FIELDS = attrgetter(*HEADER)  # a dataset's columns


class ParseError(AuditError):
    """CSV ingestion failure, carrying the 1-based source line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ValidationError(AuditError):
    """A dataset violates its invariants, first at ``row`` when known."""

    def __init__(self, reason: str, row: int | None = None):
        self.row = row
        super().__init__(reason)


def _fault(columns: tuple[tuple, ...], proved: frozenset[str]) -> str | None:
    """The first rule the columns break, or None; its message names the last row's value.

    The rules, in order: str ids and names, ids neither empty nor repeated, counts
    (ints in [0, 2**63)) in column order, known statuses, candidate-1 votes within their
    totals.  No type or range rule runs on a column named in ``proved``: it passed them
    before.  ``_check`` calls this on the shortest prefix that breaks a rule, whose last row
    is then the one at fault.
    """
    ids, names, *counts, statuses = columns
    for column, values in ("district_id", ids), ("name", names):
        if column not in proved and not all(map(isinstance, values, repeat(str))):
            return f"{column} is not a str: {values[-1]!r}"
    if not all(ids):
        return "empty district_id"
    if len(set(ids)) < len(ids):
        return f"duplicate district_id {ids[-1]!r}"
    for column, values in zip(_COUNT_COLUMNS, counts):
        if column in proved:
            continue
        ints = all(map(isinstance, values, repeat(int)))
        if not (ints and 0 <= min(values, default=0) and max(values, default=0) < _COUNT_BOUND):
            return f"bad integer in column {column}: {values[-1]!r}"
    if not _STATUS_SET.issuperset(statuses):
        return f"unknown status token {statuses[-1]!r}"
    ballot_total, ballot_c1, mail_total, mail_c1 = counts
    for kind, c1, total in ("ballot", ballot_c1, ballot_total), ("mail", mail_c1, mail_total):
        if not all(map(le, c1, total)):
            return f"{kind} votes for candidate exceed {kind} total"
    return None


def _check(columns: tuple[tuple, ...], proved=frozenset()) -> None:
    """Raise a ValidationError, with its row, for the first row that breaks a rule."""
    if len(set(map(len, columns))) > 1:
        raise ValidationError(f"columns differ in length: {tuple(map(len, columns))}")
    if _fault(columns, proved) is None:
        return
    good, bad = 0, len(columns[0])  # the first `good` rows break no rule, the first `bad` do
    while bad - good > 1:
        middle = (good + bad) // 2
        if _fault(tuple(c[:middle] for c in columns), proved) is None:
            good = middle
        else:
            bad = middle
    raise ValidationError(_fault(tuple(c[:bad] for c in columns), proved), bad - 1)


class ElectionDataset:
    """Immutable, validated districts in file order, one tuple per CSV column.

    Building one checks the columns: a ValidationError names the first row
    that breaks a rule.  Datasets are equal when their columns are.
    """

    district_id: tuple[str, ...]
    name: tuple[str, ...]
    ballot_total: tuple[int, ...]
    ballot_c1: tuple[int, ...]
    mail_total: tuple[int, ...]
    mail_c1: tuple[int, ...]
    status: tuple[str, ...]

    def __init__(self, district_id, name, ballot_total, ballot_c1, mail_total, mail_c1, status):
        columns = (district_id, name, ballot_total, ballot_c1, mail_total, mail_c1, status)
        columns = tuple(map(tuple, columns))
        _check(columns)
        self.__dict__.update(zip(HEADER, columns))

    def __setattr__(self, name: str, value=None):
        raise AttributeError(f"cannot change {name!r}: an ElectionDataset is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        same = isinstance(other, ElectionDataset)
        return _FIELDS(self) == _FIELDS(other) if same else NotImplemented

    def __hash__(self) -> int:
        return hash(_FIELDS(self))

    def __repr__(self) -> str:
        return f"ElectionDataset({', '.join(map('{}={!r}'.format, HEADER, _FIELDS(self)))})"

    @classmethod
    def _of(cls, columns: tuple[tuple, ...]) -> ElectionDataset:
        """A dataset of columns that have been checked already."""
        ds = object.__new__(cls)
        ds.__dict__.update(zip(HEADER, columns))
        return ds

    def __len__(self) -> int:
        return len(self.district_id)

    @cached_property
    def margin_official(self) -> int:
        """Candidate-2 total minus candidate-1 total over all districts."""
        c1 = sum(self.ballot_c1) + sum(self.mail_c1)
        return sum(self.ballot_total) + sum(self.mail_total) - 2 * c1

    def contested(self, include_dubious: bool = False) -> list[bool]:
        """Whether each district, in file order, is contested: red, and dubious on request."""
        statuses = {"red", "dubious"} if include_dubious else {"red"}
        return list(map(statuses.__contains__, self.status))

    def split(
        self, include_dubious_as_red: bool = False
    ) -> tuple[ElectionDataset, ElectionDataset]:
        """The (accepted, contested) districts, each a dataset in file order.

        Dubious districts are accepted ("green") unless ``include_dubious_as_red``.
        """
        red = self.contested(include_dubious_as_red)
        return self._rows(list(map(not_, red))), self._rows(red)

    def _rows(self, selected: list[bool]) -> ElectionDataset:
        # rows of a checked dataset need no second check
        return ElectionDataset._of(tuple(tuple(compress(c, selected)) for c in _FIELDS(self)))


class RedTotals(NamedTuple):
    """Aggregate (ballot_c1, mail_total, mail_c1) over the contested districts."""

    ballot_c1: int
    mail_total: int
    mail_c1: int


def _read_counts(texts: list[str] | tuple[str, ...], short: bool) -> tuple | list:
    """A tuple of proved counts, or a list of the stripped fields, ints where they spell counts.

    The raw fields are tried before the stripped ones: counts are rarely padded, and stripping
    every field costs more than a second try.  ``short`` says no field exceeds _MAX_DIGITS.
    """
    for strip in False, True:
        column = tuple(map(str.strip, texts)) if strip else texts
        digits = "".join(column)
        if digits.isascii() and (digits.isdigit() or not digits):
            if short or max(map(len, column), default=0) <= _MAX_DIGITS:
                with suppress(ValueError):  # an empty field, or more digits than int() takes
                    counts = tuple(map(int, column))
                    if max(counts, default=0) < _COUNT_BOUND:
                        return counts
    if len(column) == 1:
        return list(column)
    return list(chain.from_iterable(map(_read_counts, zip(column), repeat(short))))


def _line_of(text: str, row: int) -> int:
    """The line on which data row ``row`` (0-based, blank rows skipped) ends."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for _ in islice(filter(None, reader), row + 1):
        pass
    return reader.line_num


def _split_fields(text: str) -> tuple[list[str], list[str], None, bool] | None:
    """The header, the flat data fields split at LF and commas, no fault, and whether no line
    (so no field) is longer than _MAX_DIGITS; None if csv.reader must read.

    Only LF ends a line, as for csv.reader; ``str.splitlines`` would also end
    one at VT, FF, FS, GS, RS, NEL, LS and PS, which csv.reader keeps in a field.
    """
    if not text or '"' in text or "\r" in text or "\x00" in text:
        return None
    lines = text.split("\n")
    if (longest := max(map(len, lines))) > csv.field_size_limit():
        return None
    rows = list(filter(None, islice(lines, 1, None)))
    if not {len(HEADER) - 1}.issuperset(map(str.count, rows, repeat(","))):
        return None
    fields = ",".join(rows).split(",") if rows else []
    return lines[0].split(","), fields, None, longest <= _MAX_DIGITS


def _read_fields(text: str) -> tuple[list[str], list[str], ParseError | None]:
    """The header, the flat fields of the rows before the first fault, and that fault.

    csv.reader reads row by row up to the first row that it or the column
    count rejects, and the fault takes its line from ``reader.line_num``.
    Each row list is freed as the next is read.  A text without a header
    raises its ParseError at once.
    """
    reader = csv.reader(io.StringIO(text))
    header, fields, error = None, [], None
    try:
        header = next(reader, None)
        for row in reader:
            if row and len(row) != len(HEADER):
                reason = f"expected {len(HEADER)} columns, got {len(row)}"
                error = ParseError(reader.line_num, reason)
                break
            fields += row
    except csv.Error as exc:  # a field over csv.field_size_limit(), a bare CR in a field
        error = ParseError(reader.line_num, str(exc))
    if header is None:
        raise error or ParseError(1, "missing header")
    return header, fields, error


def parse_dataset(text: str) -> ElectionDataset:
    """Parse and validate a dataset from CSV text.

    Rows are read up to the first one that the csv module or the column count
    rejects; a fault in the rows before it is reported first.
    """
    header, fields, error, short = _split_fields(text) or (*_read_fields(text), False)
    if header and header[0].startswith("\ufeff"):
        header = [header[0].lstrip("\ufeff"), *header[1:]]
    if tuple(h.strip() for h in header) != HEADER:
        raise ParseError(1, f"bad header: expected {','.join(HEADER)}")
    ids, names, *texts, statuses = (fields[i :: len(HEADER)] for i in range(len(HEADER)))
    if not _STATUS_SET.issuperset(statuses):  # a known status has no blanks to strip
        statuses = map(str.strip, statuses)
    counts = [_read_counts(column, short) for column in texts]  # a list holds a non-count
    proved_counts = compress(_COUNT_COLUMNS, map(isinstance, counts, repeat(tuple)))
    proved = frozenset({"district_id", "name", *proved_counts})  # the parser makes only str
    columns = (*(tuple(map(str.strip, c)) for c in (ids, names)), *counts, tuple(statuses))
    try:
        _check(columns, proved=proved)
    except ValidationError as exc:
        raise ParseError(_line_of(text, exc.row), str(exc)) from None
    if error is not None:
        raise error
    return ElectionDataset._of(columns)


def load_dataset(path: str | Path) -> ElectionDataset:
    """Read, decode and parse a dataset file; a byte that is not UTF-8 ends in a ParseError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # its offsets count from the start of the file
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(line, f"invalid UTF-8 byte {data[exc.start]:#04x}") from None
    del data  # only the text is needed while parsing
    return parse_dataset(text)


def serialize_dataset(ds: ElectionDataset) -> str:
    """Emit the dataset in the canonical CSV dialect (LF, trailing newline)."""
    rows = chain((HEADER,), zip(*_FIELDS(ds)))
    text = "".join(chain(ds.district_id, ds.name, ds.status))
    if not any(map(text.__contains__, ',"\r\n\x00')):
        return "".join(map("%s,%s,%s,%s,%s,%s,%s\n".__mod__, rows))
    lines = []  # a CR in the line terminator quotes a field holding CR, as Python 3.13 does
    csv.writer(SimpleNamespace(write=lines.append), lineterminator="\r\n").writerows(rows)
    return "".join(line[:-2] + "\n" for line in lines)


def aggregate_red(red: ElectionDataset) -> RedTotals:
    """Componentwise sums of ballot_c1, mail_total, mail_c1 over the contested districts."""
    if not len(red):
        raise ValidationError("dataset has no contested districts")
    return RedTotals(sum(red.ballot_c1), sum(red.mail_total), sum(red.mail_c1))


def reversal_threshold(ds: ElectionDataset, red: ElectionDataset, strict: bool = False) -> int:
    """Mail votes candidate 1 would need in the contested districts to win.

    Default semantics add half the official margin, rounded up, to the
    counted candidate-1 mail votes.  With ``strict=True`` the threshold is
    the smallest count that strictly wins even when the margin is even
    (floor(margin/2) + 1); the two agree for odd margins.
    """
    margin = ds.margin_official
    if margin <= 0:
        raise ValidationError(
            f"official margin is {margin}; candidate 2 does not lead, no reversal to test"
        )
    counted = aggregate_red(red).mail_c1
    if strict:
        return counted + margin // 2 + 1
    return counted + (margin + 1) // 2
