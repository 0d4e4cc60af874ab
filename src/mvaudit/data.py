"""District-level election results: ingestion, validation, aggregation.

The CSV dialect is fixed: UTF-8, comma separated, header exactly

    district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status

with base-10 integer counts, status in {green, red, dubious}, LF or CRLF
line endings.  "c1" is the candidate whose reversal chances are analyzed;
"c2" is the official winner.

A count is a string of ASCII digits 0-9 (surrounding blanks are stripped;
no sign, underscore or other Unicode digit) of at most 4,300 digits, the
longest Python converts to an int by default, and its value is below 2**63.
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
checked a whole column at a time when it is built.
"""

from __future__ import annotations

import csv
import io
import re
from functools import cached_property
from itertools import chain, compress, islice, repeat
from operator import attrgetter, le, not_
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

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
    "contested_statuses",
    "aggregate_red",
    "half_margin",
    "reversal_threshold",
]

STATUSES = ("green", "red", "dubious")
HEADER = ("district_id", "name", "ballot_total", "ballot_c1", "mail_total", "mail_c1", "status")

_COUNT_COLUMNS = HEADER[2:6]
_MAX_DIGITS = 4300
_COUNT_BOUND = 2**63
_STATUS_SET = frozenset(STATUSES)
_FIELDS = attrgetter(*HEADER)  # a dataset's columns
# Rows flattened at a time.  Fewer row lists are then alive at once than it takes
# to start the cyclic garbage collector (700); holding all 100,000 rows of a
# precinct file made it walk them for 60-90 ms.
_BLOCK_ROWS = 256


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


def _fault(columns: tuple[tuple, ...], new: frozenset[str] = frozenset(HEADER)) -> str | None:
    """The first rule the columns break, or None; its message names the last row's value.

    The rules, in order: ids neither empty nor repeated, counts (ints in
    [0, 2**63)) in column order, known statuses, candidate-1 votes within
    their totals.  Only rules that read a column named in ``new`` run: the
    other columns passed theirs before.  ``_check`` calls this on the
    shortest prefix that breaks a rule, whose last row is then the one at fault.
    """
    ids, _, *counts, statuses = columns
    if "district_id" in new and not all(ids):
        return "empty district_id"
    if "district_id" in new and len(set(ids)) < len(ids):
        return f"duplicate district_id {ids[-1]!r}"
    for column, values in zip(_COUNT_COLUMNS, counts):
        if column not in new:
            continue
        ints = all(map(isinstance, values, repeat(int)))
        if not (ints and 0 <= min(values, default=0) and max(values, default=0) < _COUNT_BOUND):
            return f"bad integer in column {column}: {values[-1]!r}"
    if "status" in new and not _STATUS_SET.issuperset(statuses):
        return f"unknown status token {statuses[-1]!r}"
    ballot_total, ballot_c1, mail_total, mail_c1 = counts
    for kind, c1, total in ("ballot", ballot_c1, ballot_total), ("mail", mail_c1, mail_total):
        if {f"{kind}_c1", f"{kind}_total"} & new and not all(map(le, c1, total)):
            return f"{kind} votes for candidate exceed {kind} total"
    return None


def _check(columns: tuple[tuple, ...], new: frozenset[str] = frozenset(HEADER)) -> None:
    """Raise a ValidationError, with its row, for the first row that breaks a rule."""
    if len(set(map(len, columns))) > 1:
        raise ValidationError(f"columns differ in length: {tuple(map(len, columns))}")
    if _fault(columns, new) is None:
        return
    good, bad = 0, len(columns[0])  # the first `good` rows break no rule, the first `bad` do
    while bad - good > 1:
        middle = (good + bad) // 2
        if _fault(tuple(c[:middle] for c in columns), new) is None:
            good = middle
        else:
            bad = middle
    raise ValidationError(_fault(tuple(c[:bad] for c in columns), new), bad - 1)


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

    def count_status(self, status: str) -> int:
        return self.status.count(status)

    @cached_property
    def margin_official(self) -> int:
        """Candidate-2 total minus candidate-1 total over all districts."""
        c1 = sum(self.ballot_c1) + sum(self.mail_c1)
        return sum(self.ballot_total) + sum(self.mail_total) - 2 * c1

    def split(
        self, include_dubious_as_red: bool = False
    ) -> tuple[ElectionDataset, ElectionDataset]:
        """The (accepted, contested) districts, each a dataset in file order.

        Dubious districts are accepted ("green") unless ``include_dubious_as_red``.
        """
        contested = contested_statuses(include_dubious_as_red)
        red = list(map(contested.__contains__, self.status))
        return self._rows(list(map(not_, red))), self._rows(red)

    def _rows(self, selected: list[bool]) -> ElectionDataset:
        # rows of a checked dataset need no second check
        return ElectionDataset._of(tuple(tuple(compress(c, selected)) for c in _FIELDS(self)))

    def with_mail_c1(self, mail_c1: Iterable[int]) -> ElectionDataset:
        """This dataset with its mail_c1 column replaced, checked against the rules it can break."""
        columns = (*_FIELDS(self)[:5], tuple(mail_c1), self.status)
        _check(columns, frozenset({"mail_c1"}))
        return ElectionDataset._of(columns)


class RedTotals(NamedTuple):
    """Aggregate (ballot_c1, mail_total, mail_c1) over the contested districts."""

    ballot_c1: int
    mail_total: int
    mail_c1: int


def _read_counts(texts: list[str] | tuple[str, ...]) -> tuple:
    """The fields, blanks stripped, as ints where they spell counts; the rest stay text for _check.

    The raw fields are tried before the stripped ones: counts are rarely
    padded, and stripping every field costs more than a second try.
    """
    for strip in False, True:
        column = tuple(map(str.strip, texts)) if strip else texts
        digits = "".join(column)
        if all(column) and (digits.isascii() and digits.isdigit() or not digits):
            if max(map(len, column), default=0) <= _MAX_DIGITS:
                counts = tuple(map(int, column))
                if max(counts, default=0) < _COUNT_BOUND:
                    return counts
    if len(column) == 1:
        return column
    return tuple(chain.from_iterable(map(_read_counts, zip(column))))  # field by field


def _line_of(text: str, row: int) -> int:
    """The line on which data row ``row`` (0-based, blank rows skipped) ends."""
    reader = csv.reader(io.StringIO(text))
    next(reader)
    for _ in islice(filter(None, reader), row + 1):
        pass
    return reader.line_num


def _split_fields(text: str) -> tuple[list[str], list[str]] | None:
    """The header and the flat data fields, split at LF and commas; None if csv.reader must read.

    Only LF ends a line, as for csv.reader; ``str.splitlines`` would also end
    one at VT, FF, FS, GS, RS, NEL, LS and PS, which csv.reader keeps in a field.
    """
    if not text or '"' in text or "\r" in text or "\x00" in text:
        return None
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = list(filter(None, islice(lines, 1, None)))
    if not {len(HEADER) - 1}.issuperset(map(str.count, rows, repeat(","))):
        return None
    return lines[0].split(","), ",".join(rows).split(",") if rows else []


def _read_fields(text: str) -> tuple[list[str], list[str], ParseError | None]:
    """The header, the flat fields of the rows before the first fault, and that fault.

    Rows are read by csv.reader up to the first one that it or the column
    count rejects.  A text without a header raises its ParseError at once.
    """
    reader = csv.reader(io.StringIO(text))
    error = None

    def every_row():
        nonlocal error
        try:
            yield from reader
        except csv.Error as exc:  # a field over csv.field_size_limit(), a bare CR in a field
            error = ParseError(reader.line_num, str(exc))

    read = every_row()
    header = next(read, None)
    if header is None:
        raise error or ParseError(1, "missing header")
    rows, fields = filter(None, read), []
    for block in iter(lambda: list(islice(rows, _BLOCK_ROWS)), []):
        if not {len(HEADER)}.issuperset(map(len, block)):
            width = next(i for i, row in enumerate(block) if len(row) != len(HEADER))
            reason = f"expected {len(HEADER)} columns, got {len(block[width])}"
            error = ParseError(_line_of(text, len(fields) // len(HEADER) + width), reason)
            fields += chain.from_iterable(block[:width])
            break
        fields += chain.from_iterable(block)
    return header, fields, error


def parse_dataset(source: str | TextIO) -> ElectionDataset:
    """Parse and validate a dataset from CSV text or a text stream.

    Rows are read up to the first one that the csv module or the column count
    rejects; a fault in the rows before it is reported first.
    """
    text = source if isinstance(source, str) else source.read()
    split = _split_fields(text)
    header, fields, error = (*split, None) if split else _read_fields(text)
    if header and header[0].startswith("\ufeff"):
        header = [header[0].lstrip("\ufeff"), *header[1:]]
    if tuple(h.strip() for h in header) != HEADER:
        raise ParseError(1, f"bad header: expected {','.join(HEADER)}")
    ids, names, *texts, statuses = (fields[i :: len(HEADER)] for i in range(len(HEADER)))
    ids, names, statuses = (tuple(map(str.strip, c)) for c in (ids, names, statuses))
    try:
        ds = ElectionDataset(ids, names, *map(_read_counts, texts), statuses)
    except ValidationError as exc:
        raise ParseError(_line_of(text, exc.row), str(exc)) from None
    if error is not None:
        raise error
    return ds


def load_dataset(path: str | Path) -> ElectionDataset:
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return parse_dataset(fh)
    except UnicodeDecodeError:  # its offsets count from the decoder's chunk, not the file
        text = Path(path).read_bytes().decode("utf-8", "surrogateescape")
    bad = re.search("[\udc80-\udcff]", text)
    byte = ord(bad.group()) - 0xDC00
    raise ParseError(text.count("\n", 0, bad.start()) + 1, f"invalid UTF-8 byte {byte:#04x}")


def serialize_dataset(ds: ElectionDataset) -> str:
    """Emit the dataset in the canonical CSV dialect (LF, trailing newline)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(zip(*_FIELDS(ds)))
    return out.getvalue()


def contested_statuses(include_dubious: bool) -> set[str]:
    """Statuses on the contested side; dubious joins red only on request."""
    return {"red", "dubious"} if include_dubious else {"red"}


def aggregate_red(red: ElectionDataset) -> RedTotals:
    """Componentwise sums of ballot_c1, mail_total, mail_c1 over districts."""
    if not len(red):
        raise ValidationError("cannot aggregate an empty district list")
    return RedTotals(sum(red.ballot_c1), sum(red.mail_total), sum(red.mail_c1))


def half_margin(margin: int) -> int:
    """Half the margin rounded up, exact for integers of any size."""
    return (margin + 1) // 2


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
    return counted + half_margin(margin)
