"""District-level election results: ingestion, validation, aggregation.

The CSV dialect is fixed: UTF-8, comma separated, header exactly

    district_id,name,ballot_total,ballot_c1,mail_total,mail_c1,status

with base-10 integer counts, status in {green, red, dubious}, LF or CRLF
line endings.  "c1" is the candidate whose reversal chances are analyzed;
"c2" is the official winner.

A count is a string of ASCII digits 0-9 (surrounding blanks are stripped;
no sign, underscore or other Unicode digit) of at most 4,300 digits, the
longest Python converts to an int by default.  No field may exceed the csv
module's field size limit (131,072 characters).  Anything else ends in a
ParseError with the line it was found on.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, NamedTuple, TextIO

from .errors import AuditError

__all__ = [
    "STATUSES",
    "HEADER",
    "ParseError",
    "ValidationError",
    "DistrictRecord",
    "ElectionDataset",
    "RedTotals",
    "parse_dataset",
    "load_dataset",
    "serialize_dataset",
    "contested_statuses",
    "partition",
    "aggregate_red",
    "half_margin",
    "reversal_threshold",
]

STATUSES = ("green", "red", "dubious")
HEADER = ("district_id", "name", "ballot_total", "ballot_c1", "mail_total", "mail_c1", "status")

_COUNT_COLUMNS = HEADER[2:6]
_MAX_DIGITS = 4300


class ParseError(AuditError):
    """CSV ingestion failure, carrying the 1-based source line number."""

    def __init__(self, line: int, reason: str):
        self.line = line
        self.reason = reason
        super().__init__(f"line {line}: {reason}")


class ValidationError(AuditError):
    """A dataset or record violates its invariants."""


@dataclass(frozen=True)
class DistrictRecord:
    """One voting district's counted results plus its contamination status."""

    district_id: str
    name: str
    ballot_total: int
    ballot_c1: int
    mail_total: int
    mail_c1: int
    status: str

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValidationError(f"unknown status token {self.status!r}")
        counts = (self.ballot_total, self.ballot_c1, self.mail_total, self.mail_c1)
        for field, v in zip(_COUNT_COLUMNS, counts):
            if not isinstance(v, int) or v < 0:
                raise ValidationError(f"{field} must be a nonnegative integer, got {v!r}")
        if self.ballot_c1 > self.ballot_total:
            raise ValidationError("ballot votes for candidate exceed ballot total")
        if self.mail_c1 > self.mail_total:
            raise ValidationError("mail votes for candidate exceed mail total")

    @property
    def ballot_c2(self) -> int:
        return self.ballot_total - self.ballot_c1

    @property
    def mail_c2(self) -> int:
        return self.mail_total - self.mail_c1

    @property
    def total_votes(self) -> int:
        return self.ballot_total + self.mail_total

    @property
    def c1_votes(self) -> int:
        return self.ballot_c1 + self.mail_c1

    @property
    def c2_votes(self) -> int:
        return self.ballot_c2 + self.mail_c2

    @property
    def ballot_share(self) -> float | None:
        """Candidate-1 share of ballot votes, None when no ballots were cast."""
        if self.ballot_total == 0:
            return None
        return self.ballot_c1 / self.ballot_total

    @property
    def mail_share(self) -> float | None:
        if self.mail_total == 0:
            return None
        return self.mail_c1 / self.mail_total


@dataclass(frozen=True)
class ElectionDataset:
    """Immutable, validated collection of districts in file order."""

    districts: tuple[DistrictRecord, ...]

    def __post_init__(self):
        object.__setattr__(self, "districts", tuple(self.districts))
        if len({d.district_id for d in self.districts}) == len(self.districts):
            return
        seen = set()
        for d in self.districts:
            if d.district_id in seen:
                raise ValidationError(f"duplicate district_id {d.district_id!r}")
            seen.add(d.district_id)

    def __len__(self) -> int:
        return len(self.districts)

    def __iter__(self):
        return iter(self.districts)

    def get(self, district_id: str) -> DistrictRecord:
        for d in self.districts:
            if d.district_id == district_id:
                return d
        raise KeyError(district_id)

    def count_status(self, status: str) -> int:
        return sum(1 for d in self.districts if d.status == status)

    @cached_property
    def margin_official(self) -> int:
        """Candidate-2 total minus candidate-1 total over all districts."""
        return sum(d.ballot_total + d.mail_total - 2 * (d.ballot_c1 + d.mail_c1) for d in self)


class RedTotals(NamedTuple):
    """Aggregate (ballot_c1, mail_total, mail_c1) over the contested districts."""

    ballot_c1: int
    mail_total: int
    mail_c1: int


def parse_dataset(source: str | TextIO) -> ElectionDataset:
    """Parse and validate a dataset from CSV text or a text stream."""
    if isinstance(source, str):
        source = io.StringIO(source)
    reader = csv.reader(source)
    districts: list[DistrictRecord] = []
    seen: set[str] = set()
    try:
        header = next(reader, None)
        if header is None:
            raise ParseError(1, "missing header")
        if header and header[0].startswith("﻿"):
            header = [header[0].lstrip("﻿"), *header[1:]]
        if tuple(h.strip() for h in header) != HEADER:
            raise ParseError(1, f"bad header: expected {','.join(HEADER)}")
        for row in reader:
            if not row:
                continue
            if len(row) != len(HEADER):
                reason = f"expected {len(HEADER)} columns, got {len(row)}"
                raise ParseError(reader.line_num, reason)
            district_id, name, *counts, status = map(str.strip, row)
            if not district_id:
                raise ParseError(reader.line_num, "empty district_id")
            if district_id in seen:
                raise ParseError(reader.line_num, f"duplicate district_id {district_id!r}")
            seen.add(district_id)
            for value in counts:
                if not (value.isascii() and value.isdigit()) or len(value) > _MAX_DIGITS:
                    # the first bad value: any equal one before it would have failed too
                    column = _COUNT_COLUMNS[counts.index(value)]
                    raise ParseError(reader.line_num, f"bad integer in column {column}: {value!r}")
            ballot_total, ballot_c1, mail_total, mail_c1 = map(int, counts)
            try:
                record = DistrictRecord(
                    district_id, name, ballot_total, ballot_c1, mail_total, mail_c1, status
                )
            except ValidationError as exc:
                raise ParseError(reader.line_num, str(exc)) from None
            districts.append(record)
    except csv.Error as exc:  # a field over csv.field_size_limit(), a bare CR in a field
        raise ParseError(reader.line_num, str(exc)) from None
    return ElectionDataset(tuple(districts))


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
    for d in ds:
        writer.writerow(
            (d.district_id, d.name, d.ballot_total, d.ballot_c1, d.mail_total, d.mail_c1, d.status)
        )
    return out.getvalue()


def contested_statuses(include_dubious: bool) -> set[str]:
    """Statuses on the contested side; dubious joins red only on request."""
    return {"red", "dubious"} if include_dubious else {"red"}


def partition(
    ds: ElectionDataset, include_dubious_as_red: bool = False
) -> tuple[tuple[DistrictRecord, ...], tuple[DistrictRecord, ...]]:
    """Split districts into (accepted, contested) lists.

    Dubious districts count as accepted ("green") unless
    ``include_dubious_as_red`` moves them to the contested side.  No district
    is ever dropped or duplicated.
    """
    red_statuses = contested_statuses(include_dubious_as_red)
    green = tuple(d for d in ds if d.status not in red_statuses)
    red = tuple(d for d in ds if d.status in red_statuses)
    return green, red


def aggregate_red(red: Iterable[DistrictRecord]) -> RedTotals:
    """Componentwise sums of ballot_c1, mail_total, mail_c1 over districts."""
    red = tuple(red)
    if not red:
        raise ValidationError("cannot aggregate an empty district list")
    return RedTotals(
        sum(d.ballot_c1 for d in red),
        sum(d.mail_total for d in red),
        sum(d.mail_c1 for d in red),
    )


def half_margin(margin: int) -> int:
    """Half the margin rounded up, exact for integers of any size."""
    return (margin + 1) // 2


def reversal_threshold(
    ds: ElectionDataset, red: Iterable[DistrictRecord], strict: bool = False
) -> int:
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
