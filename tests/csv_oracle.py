"""Regex-based reference parser for the district CSV dialect.

The plain form of ``mvaudit.data.parse_dataset``: every check spelled out
row by row in file order, one ``^[0-9]+$`` match per count, the row
invariants checked here rather than by the column checker behind
``ElectionDataset``, and the official margin summed as candidate-2 votes
minus candidate-1 votes.
``tests/test_data.py`` requires the library parser to return the same rows
and margin, or to raise a ParseError with the same line and message.
"""

from __future__ import annotations

import csv
import io
import re
from typing import NamedTuple

from mvaudit.data import HEADER, STATUSES, ParseError

_INT_RE = re.compile(r"^[0-9]+$")
_MAX_DIGITS = 4300  # Python's default limit on int(str)
_COUNT_BOUND = 2**63


class OracleDataset(NamedTuple):
    # (district_id, name, ballot_total, ballot_c1, mail_total, mail_c1, status)
    rows: list[tuple]
    margin_official: int


def _parse_int(value: str, column: str, line: int) -> int:
    if not _INT_RE.match(value) or len(value) > _MAX_DIGITS or int(value) >= _COUNT_BOUND:
        raise ParseError(line, f"bad integer in column {column}: {value!r}")
    return int(value)


def _parse_rows(reader) -> list[tuple]:
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError(1, "missing header") from None
    if header and header[0].startswith("\ufeff"):
        header = [header[0].lstrip("\ufeff"), *header[1:]]
    if tuple(h.strip() for h in header) != HEADER:
        raise ParseError(1, f"bad header: expected {','.join(HEADER)}")
    rows = []
    seen = set()
    for row in reader:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(HEADER):
            raise ParseError(line, f"expected {len(HEADER)} columns, got {len(row)}")
        district_id, name, *counts, status = (f.strip() for f in row)
        if not district_id:
            raise ParseError(line, "empty district_id")
        if district_id in seen:
            raise ParseError(line, f"duplicate district_id {district_id!r}")
        seen.add(district_id)
        ballot_total, ballot_c1, mail_total, mail_c1 = (
            _parse_int(v, c, line) for v, c in zip(counts, HEADER[2:6])
        )
        if status not in STATUSES:
            raise ParseError(line, f"unknown status token {status!r}")
        if ballot_c1 > ballot_total:
            raise ParseError(line, "ballot votes for candidate exceed ballot total")
        if mail_c1 > mail_total:
            raise ParseError(line, "mail votes for candidate exceed mail total")
        rows.append((district_id, name, ballot_total, ballot_c1, mail_total, mail_c1, status))
    return rows


def parse(text: str) -> OracleDataset:
    """Parse CSV text, raising ParseError(line, reason) on the first fault."""
    reader = csv.reader(io.StringIO(text))
    try:
        rows = _parse_rows(reader)
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    c1 = sum(r[3] + r[5] for r in rows)
    c2 = sum((r[2] - r[3]) + (r[4] - r[5]) for r in rows)
    return OracleDataset(rows, c2 - c1)
