"""Counterfactual reassignment of mail votes in the contested districts.

Moves a given number of mail votes from candidate 2 to candidate 1,
apportioned proportionally by largest remainder so the total is exact.
Ballot votes and all district totals are untouched, so national vote
conservation holds by construction and the margin moves by exactly 2 per
reassigned vote.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, sub
from typing import NamedTuple

from .data import ElectionDataset, reversal_threshold
from .errors import AuditError

__all__ = ["CapacityError", "ScenarioResult", "build_reversal_scenario"]

ALLOCATION_BASES = ("mail_total", "mail_c2")


class CapacityError(AuditError):
    """Not enough candidate-2 mail votes available to move."""

    def __init__(self, requested: int, capacity: int):
        self.requested = requested
        self.capacity = capacity
        super().__init__(
            f"cannot move {requested} votes: only {capacity} candidate-2 mail votes "
            f"available in the contested districts (short by {requested - capacity})"
        )


class ScenarioResult(NamedTuple):
    modified: ElectionDataset
    votes_moved: dict[str, int]
    total_moved: int
    resulting_margin: int  # candidate-1-positive sign convention


def _largest_remainder(amount: int, bases: dict[str, int]) -> dict[str, int]:
    """Integer shares of ``amount`` proportional to ``bases``, summing exactly.

    Each share is the exact integer quotient of amount * base by the total
    base; the leftover units go to the largest remainders, ties broken by
    ascending district id.
    """
    total_base = sum(bases.values())
    shares, remainders = {}, {}
    for k, b in bases.items():
        shares[k], remainders[k] = divmod(amount * b, total_base)
    leftover = amount - sum(shares.values())
    by_remainder = sorted(bases, key=lambda k: (-remainders[k], k))
    for k in by_remainder[:leftover]:
        shares[k] += 1
    return shares


def build_reversal_scenario(
    ds: ElectionDataset,
    votes_to_move: int | None = None,
    base: str = "mail_total",
    include_dubious: bool = False,
) -> ScenarioResult:
    """Reassign ``votes_to_move`` mail votes from candidate 2 to candidate 1.

    With no count it moves what reverses the result: ``reversal_threshold`` less the counted votes.
    The districts ``ds.contested(include_dubious)`` marks get them in proportion to each one's
    mail total (or to its candidate-2 mail count with ``base="mail_c2"``), capped at what the
    district can give; any capped surplus is redistributed by the same rule among the
    districts still below their cap.
    """
    if base not in ALLOCATION_BASES:
        raise AuditError(f"unknown allocation base {base!r}; expected one of {ALLOCATION_BASES}")
    red = ds._rows(ds.contested(include_dubious))
    if votes_to_move is None:
        votes_to_move = reversal_threshold(ds, red) - sum(red.mail_c1)
    if votes_to_move < 0:
        raise AuditError(f"votes_to_move must be nonnegative, got {votes_to_move}")
    red_ids = red.district_id
    capacity = dict(zip(red_ids, map(sub, red.mail_total, red.mail_c1)))
    total_capacity = sum(capacity.values())
    if votes_to_move > total_capacity:
        raise CapacityError(votes_to_move, total_capacity)

    base_of = capacity if base == "mail_c2" else dict(zip(red_ids, red.mail_total))
    alloc = {k: 0 for k in red_ids}
    active = [k for k in red_ids if capacity[k] > alloc[k]]
    remaining = votes_to_move
    while remaining > 0:
        tentative = _largest_remainder(remaining, {k: base_of[k] for k in active})
        for k in active:
            take = min(tentative[k], capacity[k] - alloc[k])
            alloc[k] += take
            remaining -= take
        active = [k for k in active if capacity[k] > alloc[k]]

    # each of ds's own contested districts gains at most its mail_total - mail_c1: no check
    mail_c1 = tuple(map(add, ds.mail_c1, map(alloc.get, ds.district_id, repeat(0))))
    columns = (ds.district_id, ds.name, ds.ballot_total, ds.ballot_c1, ds.mail_total, mail_c1)
    return ScenarioResult(
        modified=ElectionDataset._of((*columns, ds.status)),
        votes_moved=alloc,
        total_moved=votes_to_move,
        resulting_margin=-ds.margin_official + 2 * votes_to_move,
    )
