"""Order statistics and failure accounting shared by the benchmark runner.

Every timing the benchmark reports is a median plus the *tail*: the
highest percentile that still has at least ten samples beyond it. With
``n`` sorted samples that is the value at 1-based rank ``n - 10``, so the
tail needs at least eleven samples and its percentile grows with ``n``
(rank 90 of 100 is p90, rank 990 of 1000 is p99). The rank and the
sample count are always reported next to the value.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> Optional[float]:
    """The median, or ``None`` for no samples."""
    return statistics.median(values) if values else None


def tail(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``{"value", "rank", "count", "percentile"}`` (rank is 1-based
    in ascending order), or ``None`` when there are ten samples or fewer.
    """
    count = len(values)
    rank = count - TAIL_BEYOND
    if rank < 1:
        return None
    ordered = sorted(values)
    return {
        "value": ordered[rank - 1],
        "rank": rank,
        "count": count,
        "percentile": 100.0 * rank / count,
    }


def failed_frac(attempted: int, failed: int) -> float:
    """Share of attempted units that failed; attempted must be positive."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must be in [0, {attempted}], got {failed}")
    return failed / attempted


class FailureLedger:
    """Counts each attempted unit once, failed at most once.

    A unit fails when it raised, was skipped, was answered degraded, or
    failed an output check; several of those on one unit still count as
    one failed unit. ``reasons`` keeps a count per reason for the report.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self._failed_units: set = set()
        self.reasons: Dict[str, int] = {}

    def attempt(self) -> int:
        """Register one more attempted unit and return its index."""
        self.attempted += 1
        return self.attempted - 1

    def fail(self, unit: int, reason: str) -> None:
        if not 0 <= unit < self.attempted:
            raise ValueError(f"unit {unit} was never attempted")
        self._failed_units.add(unit)
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    @property
    def failed(self) -> int:
        return len(self._failed_units)
