"""The partition vector: PDUs assigned to each processor (paper §4).

``A_i`` = number of PDUs assigned to processor ``p_i``, with the invariant
``Σ A_i = num_PDUs``.  The partitioner computes real-valued balanced shares
(Eq 3); :func:`round_preserving_sum` turns them into integers by largest
remainder, preserving the invariant exactly — this reproduces Table 1's
integer entries (e.g. N=300, P=(6,2): A=(43, 21) with 6·43 + 2·21 = 300).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.model.pdu import PDUSpace, Region

__all__ = ["PartitionVector", "round_preserving_sum"]


def round_preserving_sum(shares: Sequence[float], total: int) -> list[int]:
    """Round non-negative ``shares`` to integers summing exactly to ``total``.

    Largest-remainder (Hamilton) rounding: floor everything, then hand the
    leftover units to the largest fractional parts.  Ties break toward lower
    index, keeping the result deterministic.
    """
    shares = np.asarray(shares, dtype=float)
    if np.any(shares < 0):
        raise PartitionError(f"negative share in {shares.tolist()}")
    if total < 0:
        raise PartitionError(f"total must be non-negative, got {total}")
    if shares.size == 0:
        if total != 0:
            raise PartitionError("cannot distribute PDUs over zero processors")
        return []
    floors = np.floor(shares).astype(int)
    leftover = total - int(floors.sum())
    if leftover < 0:
        raise PartitionError(
            f"shares {shares.tolist()} already exceed total {total}"
        )
    if leftover > shares.size:
        # Shares must sum to ~total for largest-remainder to make sense.
        raise PartitionError(
            f"shares sum to {shares.sum():.3f}, too far below total {total}"
        )
    remainders = shares - floors
    # argsort is stable; sort by (-remainder, index) for deterministic ties.
    order = np.lexsort((np.arange(shares.size), -remainders))
    result = floors.copy()
    for i in order[:leftover]:
        result[i] += 1
    return result.tolist()


@dataclass(frozen=True)
class PartitionVector:
    """PDU counts per task/processor, in task-rank order."""

    counts: tuple[int, ...]

    def __init__(self, counts: Sequence[int]) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in counts))
        if any(c < 0 for c in self.counts):
            raise PartitionError(f"negative PDU count in {self.counts}")

    @classmethod
    def from_shares(cls, shares: Sequence[float], num_pdus: int) -> "PartitionVector":
        """Integer partition vector from real-valued balanced shares."""
        return cls(round_preserving_sum(shares, num_pdus))

    @property
    def total(self) -> int:
        """``Σ A_i`` — must equal the domain's PDU count."""
        return sum(self.counts)

    @property
    def size(self) -> int:
        """Number of tasks/processors in the configuration."""
        return len(self.counts)

    def __getitem__(self, rank: int) -> int:
        return self.counts[rank]

    def __iter__(self):
        return iter(self.counts)

    def regions(self, space: PDUSpace) -> list[Region]:
        """Concrete contiguous regions in the given domain (Fig 2)."""
        return space.regions(self.counts)

    def nonzero_ranks(self) -> list[int]:
        """Ranks that received at least one PDU."""
        return [rank for rank, c in enumerate(self.counts) if c > 0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PartitionVector({list(self.counts)})"
