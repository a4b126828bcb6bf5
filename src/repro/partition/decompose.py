"""Data-domain decomposition: computing the partition vector (Eq 3).

For computational complexity *linear* in the PDU count, the load-balanced
share of processor ``p_i`` with instruction time ``S_i`` (µs/op, smaller =
faster) is

    ``A_i = ((1/S_i) / Σ_j (P_j / S_j)) · num_PDUs``

(the printed Eq 3 is garbled; this form reproduces the paper's own worked
example ``A[Sparc2] = 2N/(2·P1 + P2)``, ``A[IPC] = N/(2·P1 + P2)`` and every
Table 1 entry — see DESIGN.md).

For *non-linear* per-task work ``w(A)`` (ops executed by a task holding
``A`` PDUs), :func:`balanced_shares_nonlinear` equalizes ``S_i · w(A_i)``
numerically — the generalisation the paper delegates to [6].
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq

from repro.errors import PartitionError
from repro.model.vector import PartitionVector

__all__ = [
    "positive_rates",
    "balanced_shares",
    "balanced_partition_vector",
    "balanced_shares_nonlinear",
    "equal_shares",
]


def positive_rates(rates_usec_per_op: Sequence[float]) -> np.ndarray:
    """``S_i`` per processor as a float array; a :class:`PartitionError`
    names them all unless each is > 0 (zero, negative and NaN alike)."""
    rates = np.asarray(rates_usec_per_op, dtype=float)
    if (~(rates > 0)).any():
        raise PartitionError(f"instruction rates must be positive: {rates.tolist()}")
    return rates


def balanced_shares(rates_usec_per_op: Sequence[float], num_pdus: int) -> list[float]:
    """Eq 3: real-valued load-balanced PDU shares, one per processor.

    ``rates_usec_per_op`` lists ``S_i`` for each chosen processor.
    """
    rates = positive_rates(rates_usec_per_op)
    if rates.size == 0:
        raise PartitionError("no processors to decompose over")
    if num_pdus < 1:
        raise PartitionError(f"num_pdus must be >= 1, got {num_pdus}")
    speeds = 1.0 / rates  # ops per µs; faster processors get more PDUs
    return (speeds / speeds.sum() * num_pdus).tolist()


def balanced_partition_vector(
    rates_usec_per_op: Sequence[float], num_pdus: int
) -> PartitionVector:
    """Integer partition vector from Eq 3 via largest-remainder rounding."""
    return PartitionVector.from_shares(
        balanced_shares(rates_usec_per_op, num_pdus), num_pdus
    )


def equal_shares(n_processors: int, num_pdus: int) -> PartitionVector:
    """The naive equal decomposition (the paper's N=1200 counterexample)."""
    if n_processors < 1:
        raise PartitionError("need at least one processor")
    base = num_pdus // n_processors
    extra = num_pdus - base * n_processors
    return PartitionVector([base + (1 if i < extra else 0) for i in range(n_processors)])


def balanced_shares_nonlinear(
    rates_usec_per_op: Sequence[float],
    num_pdus: int,
    work_fn: Callable[[float], float],
    *,
    tol: float = 1e-9,
) -> list[float]:
    """Load balance for per-task work ``w(A)`` that is non-linear in ``A``.

    Finds shares such that ``S_i · w(A_i)`` is equal across processors and
    ``Σ A_i = num_pdus``.  ``work_fn`` must be continuous and strictly
    increasing on ``[0, num_pdus]`` with ``w(0) >= 0``.

    Implementation: parameterize by the common finish time ``T``; each
    ``A_i(T) = w⁻¹(T / S_i)`` is found by bisection, and ``T`` itself by
    root-finding ``Σ A_i(T) - num_pdus = 0`` (monotone in ``T``).
    """
    rates = positive_rates(rates_usec_per_op)
    if rates.size == 0:
        raise PartitionError("no processors to decompose over")
    if num_pdus < 1:
        raise PartitionError(f"num_pdus must be >= 1, got {num_pdus}")
    w_max = work_fn(float(num_pdus))
    w_zero = work_fn(0.0)
    if not w_max > w_zero:
        raise PartitionError("work_fn must be strictly increasing on the domain")

    def inverse_work(target: float) -> float:
        """w⁻¹(target), clipped to [0, num_pdus]."""
        if target <= w_zero:
            return 0.0
        if target >= w_max:
            return float(num_pdus)
        return brentq(lambda a: work_fn(a) - target, 0.0, float(num_pdus), xtol=tol)

    def total_at(t: float) -> float:
        return sum(inverse_work(t / s) for s in rates) - num_pdus

    # Bracket T: at T_hi every processor could hold the whole domain.
    t_hi = float(np.max(rates)) * w_max
    t_lo = 0.0
    if total_at(t_hi) < 0:
        raise PartitionError("work_fn inversion failed to cover the domain")
    t_star = brentq(total_at, t_lo, t_hi, xtol=tol)
    shares = [inverse_work(t_star / s) for s in rates]
    # Normalize tiny numerical drift so rounding sees consistent shares.
    scale = num_pdus / sum(shares) if sum(shares) > 0 else 1.0
    return [a * scale for a in shares]
