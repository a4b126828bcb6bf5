"""Distributed power method — an all-gather-per-cycle application.

Iterates ``x ← A·x / ‖A·x‖`` for a row-distributed dense symmetric matrix
until the Rayleigh-quotient eigenvalue estimate stabilizes.  Every cycle
needs the *whole* vector on every task, so the dominant communication is a
ring all-gather — a pattern whose per-task traffic grows with the total
problem (like broadcast) but pipelines around the ring (unlike broadcast).

PDU = one matrix row; per-PDU work per cycle = ``2N`` ops (one dot
product); ring message ≈ the average block, ``8·N/P̄`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import PartitionError
from repro.hardware.processor import Processor
from repro.mmps.system import MMPS
from repro.model.computation import DataParallelComputation
from repro.model.phases import CommunicationPhase, ComputationPhase
from repro.model.vector import PartitionVector
from repro.spmd.collectives import allgather, allreduce
from repro.spmd.runtime import RunResult, SPMDRun
from repro.spmd.topology import Topology

__all__ = ["PowerProblem", "power_computation", "run_power_method", "reference_dominant_eigenvalue"]

FLOAT_BYTES = 8


@dataclass(frozen=True)
class PowerProblem:
    """An NxN symmetric system iterated to eigenvalue tolerance ``tol``."""

    n: int
    tol: float = 1e-9
    max_iterations: int = 200

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"matrix must be at least 2x2, got N={self.n}")
        if self.tol <= 0 or self.max_iterations < 1:
            raise ValueError("invalid tolerance/iteration bound")


def power_computation(
    n: int, *, expected_processors: int = 4, expected_iterations: int = 40
) -> DataParallelComputation:
    """Annotations: ``2N`` fp ops per row per cycle; ring all-gather whose
    block size is the *largest* circulating block — the paper's "b may
    depend on A_i in some cases", expressed through the per-config
    callback (the scalar annotation keeps a nominal estimate as fallback).
    """
    problem = PowerProblem(n)
    return DataParallelComputation(
        name="POWER",
        problem=problem,
        num_pdus=lambda p: p.n,
        computation_phases=[
            ComputationPhase("matvec", complexity=lambda p: 2.0 * p.n, op_kind="fp")
        ],
        communication_phases=[
            # A ring all-gather is P-1 rounds of the ring pattern per
            # iteration — the paper's single-communication-per-cycle
            # assumption does not hold, so the rounds annotation carries it.
            CommunicationPhase(
                "allgather",
                topology=Topology.RING,
                complexity=lambda p: FLOAT_BYTES * p.n / expected_processors,
                per_config_complexity=lambda p, shares: FLOAT_BYTES * max(shares),
                rounds=lambda p, total: max(total - 1, 1),
            ),
            # The Rayleigh-quotient all-reduce (16-byte payload).
            CommunicationPhase(
                "rayleigh", topology=Topology.BROADCAST, complexity=16.0, rounds=2
            ),
        ],
        cycles=expected_iterations,
    )


def reference_dominant_eigenvalue(matrix: np.ndarray) -> float:
    """|λ|max of a symmetric matrix via NumPy — the verification oracle."""
    eigenvalues = np.linalg.eigvalsh(matrix)
    return float(max(abs(eigenvalues[0]), abs(eigenvalues[-1])))


@dataclass
class PowerResult:
    """Outcome of one distributed power-method run."""

    run: RunResult
    eigenvalue: float
    iterations: int

    @property
    def elapsed_ms(self) -> float:
        """Completion time of the converged run."""
        return self.run.elapsed_ms


def run_power_method(
    mmps: MMPS,
    processors: Sequence[Processor],
    vector: PartitionVector,
    matrix: np.ndarray,
    *,
    tol: float = 1e-9,
    max_iterations: int = 200,
) -> PowerResult:
    """Run the distributed power method; returns the dominant eigenvalue."""
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ValueError(f"matrix must be square, got {matrix.shape}")
    if vector.total != n:
        raise PartitionError(f"vector covers {vector.total} rows but N={n}")
    if vector.size != len(processors):
        raise PartitionError(
            f"vector has {vector.size} entries for {len(processors)} processors"
        )
    if any(c < 1 for c in vector):
        raise PartitionError("every processor needs at least one row")
    bounds = np.concatenate([[0], np.cumsum(list(vector))]).astype(int)
    blocks = [matrix[bounds[i] : bounds[i + 1]].astype(np.float64) for i in range(vector.size)]
    block_bytes = [FLOAT_BYTES * int(c) for c in vector]

    def body(ctx):
        a_block = blocks[ctx.rank]
        rows = a_block.shape[0]
        x_local = np.ones(rows) / np.sqrt(n)
        eigenvalue = 0.0
        iterations = 0
        for iteration in range(1, max_iterations + 1):
            pieces = yield from allgather(
                ctx, max(block_bytes), x_local, tag=f"ag{iteration}"
            )
            x_full = np.concatenate(pieces)
            yield from ctx.compute(2 * n * rows, kind="fp")
            y_local = a_block @ x_full
            # Rayleigh numerator/denominator and norm via all-reduce.
            stats = (
                float(x_local @ y_local),
                float(y_local @ y_local),
            )
            num, ysq = yield from allreduce(
                ctx, 16, stats, lambda a, b: (a[0] + b[0], a[1] + b[1]),
                tag=f"rq{iteration}",
            )
            norm = np.sqrt(ysq)
            if norm == 0.0:
                raise PartitionError("zero vector during power iteration")
            new_eigenvalue = num  # x normalized: x·Ax is the Rayleigh quotient
            x_local = y_local / norm
            iterations = iteration
            ctx.mark_cycle()
            if abs(new_eigenvalue - eigenvalue) < tol:
                eigenvalue = new_eigenvalue
                break
            eigenvalue = new_eigenvalue
        return eigenvalue, iterations

    run = SPMDRun(mmps, processors, body, Topology.RING)
    result = run.execute()
    eigenvalue, iterations = result.task_values[0]
    for other_ev, other_it in result.task_values[1:]:
        assert other_it == iterations
    return PowerResult(run=result, eigenvalue=abs(eigenvalue), iterations=iterations)
