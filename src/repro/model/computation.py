"""The data parallel computation description consumed by the partitioner.

:class:`DataParallelComputation` bundles the problem instance, the PDU
domain, the annotated phases, and the iteration count.  The partitioning
algorithm only consults the *dominant* phases: the computation phase with
the largest computational complexity and the communication phase with the
largest communication complexity (paper §4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import AnnotationError
from repro.model.pdu import PDUSpace
from repro.model.phases import (
    Annotatable,
    CommunicationPhase,
    ComputationPhase,
    evaluate_annotation,
)

__all__ = ["DataParallelComputation"]


@dataclass(frozen=True)
class DataParallelComputation:
    """An annotated SPMD program, ready for runtime partitioning.

    Parameters
    ----------
    name:
        Program name (``"STEN-1"``...).
    problem:
        The problem instance handed to annotation callbacks (e.g. an object
        carrying ``N``).
    num_pdus:
        PDU-count annotation (number or callback of the problem).
    computation_phases / communication_phases:
        The annotated phases, in program order.
    cycles:
        Iteration count ``I`` (``T_elapsed = I·T_c + T_startup``).
    """

    name: str
    problem: Any
    num_pdus: Annotatable
    computation_phases: tuple[ComputationPhase, ...]
    communication_phases: tuple[CommunicationPhase, ...]
    cycles: int = 1

    def __init__(
        self,
        name: str,
        problem: Any,
        num_pdus: Annotatable,
        computation_phases: Sequence[ComputationPhase],
        communication_phases: Sequence[CommunicationPhase],
        cycles: int = 1,
    ) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "num_pdus", num_pdus)
        object.__setattr__(self, "computation_phases", tuple(computation_phases))
        object.__setattr__(self, "communication_phases", tuple(communication_phases))
        object.__setattr__(self, "cycles", int(cycles))
        self._validate()

    def _validate(self) -> None:
        if not self.computation_phases:
            raise AnnotationError(f"{self.name}: needs at least one computation phase")
        if self.cycles < 1:
            raise AnnotationError(f"{self.name}: cycles must be >= 1")
        comp_names = [p.name for p in self.computation_phases]
        if len(set(comp_names)) != len(comp_names):
            raise AnnotationError(f"{self.name}: duplicate computation phase names")
        comm_names = [p.name for p in self.communication_phases]
        if len(set(comm_names)) != len(comm_names):
            raise AnnotationError(f"{self.name}: duplicate communication phase names")
        for phase in self.communication_phases:
            if phase.overlap is not None and phase.overlap not in comp_names:
                raise AnnotationError(
                    f"{self.name}: communication phase {phase.name!r} overlaps "
                    f"unknown computation phase {phase.overlap!r}"
                )

    # -- runtime annotation evaluation -------------------------------------------

    def num_pdus_value(self) -> int:
        """``num_PDUs`` for this problem instance."""
        value = evaluate_annotation(self.num_pdus, self.problem)
        if value < 1 or value != int(value):
            raise AnnotationError(f"{self.name}: num_PDUs must be a positive integer, got {value}")
        return int(value)

    def pdu_space(self) -> PDUSpace:
        """The abstract decomposable domain."""
        return PDUSpace(num_pdus=self.num_pdus_value())

    def dominant_computation_phase(self) -> ComputationPhase:
        """The phase with the largest computational complexity (paper §4)."""
        return max(
            self.computation_phases,
            key=lambda p: p.complexity_value(self.problem),
        )

    def dominant_communication_phase(self) -> Optional[CommunicationPhase]:
        """The phase with the largest communication complexity, if any."""
        if not self.communication_phases:
            return None
        return max(
            self.communication_phases,
            key=lambda p: p.complexity_value(self.problem),
        )

    def overlapped_with_dominant(self) -> bool:
        """Whether the dominant communication overlaps the dominant computation.

        This is what decides whether ``T_overlap`` is non-zero in Eq 6 for
        the dominant-phase estimate (STEN-2 vs STEN-1).
        """
        comm = self.dominant_communication_phase()
        if comm is None or comm.overlap is None:
            return False
        return comm.overlap == self.dominant_computation_phase().name
