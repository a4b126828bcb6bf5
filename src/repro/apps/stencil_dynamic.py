"""STEN-1/STEN-2 with dynamic repartitioning (paper §7 future work).

Extends the stencil with the load-imbalance strategy the paper sketches:
every ``epoch`` iterations, the tasks gather their measured per-row compute
times, and if the imbalance exceeds a threshold, rank 0 recomputes the
partition vector from the *measured* speeds (a runtime Eq 3), broadcasts it,
and the tasks ship the rows whose ownership changed before continuing.

External load is injected through :class:`LoadEvent` schedules applied on
the simulated timeline, and the task-side ``compute`` honours each node's
current load — so a node that picks up a competing job genuinely slows
down, trips the monitor, and sheds rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.apps.stencil import BYTES_PER_POINT, OPS_PER_POINT
from repro.errors import PartitionError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.processor import Processor
from repro.mmps.system import MMPS
from repro.model.vector import PartitionVector
from repro.partition.dynamic import (
    detect_imbalance,
    moved_pdus,
    rebalance_counts,
    transfer_plan,
)
from repro.spmd.collectives import broadcast, reduce
from repro.spmd.runtime import RunResult, SPMDRun
from repro.spmd.topology import Topology

__all__ = ["LoadEvent", "DynamicStencilResult", "run_stencil_dynamic", "apply_load_schedule"]


@dataclass(frozen=True)
class LoadEvent:
    """At simulated time ``at_ms``, set processor ``proc_id``'s load."""

    at_ms: float
    proc_id: int
    load: float


def apply_load_schedule(
    network: HeterogeneousNetwork, events: Sequence[LoadEvent]
) -> None:
    """Install a process that applies the load events on the timeline."""

    def applier():
        for event in sorted(events, key=lambda e: e.at_ms):
            delay = event.at_ms - network.sim.now
            if delay > 0:
                yield network.sim.timeout(delay)
            network.processor(event.proc_id).set_load(event.load)
            network.tracer.record(
                "load", "set", proc=event.proc_id, load=event.load
            )

    if events:
        network.sim.process(applier(), name="load-schedule")


@dataclass
class DynamicStencilResult:
    """Outcome of a dynamically repartitioned stencil run."""

    run: RunResult
    vectors: list[list[int]] = field(default_factory=list)
    repartitions: int = 0
    rows_moved: int = 0

    @property
    def elapsed_ms(self) -> float:
        """Completion time including repartitioning overhead."""
        return self.run.elapsed_ms


def run_stencil_dynamic(
    mmps: MMPS,
    processors: Sequence[Processor],
    vector: PartitionVector,
    n: int,
    *,
    iterations: int = 20,
    overlap: bool = False,
    epoch: int = 5,
    imbalance_threshold: float = 1.25,
    enabled: bool = True,
) -> DynamicStencilResult:
    """Run the stencil, rebalancing rows every ``epoch`` iterations.

    ``enabled=False`` runs the identical epoch/monitoring structure but
    never repartitions — the static baseline for ablations.  Timing mode
    only (the repartitioning mechanics are identical with payloads; the
    static stencil's numerics are verified in :mod:`repro.apps.stencil`).
    """
    counts = list(vector)
    if len(counts) != len(processors):
        raise PartitionError(
            f"vector has {len(counts)} entries for {len(processors)} processors"
        )
    if vector.total != n:
        raise PartitionError(f"vector covers {vector.total} rows but N={n}")
    if any(c < 1 for c in counts):
        raise PartitionError("every processor needs at least one row")
    if epoch < 1:
        raise PartitionError(f"epoch must be >= 1, got {epoch}")

    border_bytes = BYTES_PER_POINT * n
    row_bytes = BYTES_PER_POINT * n
    state = {"vectors": [list(counts)], "repartitions": 0, "rows_moved": 0}

    def body(ctx):
        # Each task keeps its own copy of the current decomposition: tasks
        # sit at different points of the simulated timeline, so shared
        # mutable state would race.  All copies stay identical because every
        # rank applies the same broadcast updates.
        local_counts = list(counts)
        my_rows = local_counts[ctx.rank]
        done = 0
        while done < iterations:
            # -- one epoch of ordinary stencil cycles -------------------------
            compute_before = ctx.compute_time_ms
            steps = min(epoch, iterations - done)
            for _ in range(steps):
                north = ctx.rank - 1 if ctx.rank > 0 else None
                south = ctx.rank + 1 if ctx.rank < ctx.size - 1 else None
                if north is not None:
                    yield from ctx.isend(north, border_bytes, tag="s")
                if south is not None:
                    yield from ctx.isend(south, border_bytes, tag="n")
                if overlap:
                    interior = max(my_rows - 2, 0)
                    yield from ctx.compute(OPS_PER_POINT * n * interior)
                    if north is not None:
                        yield from ctx.recv(from_rank=north, tag="n")
                    if south is not None:
                        yield from ctx.recv(from_rank=south, tag="s")
                    yield from ctx.compute(OPS_PER_POINT * n * (my_rows - max(my_rows - 2, 0)))
                else:
                    if north is not None:
                        yield from ctx.recv(from_rank=north, tag="n")
                    if south is not None:
                        yield from ctx.recv(from_rank=south, tag="s")
                    yield from ctx.compute(OPS_PER_POINT * n * my_rows)
                ctx.mark_cycle()
            done += steps
            if done >= iterations or not enabled:
                continue

            # -- epoch boundary: gather measured compute times -------------------
            # Imbalance is a *completion-time* property (tasks should finish
            # each cycle together), so detection uses total per-task epoch
            # times; the new shares come from per-row speeds (measured S_i).
            epoch_ms = ctx.compute_time_ms - compute_before
            per_row = epoch_ms / (my_rows * steps)
            sample = {ctx.rank: (epoch_ms, per_row)}
            merged = yield from reduce(
                ctx, 24 * ctx.size, sample, lambda a, b: {**a, **b}, tag=f"m{done}"
            )
            if ctx.rank == 0:
                totals = [merged[r][0] for r in range(ctx.size)]
                per_row_times = [merged[r][1] for r in range(ctx.size)]
                if detect_imbalance(totals, threshold=imbalance_threshold):
                    # rebalance_counts guarantees every rank keeps >= 1 row,
                    # so only the no-op case is filtered here.
                    new_vec = rebalance_counts(local_counts, per_row_times)
                    new_counts = list(new_vec)
                    if new_counts == local_counts:
                        new_counts = None
                else:
                    new_counts = None
            else:
                new_counts = None
            new_counts = yield from broadcast(
                ctx, 8 * ctx.size, new_counts, root=0, tag=f"v{done}"
            )
            if new_counts is None:
                continue

            # -- data movement: ship rows to their new owners --------------------
            plan = transfer_plan(local_counts, new_counts)
            for (src, dst), rows in sorted(plan.items()):
                if src == ctx.rank:
                    yield from ctx.isend(dst, rows * row_bytes, tag=f"x{done}:{src}")
            for (src, dst), rows in sorted(plan.items()):
                if dst == ctx.rank:
                    yield from ctx.recv(from_rank=src, tag=f"x{done}:{src}")
            if ctx.rank == 0:
                state["vectors"].append(list(new_counts))
                state["repartitions"] += 1
                state["rows_moved"] += moved_pdus(plan)
            local_counts = list(new_counts)
            my_rows = local_counts[ctx.rank]
        return my_rows

    run = SPMDRun(mmps, processors, body, Topology.ONE_D)
    result = run.execute()
    return DynamicStencilResult(
        run=result,
        vectors=state["vectors"],
        repartitions=state["repartitions"],
        rows_moved=state["rows_moved"],
    )
