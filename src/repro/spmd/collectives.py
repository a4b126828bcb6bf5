"""Collective operations built on the task primitives.

The paper's applications need broadcast (Gaussian elimination's pivot-row
distribution) and reductions (convergence tests).  These are implemented on
top of :class:`~repro.spmd.task.TaskContext` point-to-point operations so
their cost emerges from the same simulated substrate the cost functions are
fitted to.

Every collective must be called by *all* ranks of the run, like MPI.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.sim.process import ProcessGenerator
from repro.spmd.task import TaskContext

__all__ = ["broadcast", "tree_broadcast", "reduce", "allreduce", "barrier", "gather", "scatter", "allgather"]


def broadcast(
    ctx: TaskContext, nbytes: int, value: Any = None, root: int = 0, tag: str = "bcast"
) -> ProcessGenerator:
    """Root sends ``value`` (costed at ``nbytes``) to every other rank.

    Flat (linear) broadcast — the root transmits to each rank in turn,
    matching the paper's view of broadcast as inherently bandwidth-limited:
    offered load is linear in the total number of processors.
    Returns the broadcast value on every rank.
    """
    if ctx.size == 1:
        return value
    if ctx.rank == root:
        events = []
        for other in range(ctx.size):
            if other == root:
                continue
            done = yield from ctx.isend(other, nbytes, tag=tag, payload=value)
            events.append(done)
        if events:
            yield ctx.sim.all_of(events)
        return value
    msg = yield from ctx.recv(from_rank=root, tag=tag)
    return msg.payload


def tree_broadcast(
    ctx: TaskContext, nbytes: int, value: Any = None, root: int = 0, tag: str = "tbcast"
) -> ProcessGenerator:
    """Binomial-tree broadcast: log-depth alternative to the flat one.

    Not something 1994-MMPS provided — included as the natural "what if"
    extension: the offered load is still linear in total processors (every
    rank receives the payload once), but the *critical path* drops from
    ``p-1`` sequential sends at the root to ``log2 p`` rounds.  The
    flat-vs-tree ablation quantifies how much of broadcast's badness is
    root serialization vs raw bandwidth.
    """
    if ctx.size == 1:
        return value
    me = (ctx.rank - root) % ctx.size
    if me != 0:
        # Parent in the binomial tree: my index with the lowest set bit
        # cleared (so node 0b110's parent is 0b100, 0b101's is 0b100, ...).
        parent_index = me & (me - 1)
        parent = (parent_index + root) % ctx.size
        msg = yield from ctx.recv(from_rank=parent, tag=tag)
        value = msg.payload
    # Children: set, one at a time, every bit *below* my lowest set bit
    # (below ctx.size for the root) — the inverse of the parent rule.
    events = []
    limit = (me & -me) if me != 0 else ctx.size
    bit = 1
    while bit < limit:
        child_index = me | bit
        if child_index < ctx.size:
            child = (child_index + root) % ctx.size
            done = yield from ctx.isend(child, nbytes, tag=tag, payload=value)
            events.append(done)
        bit <<= 1
    if events:
        yield ctx.sim.all_of(events)
    return value


def reduce(
    ctx: TaskContext,
    nbytes: int,
    value: Any,
    op: Callable[[Any, Any], Any],
    root: int = 0,
    tag: str = "reduce",
) -> ProcessGenerator:
    """Combine every rank's ``value`` with ``op`` at ``root``.

    Binary-tree combine: rank r receives from children ``2r+1``/``2r+2``
    (tree-index relative to root at 0) and sends its partial result to its
    parent.  Non-root ranks return ``None``.
    """
    if ctx.size == 1:
        return value
    # Relabel so the root is tree-index 0.
    def to_tree(rank: int) -> int:
        return (rank - root) % ctx.size

    def from_tree(index: int) -> int:
        return (index + root) % ctx.size

    me = to_tree(ctx.rank)
    acc = value
    for child_index in (2 * me + 1, 2 * me + 2):
        if child_index < ctx.size:
            msg = yield from ctx.recv(from_rank=from_tree(child_index), tag=tag)
            acc = op(acc, msg.payload)
    if me != 0:
        parent = from_tree((me - 1) // 2)
        yield from ctx.send(parent, nbytes, tag=tag, payload=acc)
        return None
    return acc


def allreduce(
    ctx: TaskContext,
    nbytes: int,
    value: Any,
    op: Callable[[Any, Any], Any],
    tag: str = "allreduce",
) -> ProcessGenerator:
    """Reduce to rank 0 then broadcast the result back to all ranks."""
    total = yield from reduce(ctx, nbytes, value, op, root=0, tag=tag + ":r")
    result = yield from broadcast(ctx, nbytes, total, root=0, tag=tag + ":b")
    return result


def barrier(ctx: TaskContext, tag: str = "barrier") -> ProcessGenerator:
    """Synchronize all ranks (a zero-byte allreduce)."""
    yield from allreduce(ctx, 0, None, lambda a, b: None, tag=tag)
    return None


def gather(
    ctx: TaskContext, nbytes: int, value: Any, root: int = 0, tag: str = "gather"
) -> ProcessGenerator:
    """Collect every rank's ``value`` at ``root``, in rank order.

    Each non-root rank sends one ``nbytes`` message; the root receives
    ``size-1`` of them — the same root-serialized shape as the flat
    broadcast, and equally bandwidth-limited.  Non-root ranks return
    ``None``.
    """
    if ctx.size == 1:
        return [value]
    if ctx.rank != root:
        yield from ctx.send(root, nbytes, tag=tag, payload=value)
        return None
    values: list[Any] = [None] * ctx.size
    values[root] = value
    for other in range(ctx.size):
        if other == root:
            continue
        msg = yield from ctx.recv(from_rank=other, tag=tag)
        values[other] = msg.payload
    return values


def scatter(
    ctx: TaskContext,
    nbytes: int,
    values: Any = None,
    root: int = 0,
    tag: str = "scatter",
) -> ProcessGenerator:
    """Root distributes ``values[rank]`` to each rank (cost ``nbytes`` each).

    The initial-data-distribution primitive behind ``T_startup``.  Returns
    this rank's element on every rank.
    """
    if ctx.size == 1:
        return values[0] if values is not None else None
    if ctx.rank == root:
        if values is None or len(values) != ctx.size:
            raise ValueError(
                f"root needs one value per rank ({ctx.size}), got "
                f"{None if values is None else len(values)}"
            )
        events = []
        for other in range(ctx.size):
            if other == root:
                continue
            done = yield from ctx.isend(other, nbytes, tag=tag, payload=values[other])
            events.append(done)
        if events:
            yield ctx.sim.all_of(events)
        return values[root]
    msg = yield from ctx.recv(from_rank=root, tag=tag)
    return msg.payload


def allgather(
    ctx: TaskContext, nbytes: int, value: Any, tag: str = "allgather"
) -> ProcessGenerator:
    """Ring all-gather: after ``size-1`` rounds every rank holds all values.

    Each round, every rank forwards the block it most recently received to
    its right neighbour — the bandwidth-optimal pattern for all-to-all data
    assembly on a ring (each block crosses each link exactly once).
    ``nbytes`` is the per-block message size.  Returns a list indexed by
    rank.
    """
    values: list[Any] = [None] * ctx.size
    values[ctx.rank] = value
    if ctx.size == 1:
        return values
    right = (ctx.rank + 1) % ctx.size
    left = (ctx.rank - 1) % ctx.size
    carry_rank, carry_value = ctx.rank, value
    for step in range(ctx.size - 1):
        yield from ctx.isend(
            right, nbytes, tag=f"{tag}:{step}", payload=(carry_rank, carry_value)
        )
        msg = yield from ctx.recv(from_rank=left, tag=f"{tag}:{step}")
        carry_rank, carry_value = msg.payload
        values[carry_rank] = carry_value
    return values
