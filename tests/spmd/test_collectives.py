"""Tests for broadcast / reduce / allreduce / barrier collectives."""

import operator

from repro.hardware.presets import paper_testbed
from repro.mmps import MMPS
from repro.spmd import SPMDRun, Topology, allreduce, barrier, broadcast, reduce


def run_collective(body, n_sparc=4, n_ipc=0, topology=Topology.BROADCAST):
    net = paper_testbed()
    mmps = MMPS(net)
    procs = list(net.cluster("sparc2"))[:n_sparc] + list(net.cluster("ipc"))[:n_ipc]
    run = SPMDRun(mmps, procs, body, topology)
    return run.execute()


def test_broadcast_delivers_to_all():
    def body(ctx):
        value = yield from broadcast(ctx, 512, value="root-data" if ctx.rank == 0 else None)
        return value

    result = run_collective(body, n_sparc=5)
    assert result.task_values == ["root-data"] * 5


def test_broadcast_nonzero_root():
    def body(ctx):
        value = yield from broadcast(ctx, 64, value=ctx.rank, root=2)
        return value

    result = run_collective(body, n_sparc=4)
    assert result.task_values == [2, 2, 2, 2]


def test_broadcast_single_rank_is_noop():
    def body(ctx):
        value = yield from broadcast(ctx, 64, value="solo")
        return value

    assert run_collective(body, n_sparc=1).task_values == ["solo"]


def test_reduce_sums_at_root():
    def body(ctx):
        total = yield from reduce(ctx, 64, ctx.rank + 1, operator.add)
        return total

    result = run_collective(body, n_sparc=6)
    assert result.task_values[0] == 21  # 1+2+...+6
    assert all(v is None for v in result.task_values[1:])


def test_reduce_nonzero_root():
    def body(ctx):
        total = yield from reduce(ctx, 64, ctx.rank, operator.add, root=3)
        return total

    result = run_collective(body, n_sparc=5)
    assert result.task_values[3] == 10
    assert result.task_values[0] is None


def test_allreduce_everyone_gets_total():
    def body(ctx):
        total = yield from allreduce(ctx, 64, ctx.rank + 1, operator.add)
        return total

    result = run_collective(body, n_sparc=4, n_ipc=2)
    assert result.task_values == [21] * 6


def test_allreduce_max():
    def body(ctx):
        value = (ctx.rank * 7) % 5
        top = yield from allreduce(ctx, 32, value, max)
        return top

    result = run_collective(body, n_sparc=5)
    expected = max((r * 7) % 5 for r in range(5))
    assert result.task_values == [expected] * 5


def test_barrier_synchronizes():
    def body(ctx):
        # Stagger arrival; everyone leaves the barrier at the same sim time.
        yield from ctx.compute(10_000 * (ctx.rank + 1))
        yield from barrier(ctx)
        return ctx.sim.now

    result = run_collective(body, n_sparc=4)
    times = result.task_values
    assert max(times) - min(times) < 1.5  # within a message latency


def test_broadcast_cost_grows_with_size():
    """Flat broadcast is bandwidth limited: elapsed grows with rank count."""

    def body(ctx):
        yield from broadcast(ctx, 4096, value="x")

    small = run_collective(body, n_sparc=2).elapsed_ms
    large = run_collective(body, n_sparc=6, n_ipc=4).elapsed_ms
    assert large > small * 2
