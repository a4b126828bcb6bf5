"""Edge-case coverage across subsystems."""

import pytest

from repro.hardware.presets import paper_testbed
from repro.mmps import MMPS, HostCostParams


def test_unreliable_mode_delivers_out_of_order_without_stalling():
    """Without acks there is no retransmission to wait for: FIFO gating is
    bypassed so a dropped message cannot stall the channel forever."""
    net = paper_testbed(seed=17)
    mmps = MMPS(net, reliable=False, loss_rate=0.4)
    a = mmps.endpoint(net.processor(0))
    b = mmps.endpoint(net.processor(1))
    n_messages = 20

    def sender():
        for i in range(n_messages):
            yield from a.isend(b.proc, 200, tag="u", payload=i)

    def receiver():
        # Receive whatever arrives within a bounded window.
        got = []
        while True:
            if b.pending_messages == 0 and net.sim.now > 500.0:
                break
            if b.pending_messages:
                msg = yield from b.recv(tag="u")
                got.append(msg.payload)
            else:
                yield net.sim.timeout(10.0)
        return got

    net.sim.process(sender())
    got = net.sim.run_process(receiver())
    # Lossy best-effort: some arrived, some did not, none duplicated.
    assert 0 < len(got) < n_messages
    assert len(set(got)) == len(got)


def test_jitter_factor_floor_clamped():
    """Extreme negative jitter draws clamp at 10% of the nominal time."""
    from repro.hardware import EthernetParams, EthernetSegment
    from repro.sim import Simulator

    class FloorRng:
        def standard_normal(self):
            return -1e9  # would make the factor hugely negative

    sim = Simulator()
    seg = EthernetSegment(sim, "s", params=EthernetParams(jitter=0.5), rng=FloorRng())

    def body():
        yield from seg.transmit_frame(1000)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(0.1 * seg.params.frame_time_ms(1000))


def test_store_blocked_getter_not_starved_by_filtered_peer():
    """A filtered getter waiting for a rare item must not block an earlier
    unfiltered getter from receiving a later item."""
    from repro.sim import Simulator, Store

    sim = Simulator()
    store = Store(sim)
    results = {}

    def picky():
        item = yield store.get(lambda x: x == "rare")
        results["picky"] = (item, sim.now)

    def hungry():
        item = yield store.get()
        results["hungry"] = (item, sim.now)

    sim.process(picky())
    sim.process(hungry())

    def producer():
        yield sim.timeout(1.0)
        store.put("common")
        yield sim.timeout(1.0)
        store.put("rare")

    sim.process(producer())
    sim.run()
    assert results["hungry"] == ("common", 1.0)
    assert results["picky"] == ("rare", 2.0)


def test_nonlinear_decompose_concave_work():
    """Sub-linear (concave) work functions balance too (e.g. w = sqrt)."""
    from repro.partition import balanced_shares_nonlinear

    shares = balanced_shares_nonlinear([0.3, 0.6], 100, lambda a: a**0.5)
    assert sum(shares) == pytest.approx(100)
    finish = [s * (a**0.5) for s, a in zip([0.3, 0.6], shares)]
    assert finish[0] == pytest.approx(finish[1], rel=1e-6)


def test_is_unimodal_helpers():
    from repro.experiments.fig3 import CurvePoint, is_unimodal, p_ideal

    def pts(values):
        return [CurvePoint(i + 1, i + 1, 0, v) for i, v in enumerate(values)]

    assert is_unimodal(pts([5, 3, 1, 2, 4]))
    assert is_unimodal(pts([3, 2, 1]))  # monotone decreasing
    assert is_unimodal(pts([1, 2, 3]))  # monotone increasing
    assert not is_unimodal(pts([3, 1, 2, 1, 3]))
    assert p_ideal(pts([5, 3, 1, 2, 4])).total_processors == 3


def test_zero_byte_exchange_on_every_topology():
    """Zero-byte messages are legal end to end (pure synchronization)."""
    from repro.spmd import SPMDRun, Topology

    for topo in (Topology.ONE_D, Topology.RING, Topology.TREE):
        net = paper_testbed()
        mmps = MMPS(net)
        procs = list(net.cluster("sparc2"))[:4]

        def body(ctx):
            got = yield from ctx.exchange(0)
            return len(got)

        result = SPMDRun(mmps, procs, body, topo).execute()
        assert all(v >= 1 for v in result.task_values)


def test_retransmit_timeout_respected_exactly_once_when_ack_slow():
    """An ack that arrives just after the timeout triggers exactly one
    spurious retransmission, and delivery stays exactly-once."""
    net = paper_testbed()
    costs = HostCostParams(retransmit_timeout_ms=0.05)  # far below the ack RTT
    mmps = MMPS(net, host_costs=costs)
    a = mmps.endpoint(net.processor(0))
    b = mmps.endpoint(net.processor(1))

    def driver():
        done = net.sim.process(b.recv())
        yield from a.send(b.proc, 2000, payload="once")
        msg = yield done
        return msg.payload

    assert net.sim.run_process(driver()) == "once"
    net.sim.run()
    assert a.stats.retransmissions >= 1
    assert b.stats.messages_received == 1


def test_partition_vector_iteration_and_indexing():
    from repro.model import PartitionVector

    vec = PartitionVector([3, 1, 2])
    assert vec[0] == 3 and vec[2] == 2
    assert list(vec) == [3, 1, 2]
    assert vec.size == 3


def test_processor_configuration_lookup_absent_cluster():
    from repro.hardware.presets import paper_testbed
    from repro.partition import ProcessorConfiguration, gather_available_resources

    res = gather_available_resources(paper_testbed())
    cfg = ProcessorConfiguration(res, (2, 0))
    assert cfg.count_of("sparc2") == 2
    assert cfg.count_of("vax") == 0
    assert cfg.describe() == "sparc2:2"
    empty = ProcessorConfiguration(res, (0, 0))
    assert empty.describe() == "(empty)"
