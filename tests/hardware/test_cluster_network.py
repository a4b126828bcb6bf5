"""Tests for clusters, managers, and the network builder/validator."""

import pytest

from repro.errors import NetworkModelError
from repro.hardware import (
    EthernetParams,
    HeterogeneousNetwork,
    Processor,
)
from repro.hardware.cluster import Cluster
from repro.hardware.presets import (
    IPC,
    SPARC2,
    paper_testbed,
    three_cluster_network,
)
from repro.sim import Simulator


def test_paper_testbed_shape():
    net = paper_testbed()
    assert [c.name for c in net.clusters] == ["sparc2", "ipc"]
    assert [len(c) for c in net.clusters] == [6, 6]
    assert net.total_processors() == 12


def test_cluster_homogeneity_enforced():
    sim = Simulator()
    from repro.hardware.segment import EthernetSegment

    seg = EthernetSegment(sim, "s")
    procs = [Processor(0, SPARC2), Processor(1, IPC)]
    with pytest.raises(ValueError, match="homogeneous"):
        Cluster("mixed", SPARC2, procs, seg)


def test_cluster_assigns_ranks_and_names():
    net = paper_testbed()
    sparc = net.cluster("sparc2")
    assert [p.rank_in_cluster for p in sparc] == list(range(6))
    assert all(p.cluster_name == "sparc2" for p in sparc)


def test_global_proc_ids_unique_and_ordered():
    net = paper_testbed()
    ids = [p.proc_id for p in net.processors()]
    assert ids == list(range(12))
    assert net.processor(7).cluster_name == "ipc"


def test_unknown_lookups_raise():
    net = paper_testbed()
    with pytest.raises(NetworkModelError):
        net.cluster("vax")
    with pytest.raises(NetworkModelError):
        net.processor(99)


def test_clusters_by_power_orders_fastest_first():
    net = three_cluster_network()
    ordered = [c.spec.name for c in net.clusters_by_power()]
    assert ordered == ["RS6000", "HP9000", "Sparc2"]


def test_validate_rejects_unequal_bandwidth():
    net = HeterogeneousNetwork()
    net.add_cluster("a", SPARC2, 2)
    net.add_cluster("b", IPC, 2, ethernet=EthernetParams(bandwidth_bps=100e6))
    with pytest.raises(NetworkModelError, match="equal bandwidth"):
        net.validate()


def test_validate_rejects_empty_network():
    with pytest.raises(NetworkModelError, match="no clusters"):
        HeterogeneousNetwork().validate()


def test_duplicate_cluster_name_rejected():
    net = HeterogeneousNetwork()
    net.add_cluster("a", SPARC2, 1)
    with pytest.raises(NetworkModelError, match="duplicate"):
        net.add_cluster("a", IPC, 1)


def test_manager_info_reports_paper_fields():
    net = paper_testbed()
    info = net.cluster("sparc2").manager.info()
    assert info.total_nodes == 6
    assert info.available_nodes == 6
    assert info.fp_usec_per_op == pytest.approx(0.3)
    assert info.bandwidth_bps == pytest.approx(10e6)


def test_manager_threshold_policy():
    net = paper_testbed()
    manager = net.cluster("ipc").manager
    manager.observe_loads([0.0, 0.01, 0.2, 0.9, 0.0, 0.04])
    avail = manager.available_processors()
    assert len(avail) == 4
    assert manager.info().available_nodes == 4


def test_manager_observe_loads_length_checked():
    net = paper_testbed()
    with pytest.raises(ValueError):
        net.cluster("ipc").manager.observe_loads([0.0, 0.1])


def test_crosses_router():
    net = paper_testbed()
    s0 = net.processor(0)
    s1 = net.processor(1)
    i0 = net.processor(6)
    assert not net.crosses_router(s0, s1)
    assert net.crosses_router(s0, i0)


def test_intra_cluster_frame_transfer_time():
    net = paper_testbed()
    src, dst = net.processor(0), net.processor(1)

    def body():
        yield from net.transfer_frame(src, dst, 1000)
        return net.sim.now

    elapsed = net.sim.run_process(body())
    seg = net.cluster("sparc2").segment
    assert elapsed == pytest.approx(seg.params.frame_time_ms(1000))


def test_inter_cluster_frame_pays_router_and_both_segments():
    net = paper_testbed()
    src, dst = net.processor(0), net.processor(6)

    def body():
        yield from net.transfer_frame(src, dst, 1000)
        return net.sim.now

    elapsed = net.sim.run_process(body())
    seg = net.cluster("sparc2").segment
    expected = (
        2 * seg.params.frame_time_ms(1000)
        + net.router.params.forward_delay_ms(1000)
    )
    assert elapsed == pytest.approx(expected)
    assert net.router.frames_forwarded == 1


def test_tracer_records_router_activity():
    net = paper_testbed(trace=True)
    src, dst = net.processor(0), net.processor(6)

    def body():
        yield from net.transfer_frame(src, dst, 64)

    net.sim.run_process(body())
    router_recs = list(net.tracer.by_category("router"))
    assert len(router_recs) == 1
    assert router_recs[0].fields["nbytes"] == 64
