"""The fault-tolerant partitioning runtime: gather retries, recovery, audit.

The acceptance property throughout: a run interrupted by node loss must
finish with *exactly* the failure-free run's integer answer, because every
epoch's PDU block is either computed by its owner or replayed on the
survivors — and the audit trail must record how (trigger, retries, moved
PDUs).  All timing is driven by :class:`ManualClock`; nothing sleeps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.stencil import stencil_computation
from repro.errors import ManagerUnreachableError, PartitionError
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import paper_testbed
from repro.partition.available import (
    ManagerReply,
    default_manager_probe,
    gather_available_resources_resilient,
)
from repro.partition.runtime import (
    ManualClock,
    PartitionRuntime,
    RuntimePolicy,
    SimulatedEpochExecutor,
    _answer_prefix,
    _block_value,
    _pdu_value,
)
from repro.sim.failures import FailureSchedule

EPOCHS = 6
N = 512


def make_runtime(failures=None, policy=None, probe=None):
    network = paper_testbed()
    runtime = PartitionRuntime(
        network,
        stencil_computation(N, overlap=False, cycles=1),
        paper_cost_database(),
        policy=policy,
        probe=probe,
        failures=failures,
    )
    return network, runtime


@pytest.fixture(scope="module")
def clean():
    _, runtime = make_runtime()
    return runtime.run(EPOCHS)


# -- ManualClock ---------------------------------------------------------------


def test_manual_clock_advances_only_when_told():
    clock = ManualClock()
    assert clock.now == 0.0
    assert clock.advance(12.5) == 12.5
    assert clock.advance(0.0) == 12.5
    with pytest.raises(ValueError):
        clock.advance(-1.0)
    # NaN would make every later reading NaN; it is refused like a negative.
    with pytest.raises(ValueError):
        clock.advance(float("nan"))
    assert clock.now == 12.5


# -- resilient gathering -------------------------------------------------------


def test_gather_retries_with_exponential_backoff_exact_timing():
    network = paper_testbed()
    clock = ManualClock()
    calls = {}

    def flaky(cluster):
        calls[cluster.name] = calls.get(cluster.name, 0) + 1
        if cluster.name == "sparc2" and calls[cluster.name] <= 2:
            raise ManagerUnreachableError(cluster.name, calls[cluster.name])
        return ManagerReply(
            available=tuple(cluster.manager.available_processors()), latency_ms=2.0
        )

    resources, report = gather_available_resources_resilient(
        network,
        probe=flaky,
        timeout_ms=50.0,
        max_retries=2,
        backoff_ms=25.0,
        backoff_multiplier=2.0,
        clock=clock,
    )
    # sparc2: 50 (timeout) + 25 (backoff) + 50 + 50 (backoff) + 2 (reply),
    # then ipc answers first try: + 2.
    assert clock.now == pytest.approx(50 + 25 + 50 + 50 + 2 + 2)
    assert report.attempts == {"sparc2": 3, "ipc": 1}
    assert report.retries == {"sparc2": 2, "ipc": 0}
    assert report.total_retries == 2
    assert report.lost == ()
    assert [r.name for r in resources] == ["sparc2", "ipc"]


def test_gather_treats_slow_reply_as_timeout():
    network = paper_testbed()
    clock = ManualClock()

    def hung(cluster):
        if cluster.name == "ipc":
            return ManagerReply(available=(), latency_ms=500.0)  # beyond budget
        return default_manager_probe(cluster)

    resources, report = gather_available_resources_resilient(
        network, probe=hung, timeout_ms=50.0, max_retries=1, backoff_ms=10.0,
        clock=clock,
    )
    assert report.lost == ("ipc",)
    assert report.attempts["ipc"] == 2
    assert [r.name for r in resources] == ["sparc2"]
    # ipc cost exactly two full timeouts plus one backoff — never 500 ms.
    assert clock.now == pytest.approx(1.0 + 50 + 10 + 50)


def test_gather_treats_nan_latency_as_timeout():
    """A reply with a NaN latency is a hung manager, not an answer: it
    costs the full timeout, so the clock stays finite."""

    def nan_latency(cluster):
        return ManagerReply(
            available=default_manager_probe(cluster).available,
            latency_ms=float("nan"),
        )

    clock = ManualClock()
    resources, report = gather_available_resources_resilient(
        paper_testbed(), probe=nan_latency, clock=clock
    )
    assert resources == []
    assert report.lost == ("sparc2", "ipc")
    assert report.attempts == {"sparc2": 3, "ipc": 3}
    # Per cluster: three 50 ms timeouts plus the 25 and 50 ms backoffs.
    assert clock.now == 2 * (3 * 50 + 25 + 50) == 450.0
    # The supervisor stops with a typed error instead of a NaN clock.
    _, runtime = make_runtime(probe=nan_latency)
    with pytest.raises(PartitionError, match="no surviving clusters"):
        runtime.run(4)


def test_gather_treats_negative_latency_as_timeout():
    """A manager clock running behind answers a negative latency; like a
    NaN one, it costs the full timeout instead of rewinding the clock."""

    def behind(cluster):
        return ManagerReply(
            available=default_manager_probe(cluster).available, latency_ms=-5.0
        )

    clock = ManualClock()
    resources, report = gather_available_resources_resilient(
        paper_testbed(), probe=behind, clock=clock
    )
    assert resources == []
    assert report.lost == ("sparc2", "ipc")
    assert clock.now == report.elapsed_ms == 450.0


def _hung(cluster):
    raise ManagerUnreachableError(cluster.name, 1)


@pytest.mark.parametrize(
    "knobs, match",
    [
        ({"timeout_ms": float("nan")}, "timeout_ms"),
        ({"timeout_ms": float("inf")}, "timeout_ms"),
        ({"backoff_ms": -1.0}, "backoff_ms"),
        ({"backoff_ms": float("nan")}, "backoff_ms"),
        ({"backoff_multiplier": -2.0}, "backoff_multiplier"),
        ({"backoff_multiplier": float("nan")}, "backoff_multiplier"),
        # Finite knobs whose worst case is not: the backoff or the
        # timeouts add up past the largest float.
        ({"backoff_multiplier": 1e308, "max_retries": 2}, "every manager hung"),
        ({"max_retries": 1100}, "every manager hung"),
        ({"timeout_ms": 1e308, "max_retries": 1}, "every manager hung"),
    ],
    ids=[
        "timeout-nan",
        "timeout-inf",
        "backoff-negative",
        "backoff-nan",
        "multiplier-negative",
        "multiplier-nan",
        "multiplier-overflows",
        "retries-overflow",
        "timeouts-overflow",
    ],
)
def test_gather_rejects_a_knob_no_clock_can_charge(knobs, match):
    """Each of these, with a hung manager, used to escape as an untyped
    ValueError from the clock or leave the clock at inf; it is now a
    typed error before any manager is asked."""
    clock = ManualClock()
    with pytest.raises(PartitionError, match=match):
        gather_available_resources_resilient(
            paper_testbed(), probe=_hung, clock=clock, **knobs
        )
    assert clock.now == 0.0


def test_gather_accepts_many_retries_without_backoff():
    """The worst case bounds what the clock can charge, not the retry
    count: with no backoff, 2,000 retries of a hung manager cost exactly
    their timeouts."""
    clock = ManualClock()
    resources, report = gather_available_resources_resilient(
        paper_testbed(), probe=_hung, clock=clock, max_retries=2000, backoff_ms=0.0
    )
    assert resources == [] and report.lost == ("sparc2", "ipc")
    assert clock.now == report.elapsed_ms == 2 * 2001 * 50.0


def test_gather_allow_partial_false_raises():
    network = paper_testbed()
    network.clusters[0].processors[0].fail()  # sparc2's manager host
    with pytest.raises(ManagerUnreachableError) as exc_info:
        gather_available_resources_resilient(
            network, max_retries=2, allow_partial=False, clock=ManualClock()
        )
    assert exc_info.value.cluster == "sparc2"
    assert exc_info.value.attempts == 3


def test_gather_drops_cluster_with_dead_manager_host():
    network = paper_testbed()
    network.clusters[0].processors[0].fail()
    resources, report = gather_available_resources_resilient(
        network, max_retries=1, clock=ManualClock()
    )
    assert report.lost == ("sparc2",)
    assert [r.name for r in resources] == ["ipc"]


def test_gather_validation():
    network = paper_testbed()
    with pytest.raises(PartitionError):
        gather_available_resources_resilient(network, timeout_ms=0.0)
    with pytest.raises(PartitionError):
        gather_available_resources_resilient(network, max_retries=-1)


# -- the supervisor loop: recovery and answer parity ---------------------------


def test_clean_run_bootstrap_only(clean):
    assert clean.audit.triggers() == ["bootstrap"]
    assert clean.repartitions == 0
    assert clean.replayed_pdus == 0
    assert sum(clean.final_vector) == N


def test_worker_loss_mid_run_preserves_answer(clean):
    victim = clean.final_proc_ids[1]
    _, runtime = make_runtime(failures=FailureSchedule.fail_at(3, [victim]))
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.audit.triggers() == ["bootstrap", "node-loss"]
    assert victim not in result.final_proc_ids
    assert sum(result.final_vector) == N
    # Recovery costs real (simulated) time beyond the clean run.
    assert result.elapsed_ms > clean.elapsed_ms
    event = result.audit.events[-1]
    assert event.epoch == 3
    assert event.replayed_pdus == clean.final_vector[1]
    assert event.moved_pdus > 0
    assert event.dead_ranks == (1,)


def test_manager_host_loss_degrades_to_surviving_cluster(clean):
    network, runtime = make_runtime()
    manager_host = network.clusters[0].processors[0].proc_id
    _, runtime = make_runtime(failures=FailureSchedule.fail_at(2, [manager_host]))
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    event = result.audit.events[-1]
    assert event.trigger == "node-loss"
    assert event.lost_clusters == ("sparc2",)
    assert event.retries["sparc2"] > 0  # the sweep kept retrying before degrading
    assert set(event.new_config) == {"ipc"}


def test_two_failures_two_recoveries(clean):
    victims = [clean.final_proc_ids[1], clean.final_proc_ids[2]]
    schedule = FailureSchedule(
        FailureSchedule.fail_at(1, [victims[0]]).events
        + FailureSchedule.fail_at(4, [victims[1]]).events
    )
    _, runtime = make_runtime(failures=schedule)
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.audit.triggers() == ["bootstrap", "node-loss", "node-loss"]
    assert result.repartitions == 2


def test_mtbf_schedule_preserves_answer(clean):
    schedule = FailureSchedule.from_mtbf(
        list(clean.final_proc_ids[1:]),
        mtbf_epochs=10.0,
        horizon_epochs=EPOCHS,
        seed=1,
        max_failures=2,
    )
    assert schedule, "seed must produce at least one failure for this test"
    _, runtime = make_runtime(failures=schedule)
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.replayed_pdus > 0


def test_failure_of_unused_processor_is_a_no_op(clean):
    # ipc has 8 nodes; the decomposition uses 5 plus 6 sparc2 — kill an idle
    # one and nothing should trigger (it was never measured).
    network, _ = make_runtime()
    used = set(clean.final_proc_ids)
    idle = next(
        p.proc_id
        for p in network.clusters[1].processors[1:]
        if p.proc_id not in used
    )
    _, runtime = make_runtime(failures=FailureSchedule.fail_at(2, [idle]))
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer
    assert result.audit.triggers() == ["bootstrap"]


def test_slowdown_triggers_measured_rebalance(clean):
    network, runtime = make_runtime(
        policy=RuntimePolicy(imbalance_threshold=1.04)
    )
    # Load within the availability threshold (node stays schedulable) but
    # enough to slow it past the tightened ratio: 1/(1-0.05) ~ 1.053.
    network.processor(0).set_load(0.05)
    result = runtime.run(EPOCHS)
    assert result.answer == clean.answer  # rebalancing never loses coverage
    assert "slowdown" in result.audit.triggers()
    event = next(e for e in result.audit.events if e.trigger == "slowdown")
    assert event.moved_pdus > 0
    assert event.replayed_pdus == 0
    # The loaded rank sheds PDUs; the decomposition keeps everyone alive.
    assert event.new_vector[0] < event.old_vector[0]
    assert min(event.new_vector) >= 1
    # Same measurements next epoch: the rebalance is a fixed point, so only
    # one slowdown event is recorded.
    assert result.audit.triggers().count("slowdown") == 1


def test_all_managers_lost_raises(clean):
    network, _ = make_runtime()
    managers = [c.processors[0].proc_id for c in network.clusters]
    _, runtime = make_runtime(failures=FailureSchedule.fail_at(2, managers))
    with pytest.raises(PartitionError, match="no surviving clusters"):
        runtime.run(EPOCHS)


def test_run_validation():
    _, runtime = make_runtime()
    with pytest.raises(PartitionError):
        runtime.run(0)
    # An epoch is one computation cycle: neither the executor nor the
    # policy takes a cycle count, and no policy switch turns slowdown
    # handling off.
    with pytest.raises(TypeError, match="cycles_per_epoch"):
        SimulatedEpochExecutor(
            stencil_computation(N, overlap=False, cycles=1), cycles_per_epoch=0
        )
    with pytest.raises(TypeError, match="rebalance_on_slowdown"):
        RuntimePolicy(rebalance_on_slowdown=False)


# -- the audit trail schema ----------------------------------------------------


def test_audit_records_are_json_serializable(clean):
    import json

    victim = clean.final_proc_ids[1]
    _, runtime = make_runtime(failures=FailureSchedule.fail_at(3, [victim]))
    result = runtime.run(EPOCHS)
    records = result.audit.to_records()
    round_tripped = json.loads(json.dumps(records))
    assert round_tripped == records
    expected_keys = {
        "epoch",
        "trigger",
        "old_config",
        "new_config",
        "old_vector",
        "new_vector",
        "moved_pdus",
        "replayed_pdus",
        "retries",
        "lost_clusters",
        "dead_ranks",
        "t_ms",
    }
    for record in records:
        assert set(record) == expected_keys
    bootstrap, loss = records
    assert bootstrap["trigger"] == "bootstrap"
    assert bootstrap["old_config"] is None and bootstrap["old_vector"] is None
    assert loss["trigger"] == "node-loss"
    assert loss["old_vector"] == list(clean.final_vector)
    assert sum(loss["new_vector"]) == N
    assert loss["t_ms"] > bootstrap["t_ms"]


def test_deterministic_repeat_runs(clean):
    """Same schedule, fresh network: byte-identical results and timings."""
    victim = clean.final_proc_ids[1]
    results = []
    for _ in range(2):
        _, runtime = make_runtime(failures=FailureSchedule.fail_at(3, [victim]))
        results.append(runtime.run(EPOCHS))
    a, b = results
    assert a.answer == b.answer
    assert a.elapsed_ms == b.elapsed_ms
    assert a.audit.to_records() == b.audit.to_records()


@st.composite
def answer_blocks(draw):
    num_pdus = draw(st.integers(0, 20_000))
    start = draw(st.integers(0, num_pdus))
    count = draw(st.integers(0, num_pdus - start))
    return num_pdus, draw(st.integers(0, 200)), start, count


@settings(derandomize=True, max_examples=200)
@given(block=answer_blocks())
def test_block_value_from_the_prefix_table_is_the_pdu_sum(block):
    """O(1) block checksums equal the per-PDU sum exactly, as Python ints,
    empty blocks and the table's last entry included."""
    num_pdus, epoch, start, count = block
    got = _block_value(_answer_prefix(num_pdus), epoch, start, count)
    assert type(got) is int
    assert got == sum(_pdu_value(epoch, i) for i in range(start, start + count))
