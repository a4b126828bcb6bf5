"""A digest of every decomposition change the supervisor commits.

The golden audit file pins bootstrap and node loss only.  This digest
pins the rest: each slowdown policy (rebalance, adaptive, research) runs
the three churn shapes on the paper testbed with one node failure, and
once more on a 16-site wide-area pool shaped like the supervise-churn
benchmark's runs; one more adaptive run loads a node right after the
failure.  Together the runs fire node loss, rebalance, research,
migration, veto, hold and the divergence fallback.

Each run contributes its audit records (``t_ms`` included), clock,
answer, final decomposition, replay count, search counts and adaptive
counters, floats rendered with ``repr``.  A refactor of the supervisor
leaves the digest unchanged; a digest change is a behaviour change.
"""

import hashlib

import pytest

from repro.apps.stencil import stencil_computation
from repro.experiments.paper import paper_cost_database
from repro.experiments.resilience import (
    DECIDE_COST_MS_PER_EVAL,
    churn_scenarios,
    churn_transfer_ms_per_pdu,
)
from repro.hardware.presets import (
    paper_testbed,
    wide_area_cost_database,
    wide_area_network,
)
from repro.partition.available import gather_available_resources
from repro.partition.heuristic import order_by_power
from repro.partition.runtime import PartitionRuntime, RuntimePolicy
from repro.sim.failures import FailureSchedule, LoadSchedule, NodeLoad

N = 512
EPOCHS = 24
FAIL_EPOCH = 12

#: The supervise-churn shape: STEN-1 N=6000 on 16 sites for 24 epochs,
#: one worker failing at epoch 10, two others flapping at 30 % load every
#: 6 epochs (2-epoch bursts from epoch 3).  Victims are non-manager nodes
#: of the three fastest sites.
WIDE_N = 6000
WIDE_SITES = 16
WIDE_POOL_SEED = 5201
WIDE_FAIL_EPOCH = 10
WIDE_VICTIMS = (11, 29, 47)

#: sha256 prefix of the rendered runs.  Re-pinning it records a change of
#: behaviour, not of speed or structure.
DIGEST = "b2e40fdd6c10b3f1"


def _policies(**pricing):
    return {
        "rebalance": RuntimePolicy(**pricing),
        "adaptive": RuntimePolicy(adaptive=True, **pricing),
        "research": RuntimePolicy(slowdown_research=True, **pricing),
    }


def _testbed_runs():
    db = paper_cost_database()
    computation = stencil_computation(N, overlap=False, cycles=1)
    clean = PartitionRuntime(paper_testbed(), computation, db).run(EPOCHS)
    # Load victims as the churn grid picks them: slow-cluster workers of
    # the clean decomposition.  The failure takes rank 1, a fast worker.
    network = paper_testbed()
    managers = {c.processors[0].proc_id for c in network.clusters}
    slow_cluster = {p.proc_id for p in network.clusters[-1].processors}
    victims = [
        pid
        for pid in clean.final_proc_ids
        if pid in slow_cluster and pid not in managers
    ]
    failures = FailureSchedule.fail_at(FAIL_EPOCH, [clean.final_proc_ids[1]])
    policies = _policies(
        transfer_ms_per_pdu=churn_transfer_ms_per_pdu(db, N),
        decide_cost_per_eval_ms=DECIDE_COST_MS_PER_EVAL,
    )
    for name, policy in policies.items():
        for scenario, loads in churn_scenarios(victims[:4], EPOCHS):
            runtime = PartitionRuntime(
                paper_testbed(),
                computation,
                db,
                policy=policy,
                failures=failures,
                loads=loads,
            )
            yield f"testbed/{name}/{scenario}", runtime.run(EPOCHS)
    # The node loss re-arms the debounce: a load landing the epoch after
    # it starts a fresh streak instead of extending the one before it.
    runtime = PartitionRuntime(
        paper_testbed(),
        computation,
        db,
        policy=policies["adaptive"],
        failures=failures,
        loads=LoadSchedule(
            (
                NodeLoad(FAIL_EPOCH - 2, victims[0], 0.3),
                NodeLoad(FAIL_EPOCH + 1, victims[1], 0.3),
            )
        ),
    )
    yield "testbed/adaptive/rearm", runtime.run(EPOCHS)


def _wide_area_runs():
    computation = stencil_computation(WIDE_N, overlap=False)
    op_kind = computation.dominant_computation_phase().op_kind
    for name, policy in _policies().items():
        network = wide_area_network(WIDE_SITES, seed=WIDE_POOL_SEED)
        ordered = order_by_power(gather_available_resources(network), op_kind)
        candidates = [
            proc.proc_id
            for res in ordered[:3]
            for proc in res.cluster.processors[1:]
        ]
        failed, *flappers = [candidates[v % len(candidates)] for v in WIDE_VICTIMS]
        runtime = PartitionRuntime(
            network,
            computation,
            wide_area_cost_database(network),
            policy=policy,
            failures=FailureSchedule.fail_at(WIDE_FAIL_EPOCH, [failed]),
            loads=LoadSchedule.flapping(
                flappers,
                load=0.3,
                period_epochs=6,
                burst_epochs=2,
                horizon_epochs=EPOCHS,
                start_epoch=3,
            ),
        )
        yield f"wide/{name}", runtime.run(EPOCHS)


def _render(value) -> str:
    """A canonical text form: containers recursed, floats by ``repr``."""
    if isinstance(value, dict):
        inner = ", ".join(f"{_render(k)}: {_render(v)}" for k, v in value.items())
        return "{" + inner + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, float):
        return repr(float(value))
    return repr(int(value))


@pytest.fixture(scope="module")
def runs():
    return list(_testbed_runs()) + list(_wide_area_runs())


def test_every_commit_path_fires(runs):
    fired = set()
    for label, result in runs:
        policy = label.split("/")[1]
        triggers = result.audit.triggers()
        if "node-loss" in triggers:
            fired.add("node-loss")
        # The adaptive layer's slowdown commits are its migrations and
        # fallbacks, counted below.
        if "slowdown" in triggers and policy != "adaptive":
            fired.add(policy)
        fired.update(name for name, n in result.adaptive_stats.items() if n)
    assert {
        "node-loss", "rebalance", "research", "migrations", "vetoes",
        "holds", "full_fallbacks",
    } <= fired


def test_commit_paths_digest(runs):
    digest = hashlib.sha256()
    for label, result in runs:
        digest.update(
            _render(
                [
                    label,
                    result.audit.to_records(),
                    result.elapsed_ms,
                    result.answer,
                    result.final_proc_ids,
                    result.final_vector,
                    result.replayed_pdus,
                    result.decide_searches,
                    result.decide_evaluations,
                    result.adaptive_stats,
                ]
            ).encode()
            + b"\n"
        )
    assert digest.hexdigest()[:16] == DIGEST
