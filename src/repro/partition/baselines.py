"""Baseline partitioning strategies the paper compares against (implicitly).

* :func:`equal_decomposition` — every processor gets the same number of
  PDUs regardless of speed: the paper's N=1200 counterexample, whose load
  imbalance "has the effect of significantly reducing the effective
  parallelism".
* :func:`all_available` — use every available processor (the dataparallel-C
  assumption [9] that the problem is big enough for all of them).
* :func:`fastest_cluster_only` — never leave the fastest cluster.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import PartitionError
from repro.partition.available import ClusterResources
from repro.partition.config import ProcessorConfiguration
from repro.partition.decompose import equal_shares
from repro.partition.estimator import CycleEstimator
from repro.partition.heuristic import PartitionDecision, order_by_power

__all__ = ["equal_decomposition", "all_available", "fastest_cluster_only"]


def equal_decomposition(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
) -> PartitionDecision:
    """All available processors, PDUs split equally (ignoring speeds).

    The imbalanced T_comp is costed at the slowest processor via
    :meth:`CycleEstimator.t_comp_with_vector`.
    """
    estimator = CycleEstimator(computation, cost_db)
    ordered = order_by_power(resources, estimator.op_kind)
    if not ordered:
        raise PartitionError("no available processors")
    config = ProcessorConfiguration(ordered, [r.n_available for r in ordered])
    vector = equal_shares(config.total, estimator.num_pdus)
    t_comp = estimator.t_comp_with_vector(config, vector)
    t_comm = estimator.t_comm(config)
    t_overlap = min(t_comp, t_comm) if estimator.overlapped else 0.0
    from repro.partition.estimator import CycleEstimate

    estimate = CycleEstimate(t_comp_ms=t_comp, t_comm_ms=t_comm, t_overlap_ms=t_overlap)
    return PartitionDecision(
        config=config,
        vector=vector,
        estimate=estimate,
        t_elapsed_ms=computation.cycles * estimate.t_cycle_ms,
        evaluations=estimator.evaluations,
        method="equal-decomposition",
    )


def _fixed_config_decision(
    computation, config: ProcessorConfiguration, cost_db, method: str
) -> PartitionDecision:
    estimator = CycleEstimator(computation, cost_db)
    estimate = estimator.estimate(config)
    return PartitionDecision(
        config=config,
        vector=estimator.partition_vector(config),
        estimate=estimate,
        t_elapsed_ms=estimator.t_elapsed(config),
        evaluations=estimator.evaluations,
        method=method,
    )


def all_available(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
) -> PartitionDecision:
    """Use every available processor, with balanced (Eq 3) decomposition."""
    ordered = order_by_power(resources, "fp")
    if not ordered:
        raise PartitionError("no available processors")
    config = ProcessorConfiguration(ordered, [r.n_available for r in ordered])
    return _fixed_config_decision(computation, config, cost_db, "all-available")


def fastest_cluster_only(
    computation,
    resources: Sequence[ClusterResources],
    cost_db,
) -> PartitionDecision:
    """All of the fastest cluster, nothing else, balanced decomposition."""
    ordered = order_by_power(resources, "fp")
    if not ordered:
        raise PartitionError("no available processors")
    counts = [ordered[0].n_available] + [0] * (len(ordered) - 1)
    config = ProcessorConfiguration(ordered, counts)
    return _fixed_config_decision(computation, config, cost_db, "fastest-cluster")
