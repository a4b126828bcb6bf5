"""Runtime partitioning: the paper's primary contribution (§5).

Gathers available processors, estimates per-cycle elapsed time (Eq 4-6)
from callback annotations and fitted cost functions, chooses the number and
type of processors by the cluster-ordered binary-search heuristic, and
computes the load-balanced partition vector (Eq 3).  Oracles and baselines
support the evaluation and ablations.
"""

from repro.partition.advisor import advise, explain_decision, network_fingerprint
from repro.partition.arrayengine import (
    ArrayCycleEstimator,
    ArraySearchEngine,
    ArraySearchResult,
    ArrayWorkspace,
    prefix_count_matrix,
)
from repro.partition.available import (
    ClusterResources,
    GatherReport,
    ManagerReply,
    gather_available_resources,
    gather_available_resources_resilient,
)
from repro.partition.baselines import all_available, equal_decomposition, fastest_cluster_only
from repro.partition.config import ProcessorConfiguration
from repro.partition.decompose import (
    balanced_partition_vector,
    balanced_shares,
    balanced_shares_nonlinear,
    equal_shares,
)
from repro.partition.dynamic import (
    EpochHealth,
    HysteresisController,
    HysteresisDecision,
    classify_epoch,
    completion_skew,
    detect_imbalance,
    migrate_k_counts,
    moved_pdus,
    projected_epoch_ms,
    rebalance_counts,
    transfer_plan,
)
from repro.partition.estimator import CycleEstimate, CycleEstimator
from repro.partition.general import general_partition
from repro.partition.engine import DecisionEngine
from repro.partition.heuristic import (
    PartitionDecision,
    exhaustive_partition,
    order_by_power,
    partition,
    prefix_scan_partition,
)
from repro.partition.overhead import (
    OverheadReport,
    overhead_report,
    paper_bound,
    search_bound,
)
from repro.partition.runtime import (
    AuditEvent,
    AuditTrail,
    ManualClock,
    PartitionRuntime,
    RuntimePolicy,
    RuntimeResult,
    SimulatedEpochExecutor,
)

__all__ = [
    "DecisionEngine",
    "advise",
    "explain_decision",
    "network_fingerprint",
    "ArrayCycleEstimator",
    "ArraySearchEngine",
    "ArraySearchResult",
    "ArrayWorkspace",
    "prefix_count_matrix",
    "ClusterResources",
    "GatherReport",
    "ManagerReply",
    "gather_available_resources",
    "gather_available_resources_resilient",
    "all_available",
    "equal_decomposition",
    "fastest_cluster_only",
    "ProcessorConfiguration",
    "balanced_partition_vector",
    "balanced_shares",
    "balanced_shares_nonlinear",
    "equal_shares",
    "EpochHealth",
    "HysteresisController",
    "HysteresisDecision",
    "classify_epoch",
    "completion_skew",
    "detect_imbalance",
    "migrate_k_counts",
    "moved_pdus",
    "projected_epoch_ms",
    "rebalance_counts",
    "transfer_plan",
    "CycleEstimate",
    "CycleEstimator",
    "general_partition",
    "PartitionDecision",
    "exhaustive_partition",
    "order_by_power",
    "partition",
    "prefix_scan_partition",
    "OverheadReport",
    "overhead_report",
    "paper_bound",
    "search_bound",
    "AuditEvent",
    "AuditTrail",
    "ManualClock",
    "PartitionRuntime",
    "RuntimePolicy",
    "RuntimeResult",
    "SimulatedEpochExecutor",
]
