"""repro — runtime network partitioning of data parallel computations.

A production-quality reproduction of Weissman & Grimshaw, *"Network
Partitioning of Data Parallel Computations"* (HPDC 1994): a runtime method
that chooses the number and type of processors for an SPMD computation on a
heterogeneous workstation network and computes a load-balanced decomposition
of its data domain — plus every substrate the method rests on, simulated:
discrete-event kernel, ethernet/router hardware, the MMPS reliable message
layer, an SPMD runtime, offline cost-function benchmarking, and the
evaluation applications (five-point stencil, Gaussian elimination, N-body).

Quickstart
----------
>>> from repro import (
...     paper_testbed, gather_available_resources, partition,
... )
>>> from repro.apps import stencil_computation
>>> from repro.experiments import paper_cost_database
>>> net = paper_testbed()
>>> decision = partition(
...     stencil_computation(600, overlap=True),
...     gather_available_resources(net),
...     paper_cost_database(),
... )
>>> decision.counts_by_name()
{'sparc2': 6, 'ipc': 6}

Subpackages
-----------
:mod:`repro.sim`            discrete-event kernel
:mod:`repro.hardware`       processors, clusters, segments, routers
:mod:`repro.mmps`           reliable UDP-style message passing
:mod:`repro.spmd`           topologies, task API, run driver, collectives
:mod:`repro.benchmarking`   offline cost-function fitting (Eq 1)
:mod:`repro.model`          PDUs, phase annotations, partition vectors
:mod:`repro.partition`      the partitioning method (Eq 3-6, heuristic)
:mod:`repro.apps`           STEN-1/STEN-2, Gaussian elimination, N-body
:mod:`repro.experiments`    Table 1/Table 2/Fig 3 reproduction harnesses
"""

from repro.benchmarking import CostDatabase, Workbench, build_cost_database
from repro.hardware import HeterogeneousNetwork, Processor, ProcessorSpec
from repro.hardware.presets import paper_testbed, three_cluster_network
from repro.mmps import MMPS
from repro.model import (
    CommunicationPhase,
    ComputationPhase,
    DataParallelComputation,
    PartitionVector,
    PDUSpace,
)
from repro.partition import (
    CycleEstimator,
    PartitionDecision,
    ProcessorConfiguration,
    balanced_partition_vector,
    exhaustive_partition,
    gather_available_resources,
    general_partition,
    partition,
)
from repro.spmd import SPMDRun, TaskContext, Topology

__version__ = "1.23.0"

__all__ = [
    "CostDatabase",
    "Workbench",
    "build_cost_database",
    "HeterogeneousNetwork",
    "Processor",
    "ProcessorSpec",
    "paper_testbed",
    "three_cluster_network",
    "MMPS",
    "CommunicationPhase",
    "ComputationPhase",
    "DataParallelComputation",
    "PartitionVector",
    "PDUSpace",
    "CycleEstimator",
    "PartitionDecision",
    "ProcessorConfiguration",
    "balanced_partition_vector",
    "exhaustive_partition",
    "gather_available_resources",
    "general_partition",
    "partition",
    "SPMDRun",
    "TaskContext",
    "Topology",
    "__version__",
]
