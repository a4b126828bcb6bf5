"""Offline benchmarking and cost-function fitting (paper §3).

Runs topology-specific communication programs on the simulated network,
fits Eq 1 constants per (cluster, topology) by least squares, measures the
router/coercion per-byte penalties, benchmarks instruction rates, and stores
everything in a queryable, serializable :class:`CostDatabase`.
"""

from repro.benchmarking.cache import load_database, load_or_build, save_database
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase, build_cost_database
from repro.benchmarking.fitting import fit_comm_cost, fit_linear_byte_cost, r_squared
from repro.benchmarking.microbench import (
    CycleSample,
    Workbench,
    measure_crossing_penalty,
    measure_cycle_time,
    sweep_cluster,
)
from repro.benchmarking.procbench import (
    benchmark_all_clusters,
    benchmark_coercion_cost,
    benchmark_instruction_rate,
)

__all__ = [
    "load_database",
    "load_or_build",
    "save_database",
    "benchmark_coercion_cost",
    "CommCostFunction",
    "LinearByteCost",
    "CostDatabase",
    "build_cost_database",
    "fit_comm_cost",
    "fit_linear_byte_cost",
    "r_squared",
    "CycleSample",
    "Workbench",
    "measure_crossing_penalty",
    "measure_cycle_time",
    "sweep_cluster",
    "benchmark_all_clusters",
    "benchmark_instruction_rate",
]
