"""Partitioning throughput harness: the scalar reference vs the array engine.

Shared by the ``repro bench-partition`` CLI subcommand and
``benchmarks/test_bench_partition_perf.py``: builds a deterministic
synthetic heterogeneous network (one cluster per requested size, era-style
instruction rates), runs the exhaustive oracle on both engines, and
reports wall time, configurations evaluated, throughput, and a
``tracemalloc`` allocation sample — the numbers
``BENCH_partition_perf.json`` tracks across PRs.

Timing methodology per engine:

* ``scalar`` — the reference product loop, probing every configuration
  through :class:`~repro.partition.estimator.CycleEstimator`, with a fresh
  cost database per repeat (cold composition caches) and the full call
  timed;
* ``array`` — the persistent :class:`~repro.partition.arrayengine.\
ArraySearchEngine` is constructed *outside* the timed window (like the
  cost database is for both engines) because its operating point is the
  steady-state decide loop: lower once, search many times.  Each repeat
  times one full streamed search; the incremental frontier is never used,
  so every repeat does the complete space's work.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.errors import PartitionError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.processor import ProcessorSpec
from repro.partition.available import gather_available_resources
from repro.partition.arrayengine import ArraySearchEngine
from repro.partition.heuristic import _scalar_exhaustive_partition, order_by_power
from repro.units import seconds_to_msec

__all__ = [
    "ARRAY_SPEEDUP_FLOOR",
    "EngineResult",
    "PerfComparison",
    "synthetic_network",
    "synthetic_database",
    "run_perf",
    "perf_report",
    "perf_payload",
]

#: The perfgate's committed floor: array-engine throughput (configs/s)
#: must be at least this many times the scalar reference's, within one run.
ARRAY_SPEEDUP_FLOOR = 100.0

#: Era-plausible µs/op rates cycled over the requested clusters
#: (Sparc2-like, IPC-like, Sun3-like, ...).
_FP_RATES = (0.3, 0.6, 1.2, 0.45, 0.9, 1.5)


def synthetic_network(cluster_sizes: Sequence[int]) -> HeterogeneousNetwork:
    """A deterministic K-cluster network with ``cluster_sizes`` nodes each."""
    if not cluster_sizes or any(s < 1 for s in cluster_sizes):
        raise PartitionError(f"cluster sizes must be positive: {list(cluster_sizes)}")
    net = HeterogeneousNetwork()
    for i, size in enumerate(cluster_sizes):
        rate = _FP_RATES[i % len(_FP_RATES)]
        spec = ProcessorSpec(
            name=f"Type{i}",
            fp_usec_per_op=rate,
            int_usec_per_op=rate / 4.0,
            comm_speed_factor=1.0 + 0.2 * i,
        )
        net.add_cluster(f"c{i}", spec, count=int(size))
    net.validate()
    return net


def synthetic_database(cluster_names: Sequence[str]) -> CostDatabase:
    """Plausible fitted Eq 1 + router functions for the synthetic clusters."""
    db = CostDatabase()
    for i, name in enumerate(cluster_names):
        scale = 1.0 + 0.3 * i
        db.add_comm(
            CommCostFunction(name, "1-D", 0.8, 1.1 * scale, 0.0004, 0.0011 * scale)
        )
    for i, a in enumerate(cluster_names):
        for b in cluster_names[i + 1 :]:
            db.add_router(LinearByteCost(a, b, "router", 1.2, 0.0009))
    return db


@dataclass(frozen=True)
class EngineResult:
    """One engine's exhaustive-oracle timing."""

    engine: str
    repeats: int
    best_wall_s: float
    mean_wall_s: float
    configs_evaluated: int
    counts: tuple[int, ...]
    t_cycle_ms: float
    #: ``tracemalloc`` sample over one (untimed) search: net new blocks
    #: still live afterwards, and the transient peak above the baseline.
    alloc_blocks: Optional[int] = None
    alloc_peak_kib: Optional[float] = None

    @property
    def configs_per_s(self) -> float:
        """Throughput at the best repeat."""
        if self.best_wall_s <= 0:
            return float("inf")
        return self.configs_evaluated / self.best_wall_s


@dataclass(frozen=True)
class PerfComparison:
    """The engines head-to-head on one synthetic scenario."""

    cluster_sizes: tuple[int, ...]
    n: int
    results: tuple[EngineResult, ...]

    def result(self, engine: str) -> EngineResult:
        for r in self.results:
            if r.engine == engine:
                return r
        raise KeyError(engine)

    @property
    def speedup_array_over_scalar(self) -> float:
        """Array-engine throughput over scalar throughput, in configs/s.

        A throughput (not wall-time) ratio because the engines may visit
        different candidate counts (the scalar oracle scans the whole
        space; the array engine prunes above its size cutoff).
        """
        scalar, array = self.result("scalar"), self.result("array")
        if scalar.configs_per_s <= 0:
            return float("inf")
        return array.configs_per_s / scalar.configs_per_s


def _alloc_sample(fn: Callable[[], object]) -> tuple[int, float]:
    """``(net new blocks, transient peak KiB)`` for one call of ``fn``.

    ``fn`` runs once untraced to warm caches, then once under
    ``tracemalloc``; the peak is measured relative to the traced baseline
    so it captures the call's transient temporaries, which is exactly what
    the preallocated engine is designed to eliminate.
    """
    fn()
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    tracemalloc.reset_peak()
    current0, _ = tracemalloc.get_traced_memory()
    fn()
    _, peak = tracemalloc.get_traced_memory()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    stats = after.compare_to(before, "filename")
    blocks = sum(s.count_diff for s in stats if s.count_diff > 0)
    return blocks, (peak - current0) / 1024.0


def run_perf(
    cluster_sizes: Sequence[int] = (8, 8, 8),
    *,
    n: int = 600,
    repeat: int = 3,
    prune: bool = True,
    alloc_sample: bool = True,
) -> PerfComparison:
    """Time the exhaustive oracle on both engines on one scenario.

    The scalar reference gets a fresh cost database per repeat so the
    composition caches start cold each time, like a first-decision probe.
    The array engine is timed at its operating point instead: the
    persistent engine (lowering + workspace) is built outside the window
    and each repeat times one full streamed search — the frontier is not
    consulted, so no repeat is cheaper than a cold search of the space.
    ``prune`` applies to the array engine only; the scalar oracle always
    scans every configuration.  Reports the best and mean wall time over
    ``repeat`` runs, plus a ``tracemalloc`` allocation sample per engine
    unless ``alloc_sample`` is off.
    """
    if repeat < 1:
        raise PartitionError(f"repeat must be >= 1, got {repeat}")
    net = synthetic_network(cluster_sizes)
    names = [c.name for c in net.clusters]
    resources = gather_available_resources(net)
    comp = stencil_computation(n, overlap=False)

    walls = []
    decision = None
    for _ in range(repeat):
        db = synthetic_database(names)
        start = time.perf_counter()
        decision = _scalar_exhaustive_partition(comp, resources, db)
        walls.append(time.perf_counter() - start)
    assert decision is not None
    db = synthetic_database(names)
    sample = (
        _alloc_sample(lambda: _scalar_exhaustive_partition(comp, resources, db))
        if alloc_sample
        else None
    )
    scalar = EngineResult(
        engine="scalar",
        repeats=repeat,
        best_wall_s=min(walls),
        mean_wall_s=sum(walls) / len(walls),
        configs_evaluated=decision.evaluations,
        counts=tuple(decision.config.counts),
        t_cycle_ms=decision.t_cycle_ms,
        alloc_blocks=sample[0] if sample else None,
        alloc_peak_kib=sample[1] if sample else None,
    )

    searcher = ArraySearchEngine(
        comp, order_by_power(resources), synthetic_database(names)
    )
    search_prune = "auto" if prune else False
    walls = []
    outcome = None
    for _ in range(repeat):
        start = time.perf_counter()
        outcome = searcher.search(prune=search_prune)
        walls.append(time.perf_counter() - start)
    assert outcome is not None
    sample = (
        _alloc_sample(lambda: searcher.search(prune=search_prune))
        if alloc_sample
        else None
    )
    array = EngineResult(
        engine="array",
        repeats=repeat,
        best_wall_s=min(walls),
        mean_wall_s=sum(walls) / len(walls),
        configs_evaluated=outcome.evaluations,
        counts=outcome.counts,
        t_cycle_ms=outcome.t_cycle_ms,
        alloc_blocks=sample[0] if sample else None,
        alloc_peak_kib=sample[1] if sample else None,
    )
    return PerfComparison(
        cluster_sizes=tuple(int(s) for s in cluster_sizes),
        n=n,
        results=(scalar, array),
    )


def perf_report(cmp: PerfComparison) -> str:
    """Human-readable comparison table."""
    from repro.experiments.report import format_table

    total = sum(cmp.cluster_sizes)
    rows = [
        [
            r.engine,
            r.configs_evaluated,
            f"{seconds_to_msec(r.best_wall_s):.2f}",
            f"{seconds_to_msec(r.mean_wall_s):.2f}",
            f"{r.configs_per_s:,.0f}",
            "-" if r.alloc_peak_kib is None else f"{r.alloc_peak_kib:,.0f}",
            "+".join(str(c) for c in r.counts),
            f"{r.t_cycle_ms:.3f}",
        ]
        for r in cmp.results
    ]
    title = (
        f"partition perf: exhaustive oracle, K={len(cmp.cluster_sizes)} clusters "
        f"({total} processors), STEN-1 N={cmp.n}"
    )
    table = format_table(
        [
            "engine",
            "configs",
            "best ms",
            "mean ms",
            "configs/s",
            "peak KiB",
            "decision",
            "T_c ms",
        ],
        rows,
        title=title,
    )
    return table + (
        f"\n\narray speedup over scalar (configs/s): "
        f"{cmp.speedup_array_over_scalar:.1f}x (floor {ARRAY_SPEEDUP_FLOOR:g}x)"
    )


def perf_payload(cmp: PerfComparison) -> dict:
    """JSON-serializable record (the ``BENCH_partition_perf.json`` schema)."""
    return {
        "scenario": {
            "cluster_sizes": list(cmp.cluster_sizes),
            "total_processors": sum(cmp.cluster_sizes),
            "workload": f"STEN-1 N={cmp.n}",
        },
        "engines": {
            r.engine: {
                "repeats": r.repeats,
                "best_wall_s": r.best_wall_s,
                "mean_wall_s": r.mean_wall_s,
                "configs_evaluated": r.configs_evaluated,
                "configs_per_s": r.configs_per_s,
                "alloc_blocks": r.alloc_blocks,
                "alloc_peak_kib": r.alloc_peak_kib,
                "decision": list(r.counts),
                "t_cycle_ms": r.t_cycle_ms,
            }
            for r in cmp.results
        },
        "speedup_array_over_scalar": cmp.speedup_array_over_scalar,
        # The within-run floor the perfgate enforces (see
        # repro.benchmarking.perfgate.check_regression): committed with the
        # payload, like the telemetry budget, so the gate needs no baseline.
        "array_over_scalar_floor": ARRAY_SPEEDUP_FLOOR,
    }
