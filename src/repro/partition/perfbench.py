"""Partitioning throughput harness: the scalar reference vs the array engine.

Shared by the ``repro bench-partition`` CLI subcommand and
``benchmarks/test_bench_partition_perf.py``: builds a deterministic
synthetic heterogeneous network (one cluster per requested size, era-style
instruction rates), runs the exhaustive oracle on both engines, and
reports wall time, configurations evaluated, throughput, and a
``tracemalloc`` allocation sample — the numbers
``BENCH_partition_perf.json`` tracks across PRs.

Timing methodology per engine:

* ``scalar`` — cold probes of the reference
  :class:`~repro.partition.estimator.CycleEstimator`: per configuration
  of the space, one fresh estimator, built outside the timed window, and
  one ``t_cycle`` timed, over one cost database per pass.  That is the
  scalar reference where it re-estimates an exact winner (one estimator
  per decision on a long-lived database), and it does not get cheaper
  when a search's probes share work.  The product-loop oracle still
  supplies the decision and the allocation sample;
* ``array`` — the persistent :class:`~repro.partition.arrayengine.\
ArraySearchEngine` is constructed *outside* the timed window (like the
  cost database is for both engines) because its operating point is the
  steady-state decide loop: lower once, search many times.  Each window
  times back-to-back
  :meth:`~repro.partition.arrayengine.ArraySearchEngine.search` calls,
  as many as make one untimed window last at least
  :data:`~repro.benchmarking.timing.WINDOW_S`, and reports the window
  over its call count: one search of the 3×8 space takes a tenth of a
  millisecond, too short to time alone.  The search is the ordered scan,
  and a search keeps no scored rows, so every call scores the
  complete space (a space that fits one workspace block stays loaded
  between calls, as it does in any repeated search).

The sides run in interleaved pairs, one scalar pass and then one array
window back to back, so a slow phase of the host moves both sides of a
pair; the speedup is the median of the per-pair ratios.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Sequence

from repro.apps.stencil import stencil_computation
from repro.benchmarking.costfuncs import CommCostFunction, LinearByteCost
from repro.benchmarking.database import CostDatabase
from repro.benchmarking.perfgate import metric, record
from repro.benchmarking.timing import window_calls
from repro.errors import PartitionError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.processor import ProcessorSpec
from repro.model.computation import DataParallelComputation
from repro.partition.available import gather_available_resources
from repro.partition.arrayengine import ArraySearchEngine
from repro.partition.config import ProcessorConfiguration
from repro.partition.estimator import CycleEstimator
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

#: Committed within-run floor, written into the record as the ratio's
#: ``bound``: array-engine throughput (configs/s) must be at least this
#: many times the scalar reference's.
ARRAY_SPEEDUP_FLOOR = 100.0

#: Cold probes built per timed window, so a large space never holds one
#: estimator per configuration at once.
_COLD_CHUNK = 1024

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
    #: Array over scalar throughput in each interleaved pair.
    pair_speedups: tuple[float, ...]

    def result(self, engine: str) -> EngineResult:
        for r in self.results:
            if r.engine == engine:
                return r
        raise KeyError(engine)

    @property
    def speedup_array_over_scalar(self) -> float:
        """Array-engine throughput over scalar throughput, in configs/s:
        the median over the interleaved pairs.

        A throughput (not wall-time) ratio because the engines may visit
        different candidate counts (the scalar oracle scans the whole
        space; the array engine prunes above its size cutoff).
        """
        return statistics.median(self.pair_speedups)


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


def _cold_probe_wall(
    computation: DataParallelComputation,
    configs: Sequence[ProcessorConfiguration],
    cluster_names: Sequence[str],
) -> float:
    """The summed wall time of one ``t_cycle`` per configuration, each on
    a fresh estimator built outside the timed windows, all over one fresh
    :func:`synthetic_database`."""
    db = synthetic_database(cluster_names)
    wall = 0.0
    for start in range(0, len(configs), _COLD_CHUNK):
        probes = [
            (CycleEstimator(computation, db), cfg)
            for cfg in configs[start : start + _COLD_CHUNK]
        ]
        t0 = time.perf_counter()
        for estimator, cfg in probes:
            estimator.t_cycle(cfg)
        wall += time.perf_counter() - t0
    return wall


def run_perf(
    cluster_sizes: Sequence[int] = (8, 8, 8),
    *,
    n: int = 600,
    repeat: int = 3,
    alloc_sample: bool = True,
) -> PerfComparison:
    """Time the exhaustive oracle on both engines on one scenario.

    The scalar reference is timed as cold probes, one fresh estimator per
    configuration over one cost database per pass (see the module
    docstring); its decision and allocation sample come from the
    product-loop oracle.
    The array engine is timed at its operating point instead: the
    persistent engine (lowering + workspace) is built outside the window
    and each window times full streamed searches, at least
    :data:`~repro.benchmarking.timing.WINDOW_S` long, per search — a
    search keeps no scored rows, so every search scores the whole space
    again.  ``repeat`` pairs run interleaved, one scalar pass then
    one array window.  The array search prunes past its size cutoff, as
    every exact search does; the scalar oracle always scans every
    configuration.  Reports the best and mean wall time per engine and
    the speedup of every pair, plus a ``tracemalloc`` allocation sample
    per engine unless ``alloc_sample`` is off.
    """
    if repeat < 1:
        raise PartitionError(f"repeat must be >= 1, got {repeat}")
    net = synthetic_network(cluster_sizes)
    names = [c.name for c in net.clusters]
    resources = gather_available_resources(net)
    comp = stencil_computation(n, overlap=False)

    ordered = tuple(order_by_power(resources))
    configs = [
        ProcessorConfiguration(ordered, combo)
        for combo in product(*(range(r.n_available + 1) for r in ordered))
        if sum(combo) >= 1
    ]
    searcher = ArraySearchEngine(
        comp, order_by_power(resources), synthetic_database(names)
    )
    search = searcher.search
    calls = window_calls(search)
    scalar_walls, array_walls = [], []
    for _ in range(repeat):
        scalar_walls.append(_cold_probe_wall(comp, configs, names))
        start = time.perf_counter()
        for _ in range(calls):
            outcome = search()
        array_walls.append((time.perf_counter() - start) / calls)

    db = synthetic_database(names)
    decision = _scalar_exhaustive_partition(comp, resources, db)
    sample = (
        _alloc_sample(lambda: _scalar_exhaustive_partition(comp, resources, db))
        if alloc_sample
        else None
    )
    scalar = EngineResult(
        engine="scalar",
        repeats=repeat,
        best_wall_s=min(scalar_walls),
        mean_wall_s=sum(scalar_walls) / repeat,
        configs_evaluated=len(configs),
        counts=tuple(decision.config.counts),
        t_cycle_ms=decision.t_cycle_ms,
        alloc_blocks=sample[0] if sample else None,
        alloc_peak_kib=sample[1] if sample else None,
    )
    sample = _alloc_sample(search) if alloc_sample else None
    array = EngineResult(
        engine="array",
        repeats=repeat,
        best_wall_s=min(array_walls),
        mean_wall_s=sum(array_walls) / repeat,
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
        pair_speedups=tuple(
            outcome.evaluations * scalar_s / (len(configs) * array_s)
            for scalar_s, array_s in zip(scalar_walls, array_walls)
        ),
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
        f"\n\narray speedup over scalar (configs/s, median of "
        f"{len(cmp.pair_speedups)} interleaved pairs): "
        f"{cmp.speedup_array_over_scalar:.1f}x (floor {ARRAY_SPEEDUP_FLOOR:g}x)"
    )


def perf_payload(cmp: PerfComparison) -> dict:
    """The ``BENCH_partition_perf.json`` record (see
    :mod:`repro.benchmarking.perfgate` for the shape and the gate)."""
    scalar, array = cmp.result("scalar"), cmp.result("array")
    invariants = {
        "decision_parity": scalar.counts == array.counts
        and abs(scalar.t_cycle_ms - array.t_cycle_ms) < 1e-9,
    }
    if scalar.alloc_peak_kib is not None and array.alloc_peak_kib is not None:
        # The allocation story the workspace exists for: a streamed
        # search's transient footprint stays below the scalar loop's.
        invariants["array_alloc_below_scalar"] = (
            array.alloc_peak_kib < scalar.alloc_peak_kib
        )
    absolute = {}
    for r in cmp.results:
        absolute[f"{r.engine}.configs_per_s"] = metric(r.configs_per_s, "higher")
        absolute[f"{r.engine}.best_wall_s"] = metric(r.best_wall_s, "lower")
    return record(
        "partition",
        scenario={
            "cluster_sizes": list(cmp.cluster_sizes),
            "total_processors": sum(cmp.cluster_sizes),
            "workload": f"STEN-1 N={cmp.n}",
            "pair_speedups": list(cmp.pair_speedups),
            "engines": {
                r.engine: {
                    "repeats": r.repeats,
                    "mean_wall_s": r.mean_wall_s,
                    "configs_evaluated": r.configs_evaluated,
                    "alloc_blocks": r.alloc_blocks,
                    "alloc_peak_kib": r.alloc_peak_kib,
                    "t_cycle_ms": r.t_cycle_ms,
                }
                for r in cmp.results
            },
        },
        invariants=invariants,
        exact={f"{r.engine}.decision": list(r.counts) for r in cmp.results},
        ratios={
            "speedup_array_over_scalar": metric(
                cmp.speedup_array_over_scalar, "higher", ARRAY_SPEEDUP_FLOOR
            )
        },
        absolute=absolute,
    )
