"""Bench: scalar reference vs array engine exhaustive-oracle throughput.

The tentpole claim of the array engine, on the 3-cluster 24-processor
reference scenario: the preallocated streamed search is at least 100x the
scalar reference loop in configs/s, both making the identical decision.
Writes the comparison to ``benchmarks/out/partition_perf.txt`` and the
machine-readable record to the repo root as ``BENCH_partition_perf.json``
so the numbers are tracked across PRs (see
``benchmarks/check_perf_regression.py``).
"""

import json
from pathlib import Path

from repro.partition.perfbench import (
    ARRAY_SPEEDUP_FLOOR,
    perf_payload,
    perf_report,
    run_perf,
)

REPO_ROOT = Path(__file__).parent.parent


def test_engine_exhaustive_speedups(benchmark, save_report):
    cmp = benchmark.pedantic(
        lambda: run_perf((8, 8, 8), n=600, repeat=3), rounds=1, iterations=1
    )
    save_report("partition_perf.txt", perf_report(cmp))
    payload = perf_payload(cmp)
    (REPO_ROOT / "BENCH_partition_perf.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    scalar, array = cmp.result("scalar"), cmp.result("array")
    assert scalar.counts == array.counts
    assert abs(scalar.t_cycle_ms - array.t_cycle_ms) < 1e-9
    assert cmp.speedup_array_over_scalar >= ARRAY_SPEEDUP_FLOOR, (
        f"array engine only {cmp.speedup_array_over_scalar:.1f}x the scalar "
        f"throughput (floor {ARRAY_SPEEDUP_FLOOR}x): scalar "
        f"{scalar.configs_per_s:,.0f} configs/s, array "
        f"{array.configs_per_s:,.0f} configs/s"
    )
    # The allocation story the workspace exists for: a streamed search's
    # transient footprint stays below the scalar reference loop's.
    assert array.alloc_peak_kib is not None and scalar.alloc_peak_kib is not None
    assert array.alloc_peak_kib < scalar.alloc_peak_kib


def test_unpruned_engines_still_match(benchmark):
    """Without the prune both engines scan all combos — same answer."""
    cmp = benchmark.pedantic(
        lambda: run_perf((6, 6, 6), n=300, repeat=1, prune=False),
        rounds=1,
        iterations=1,
    )
    scalar, array = cmp.result("scalar"), cmp.result("array")
    assert scalar.counts == array.counts
    assert abs(scalar.t_cycle_ms - array.t_cycle_ms) < 1e-9
    # Unpruned, both engines visit the full (6+1)^3 - 1 combo space.
    assert scalar.configs_evaluated == 7**3 - 1
    assert array.configs_evaluated == 7**3 - 1
