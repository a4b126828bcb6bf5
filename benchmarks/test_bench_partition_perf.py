"""Bench: scalar reference vs array engine exhaustive-oracle throughput.

The tentpole claim of the array engine, on the 3-cluster 24-processor
reference scenario: the preallocated streamed search is at least
``ARRAY_SPEEDUP_FLOOR`` (100x) the scalar reference's cold probes in
configs/s, both making the identical decision, with a smaller transient
allocation peak.  Writes the comparison to
``benchmarks/out/partition_perf.txt`` and the record to the repo root as
``BENCH_partition_perf.json``; the gate's within-run verdict enforces the
floor and the invariants.
"""

from repro.partition.perfbench import perf_payload, perf_report, run_perf


def test_engine_exhaustive_speedups(benchmark, save_report, commit_record):
    cmp = benchmark.pedantic(
        lambda: run_perf((8, 8, 8), n=600, repeat=3), rounds=1, iterations=1
    )
    save_report("partition_perf.txt", perf_report(cmp))
    commit_record("partition_perf", perf_payload(cmp))


def test_unpruned_engines_still_match(benchmark):
    """Under the prune's size cutoff both engines scan all combos — same
    answer."""
    cmp = benchmark.pedantic(
        lambda: run_perf((6, 6, 6), n=300, repeat=1),
        rounds=1,
        iterations=1,
    )
    scalar, array = cmp.result("scalar"), cmp.result("array")
    assert scalar.counts == array.counts
    assert abs(scalar.t_cycle_ms - array.t_cycle_ms) < 1e-9
    # Unpruned, both engines visit the full (6+1)^3 - 1 combo space.
    assert scalar.configs_evaluated == 7**3 - 1
    assert array.configs_evaluated == 7**3 - 1
