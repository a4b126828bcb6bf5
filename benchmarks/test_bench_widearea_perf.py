"""Bench: wide-area collapsed decisions against the <100 ms budget.

The ISSUE-9 tentpole claim: on deterministic wide-area pools of 64, 256,
and 1000 logical clusters the equivalence-class collapsed search decides
in under ``DECISION_BUDGET_MS`` (100 ms) wall time — spaces of 10^50 to
10^800 ordered configurations — while staying bit-identical to the
uncollapsed array engine on pools small enough to scan.  A cold sweep
over 4-32 sites and 48, 64, 128 and 256 sites holds one whole cold
decision (lowering, class detection and the search) to the same budget
at every size, across the crossing lookup table's 16-cluster cap and
through the wide strata, and on three load-adjusted pools of 11-21
classes.  Writes the scaling table to
``benchmarks/out/widearea_perf.txt`` and the record to the repo root as
``BENCH_widearea_perf.json``; the gate's within-run verdict enforces the
parity invariant, the decision budget and the evaluation ceiling at every
size.
"""

from repro.partition.wideareabench import (
    DEFAULT_SIZES,
    run_widearea,
    widearea_payload,
    widearea_report,
)


def test_widearea_decision_budget(benchmark, save_report, commit_record):
    bench = benchmark.pedantic(
        lambda: run_widearea(DEFAULT_SIZES, repeat=3), rounds=1, iterations=1
    )
    save_report("widearea_perf.txt", widearea_report(bench))
    commit_record("widearea_perf", widearea_payload(bench))
    assert bench.parity_ok is True and bench.parity_instances > 0
    # The whole point of collapsing: evaluations stay flat (the record's
    # ceiling) while the considered space grows by hundreds of orders of
    # magnitude.
    for r in bench.sizes:
        assert r.log10_configs_considered > 50.0
    biggest = bench.result(max(DEFAULT_SIZES))
    assert biggest.n_clusters == 1000
    assert biggest.method.startswith("collapse")
