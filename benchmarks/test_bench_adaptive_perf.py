"""Bench: adaptive repartitioning vs the always-research baseline under churn.

The tentpole claim of the incremental decision layer: over a long-horizon
churn grid (flapping bursts, a rolling hot spot, a sustained step) the
hysteresis + migrate-k policy beats a policy that answers every slowdown
with a full gather + §5 re-search, on *total* elapsed simulated time —
compute + decide + migrate on one clock — in at least ``CHURN_MIN_WINS``
of the scenarios, while reproducing the clean run's exact integer answer
everywhere and, whenever the divergence fallback fires, landing on the
same decomposition the research baseline chose.  Writes the grid to
``benchmarks/out/adaptive_perf.txt`` and the record to the repo root as
``BENCH_adaptive_perf.json``.
"""

from repro.experiments.resilience import churn_payload, churn_report


def test_adaptive_beats_always_research(benchmark, save_report, commit_record):
    table, rows = benchmark.pedantic(
        lambda: churn_report(workers=3), rounds=1, iterations=1
    )
    save_report("adaptive_perf.txt", table)
    # The within-run verdict covers answer and fallback parity, a fallback
    # having fired at all, and the committed win floor.
    commit_record("adaptive_perf", churn_payload(rows))
