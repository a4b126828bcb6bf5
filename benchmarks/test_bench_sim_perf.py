"""Bench: fast-forward vs event-level simulation throughput.

The tentpole claim of the steady-state engine: a 200-cycle STEN-1 run and
the E16 grid's decomposition-validation pass are both at least
``SPEEDUP_FLOOR`` (10x) faster under fast-forward than under event-level
simulation, while every simulated observable — clock, per-processor
times, message/byte counters — stays bit-exact.  Writes the comparison to
``benchmarks/out/sim_perf.txt`` and the record to the repo root as
``BENCH_sim_perf.json``; the gate's within-run verdict enforces both
floors and the parity invariants.
"""

from repro.experiments.simbench import run_sim_perf, sim_perf_payload, sim_perf_report


def test_fastforward_speedup(benchmark, save_report, commit_record):
    cmp = benchmark.pedantic(
        lambda: run_sim_perf(n=300, cycles=200, repeat=3, grid=True),
        rounds=1,
        iterations=1,
    )
    save_report("sim_perf.txt", sim_perf_report(cmp))
    commit_record("sim_perf", sim_perf_payload(cmp))
    # The grid ran, so its parity and speedup are in the gated record.
    assert cmp.grid is not None
