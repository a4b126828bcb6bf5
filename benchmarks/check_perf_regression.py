#!/usr/bin/env python3
"""CI gate: fail loudly when a committed perf benchmark regresses.

Usage::

    python benchmarks/check_perf_regression.py BASELINE.json CURRENT.json \
        [--factor 2.0] [--strict]

Handles the committed payload schemas — ``BENCH_partition_perf.json``
(scalar reference vs array engine partition search), ``BENCH_sim_perf.json``
(fast-forward vs event-level simulation),
``BENCH_telemetry_overhead.json`` (telemetry hot-path cost vs the null
registry), ``BENCH_adaptive_perf.json`` (adaptive repartitioning vs
the always-research baseline under churn), and
``BENCH_widearea_perf.json`` (collapsed wide-area decisions vs the
<100 ms budget), and ``BENCH_serve_perf.json`` (the batching decision
service vs the one-search-per-request baseline) — detected from the
payload shape.  Exits non-zero (and prints what moved) if the fresh benchmark
record lost more than ``factor``x against the committed baseline — see
:mod:`repro.benchmarking.perfgate` for exactly what is compared.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed known-good payload")
    parser.add_argument("current", help="freshly benchmarked payload")
    parser.add_argument("--factor", type=float, default=2.0)
    parser.add_argument(
        "--strict",
        action="store_true",
        help="also gate absolute configs/s (same-machine comparisons only)",
    )
    args = parser.parse_args(argv)

    from repro.benchmarking.perfgate import (
        check_adaptive_regression,
        check_regression,
        check_serve_regression,
        check_sim_regression,
        check_telemetry_regression,
        check_widearea_regression,
        format_problems,
        payload_kind,
    )

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.current) as fh:
        current = json.load(fh)
    kinds = (payload_kind(baseline), payload_kind(current))
    if kinds[0] != kinds[1]:
        print(f"perf gate: payload kinds differ: {kinds[0]} vs {kinds[1]}")
        return 1
    gate = {
        "sim": check_sim_regression,
        "telemetry": check_telemetry_regression,
        "adaptive": check_adaptive_regression,
        "widearea": check_widearea_regression,
        "serve": check_serve_regression,
        "partition": check_regression,
    }[kinds[0]]
    problems = gate(baseline, current, factor=args.factor, strict=args.strict)
    print(format_problems(problems))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
