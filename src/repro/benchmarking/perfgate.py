"""Regression gates over committed benchmark payloads.

The perf-smoke CI jobs record benchmarks as JSON payloads and the repo
commits the last known-good record of each.  This module compares a fresh
payload against its baseline and reports what regressed.

``BENCH_partition_perf.json`` (:func:`check_regression`, the scalar
reference vs array engine partition benchmark from
``benchmarks/test_bench_partition_perf.py``):

* **decision drift** — any engine choosing a different configuration is
  a correctness bug, never noise, and always fails;
* **floor breach** — the array engine's configs/s must be at least the
  payload's committed ``array_over_scalar_floor`` times the scalar
  reference's (a within-run ratio, like the telemetry budget); always
  fails;
* **speedup collapse** — the array/scalar speedup is a within-run ratio,
  so it transfers across machines; a drop beyond ``factor`` (default 2×)
  against the baseline fails;
* **throughput collapse** (``strict=True`` only) — absolute
  ``configs_per_s`` per engine; off by default because wall-clock rates do
  not transfer between the machine that committed the baseline and the CI
  runner.

``BENCH_sim_perf.json`` (:func:`check_sim_regression`, the fast-forward vs
event-level engine benchmark from ``benchmarks/test_bench_sim_perf.py``):

* **parity breakage** — the two modes disagreeing on any simulated
  observable is a correctness bug and always fails;
* **clock drift** — the simulator is deterministic, so the simulated clock
  moving against the committed baseline means behaviour changed, not
  performance; always fails;
* **speedup collapse** — the within-run fast/event ratio, for both the
  microbench and the E16 grid validation pass, beyond ``factor``;
* **throughput collapse** (``strict=True`` only) — absolute ``cycles_per_s``
  per mode.

``BENCH_telemetry_overhead.json`` (:func:`check_telemetry_regression`, the
telemetry hot-path micro-benchmark from
``benchmarks/test_bench_telemetry_overhead.py``):

* **budget breach** — the enabled/null counter-inc ratio exceeding the
  payload's committed budget always fails; the ratio is within-run, so it
  transfers across machines;
* **ratio regression** — the ratio growing beyond ``factor``x against the
  committed baseline;
* **absolute cost collapse** (``strict=True`` only) — enabled
  ``inc()`` nanoseconds per op against the baseline machine's.

``BENCH_adaptive_perf.json`` (:func:`check_adaptive_regression`, the
adaptive-vs-always-research churn grid from
``benchmarks/test_bench_adaptive_perf.py``):

* **parity breakage** — a churn scenario whose supervised answer differs
  from the clean run's, or a divergence fallback whose decision does not
  match the research baseline's, is a correctness bug and always fails;
* **win-floor breach** — the adaptive policy must win at least the
  payload's committed ``min_wins`` scenarios on total elapsed time (a
  within-run invariant, machine-independent); always fails;
* **clock drift** — both policies run on the deterministic sim clock, so
  per-scenario elapsed times moving against the committed baseline means
  behaviour changed, not performance; always fails;
* **speedup collapse** — a scenario's baseline/adaptive speedup dropping
  beyond ``factor`` against the committed record (redundant with drift
  while both are exact, but survives a legitimately regenerated baseline).

``BENCH_widearea_perf.json`` (:func:`check_widearea_regression`, the
collapsed wide-area decision benchmark from
``benchmarks/test_bench_widearea_perf.py``) — see that function's
docstring for the gate inventory (parity, the committed <100 ms decision
budget, deterministic decision drift, evaluation blow-up).

``BENCH_serve_perf.json`` (:func:`check_serve_regression`, the decision
service benchmark from ``benchmarks/test_bench_serve_perf.py``) — see
that function's docstring for the gate inventory (served-vs-direct
parity, error replies, the committed served/baseline speedup floor,
speedup and coalescing-ratio drift).

:func:`payload_kind` distinguishes the schemas so CI can gate whichever
payload it is handed.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "check_regression",
    "check_sim_regression",
    "check_telemetry_regression",
    "check_adaptive_regression",
    "check_widearea_regression",
    "check_serve_regression",
    "payload_kind",
    "format_problems",
]


def payload_kind(payload: dict[str, Any]) -> str:
    """``"partition"``/``"sim"``/``"telemetry"``/``"adaptive"``/
    ``"widearea"``/``"serve"``, keyed on the schema shape."""
    if "serve" in payload:
        return "serve"
    if "widearea" in payload:
        return "widearea"
    if "telemetry_overhead" in payload:
        return "telemetry"
    if "adaptive_churn" in payload:
        return "adaptive"
    return "sim" if "modes" in payload else "partition"


def check_regression(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in ``current`` relative to ``baseline`` (empty = pass)."""
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    problems: list[str] = []
    for engine, base in baseline.get("engines", {}).items():
        cur = current.get("engines", {}).get(engine)
        if cur is None:
            problems.append(f"engine {engine!r} missing from current payload")
            continue
        if cur["decision"] != base["decision"]:
            problems.append(
                f"{engine} decision drifted: {base['decision']} -> {cur['decision']}"
            )
        if strict and cur["configs_per_s"] * factor < base["configs_per_s"]:
            problems.append(
                f"{engine} throughput regressed >{factor:g}x: "
                f"{base['configs_per_s']:.0f} -> {cur['configs_per_s']:.0f} configs/s"
            )
    # The committed floor is a within-run invariant of the *current*
    # payload; the drift check compares against the baseline's ratio.
    cur_speedup = current.get("speedup_array_over_scalar")
    floor = current.get("array_over_scalar_floor")
    if cur_speedup is not None and floor is not None and cur_speedup < floor:
        problems.append(
            f"array/scalar speedup below committed floor: "
            f"{cur_speedup:.1f}x < {floor:g}x"
        )
    base_speedup = baseline.get("speedup_array_over_scalar")
    if base_speedup is not None:
        if cur_speedup is None:
            problems.append("speedup_array_over_scalar missing from current payload")
        elif cur_speedup * factor < base_speedup:
            problems.append(
                f"array/scalar speedup regressed >{factor:g}x: "
                f"{base_speedup:.1f}x -> {cur_speedup:.1f}x"
            )
    return problems


def check_sim_regression(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in a ``BENCH_sim_perf.json`` payload (empty = pass)."""
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    problems: list[str] = []
    if not current.get("parity_ok", False):
        problems.append("fast/event parity broken in current payload")
    for mode, base in baseline.get("modes", {}).items():
        cur = current.get("modes", {}).get(mode)
        if cur is None:
            problems.append(f"mode {mode!r} missing from current payload")
            continue
        if cur["clock_ms"] != base["clock_ms"]:
            problems.append(
                f"{mode} simulated clock drifted: "
                f"{base['clock_ms']} -> {cur['clock_ms']} ms"
            )
        if strict and cur["cycles_per_s"] * factor < base["cycles_per_s"]:
            problems.append(
                f"{mode} throughput regressed >{factor:g}x: "
                f"{base['cycles_per_s']:.0f} -> {cur['cycles_per_s']:.0f} cycles/s"
            )
    base_speedup = baseline.get("speedup_fast_over_event")
    cur_speedup = current.get("speedup_fast_over_event")
    if base_speedup is not None:
        if cur_speedup is None:
            problems.append("speedup_fast_over_event missing from current payload")
        elif cur_speedup * factor < base_speedup:
            problems.append(
                f"fast/event speedup regressed >{factor:g}x: "
                f"{base_speedup:.1f}x -> {cur_speedup:.1f}x"
            )
    base_grid = baseline.get("grid")
    cur_grid = current.get("grid")
    if base_grid is not None:
        if cur_grid is None:
            problems.append("grid timing missing from current payload")
        else:
            if not cur_grid.get("parity_ok", False):
                problems.append("grid validation parity broken in current payload")
            if cur_grid["speedup"] * factor < base_grid["speedup"]:
                problems.append(
                    f"grid fast/event speedup regressed >{factor:g}x: "
                    f"{base_grid['speedup']:.1f}x -> {cur_grid['speedup']:.1f}x"
                )
    return problems


def check_telemetry_regression(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in a ``BENCH_telemetry_overhead.json`` payload (empty = pass)."""
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    problems: list[str] = []
    cur = current.get("telemetry_overhead")
    if cur is None:
        return ["telemetry_overhead missing from current payload"]
    ratio, budget = cur["overhead_ratio"], cur["budget"]
    if ratio > budget:
        problems.append(
            f"enabled/null hot-path ratio over budget: "
            f"{ratio:.2f}x > {budget:g}x"
        )
    base = baseline.get("telemetry_overhead")
    if base is None:
        problems.append("telemetry_overhead missing from baseline payload")
        return problems
    if ratio > base["overhead_ratio"] * factor:
        problems.append(
            f"enabled/null hot-path ratio regressed >{factor:g}x: "
            f"{base['overhead_ratio']:.2f}x -> {ratio:.2f}x"
        )
    if strict and cur["enabled_inc_ns"] > base["enabled_inc_ns"] * factor:
        problems.append(
            f"enabled inc() cost regressed >{factor:g}x: "
            f"{base['enabled_inc_ns']:.0f} -> {cur['enabled_inc_ns']:.0f} ns/op"
        )
    return problems


def check_adaptive_regression(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in a ``BENCH_adaptive_perf.json`` payload (empty = pass).

    ``strict`` is accepted for signature parity with the other gates; the
    adaptive payload has no machine-dependent absolutes (everything runs
    on the simulated clock), so it changes nothing.
    """
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    del strict  # no wall-clock absolutes in this payload
    problems: list[str] = []
    cur = current.get("adaptive_churn")
    if cur is None:
        return ["adaptive_churn missing from current payload"]
    if not cur.get("answer_parity_ok", False):
        problems.append("churn answer parity broken in current payload")
    if not cur.get("fallback_parity_ok", False):
        problems.append(
            "divergence-fallback decision parity broken in current payload"
        )
    wins, min_wins = cur.get("wins", 0), cur.get("min_wins", 0)
    if wins < min_wins:
        problems.append(
            f"adaptive wins below committed floor: {wins} < {min_wins} scenarios"
        )
    base = baseline.get("adaptive_churn")
    if base is None:
        problems.append("adaptive_churn missing from baseline payload")
        return problems
    for scenario, base_row in base.get("scenarios", {}).items():
        cur_row = cur.get("scenarios", {}).get(scenario)
        if cur_row is None:
            problems.append(f"scenario {scenario!r} missing from current payload")
            continue
        for policy in ("baseline_ms", "adaptive_ms"):
            if cur_row[policy] != base_row[policy]:
                problems.append(
                    f"{scenario} {policy} simulated clock drifted: "
                    f"{base_row[policy]} -> {cur_row[policy]} ms"
                )
        if cur_row["speedup"] * factor < base_row["speedup"]:
            problems.append(
                f"{scenario} baseline/adaptive speedup regressed >{factor:g}x: "
                f"{base_row['speedup']:.2f}x -> {cur_row['speedup']:.2f}x"
            )
    return problems


def check_widearea_regression(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in a ``BENCH_widearea_perf.json`` payload (empty = pass).

    * **parity breakage** — the collapsed engine diverging from the
      uncollapsed array engine on the small-instance block is a
      correctness bug and always fails;
    * **budget breach** — any pool size's best decision exceeding the
      payload's committed ``decision_budget_ms`` (a wall-time ceiling the
      feature's whole point is to stay under; generous enough — 100 ms
      versus ~30 ms measured — to absorb runner noise) always fails;
    * **decision drift** — a pool size choosing a different configuration
      or ``T_c`` than the committed baseline means behaviour changed, not
      performance (everything here is deterministic); always fails;
    * **evaluation blow-up** — a size evaluating more than ``factor``
      times the baseline's configurations means the collapse stopped
      collapsing;
    * **wall-time collapse** (``strict=True`` only) — absolute decide
      milliseconds against the baseline machine's.
    """
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    problems: list[str] = []
    cur = current.get("widearea")
    if cur is None:
        return ["widearea missing from current payload"]
    if cur.get("parity_ok") is False:
        problems.append("collapsed vs array parity broken in current payload")
    budget = cur.get("decision_budget_ms")
    for size, row in cur.get("sizes", {}).items():
        if budget is not None and row["decide_ms"] > budget:
            problems.append(
                f"{size}-site decision over budget: "
                f"{row['decide_ms']:.2f} ms > {budget:g} ms"
            )
    base = baseline.get("widearea")
    if base is None:
        problems.append("widearea missing from baseline payload")
        return problems
    for size, base_row in base.get("sizes", {}).items():
        cur_row = cur.get("sizes", {}).get(size)
        if cur_row is None:
            problems.append(f"{size}-site pool missing from current payload")
            continue
        for field in ("active_clusters", "t_cycle_ms", "method", "classes"):
            if cur_row[field] != base_row[field]:
                problems.append(
                    f"{size}-site {field} drifted: "
                    f"{base_row[field]} -> {cur_row[field]}"
                )
        if cur_row["configs_evaluated"] > base_row["configs_evaluated"] * factor:
            problems.append(
                f"{size}-site evaluations grew >{factor:g}x: "
                f"{base_row['configs_evaluated']} -> "
                f"{cur_row['configs_evaluated']}"
            )
        if strict and cur_row["decide_ms"] > base_row["decide_ms"] * factor:
            problems.append(
                f"{size}-site decision regressed >{factor:g}x: "
                f"{base_row['decide_ms']:.2f} -> {cur_row['decide_ms']:.2f} ms"
            )
    return problems


def check_serve_regression(
    baseline: dict[str, Any],
    current: dict[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in a ``BENCH_serve_perf.json`` payload (empty = pass).

    * **parity breakage** — a served decision diverging from the direct
      cold ``exhaustive_partition`` answer (cold or warm cache, either
      parity tenant) is a correctness bug and always fails;
    * **error replies** — the bench runs with wide-open admission limits,
      so *any* error reply means the pipeline dropped or mis-served a
      request; always fails;
    * **floor breach** — served/baseline decisions/s below the payload's
      committed ``speedup_floor``; the ratio is within-run (both sides
      measured on the same machine in the same process), so it transfers
      across machines and always fails;
    * **speedup / coalescing collapse** — the within-run speedup or the
      requests-per-search coalescing ratio dropping beyond ``factor``
      against the committed baseline;
    * **throughput / latency collapse** (``strict=True`` only) — absolute
      served decisions/s and p99 milliseconds against the baseline
      machine's.
    """
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    problems: list[str] = []
    cur = current.get("serve")
    if cur is None:
        return ["serve missing from current payload"]
    if cur.get("parity_ok") is False:
        problems.append("served vs direct-search parity broken in current payload")
    if cur.get("errors", 0):
        problems.append(
            f"{cur['errors']} error replies under wide-open admission limits"
        )
    floor = cur.get("speedup_floor")
    speedup = cur.get("speedup_vs_baseline")
    if floor is not None and speedup is not None and speedup < floor:
        problems.append(
            f"served/baseline speedup below committed floor: "
            f"{speedup:.1f}x < {floor:g}x"
        )
    base = baseline.get("serve")
    if base is None:
        problems.append("serve missing from baseline payload")
        return problems
    if speedup is None:
        problems.append("speedup_vs_baseline missing from current payload")
    elif speedup * factor < base["speedup_vs_baseline"]:
        problems.append(
            f"served/baseline speedup regressed >{factor:g}x: "
            f"{base['speedup_vs_baseline']:.1f}x -> {speedup:.1f}x"
        )
    if cur["coalesce_ratio"] * factor < base["coalesce_ratio"]:
        problems.append(
            f"coalescing ratio regressed >{factor:g}x: "
            f"{base['coalesce_ratio']:.0f} -> "
            f"{cur['coalesce_ratio']:.0f} requests/search"
        )
    if strict:
        if cur["decisions_per_s"] * factor < base["decisions_per_s"]:
            problems.append(
                f"served throughput regressed >{factor:g}x: "
                f"{base['decisions_per_s']:.0f} -> "
                f"{cur['decisions_per_s']:.0f} decisions/s"
            )
        if cur["p99_ms"] > base["p99_ms"] * factor:
            problems.append(
                f"served p99 latency regressed >{factor:g}x: "
                f"{base['p99_ms']:.1f} -> {cur['p99_ms']:.1f} ms"
            )
    return problems


def format_problems(problems: list[str]) -> str:
    """Human-readable verdict for CI logs."""
    if not problems:
        return "perf gate: OK"
    lines = ["perf gate: REGRESSION DETECTED"]
    lines += [f"  - {p}" for p in problems]
    return "\n".join(lines)
