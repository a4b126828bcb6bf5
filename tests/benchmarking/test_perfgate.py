"""The perf regression gate used by the perf-smoke CI job."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarking.perfgate import (
    check_regression,
    check_serve_regression,
    check_sim_regression,
    check_telemetry_regression,
    format_problems,
    payload_kind,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def payload(
    *, speedup=250.0, scalar_rate=30_000.0, array_rate=7_500_000.0, decision=(8, 6, 4)
):
    return {
        "engines": {
            "scalar": {
                "configs_per_s": scalar_rate,
                "decision": list(decision),
            },
            "array": {
                "configs_per_s": array_rate,
                "decision": list(decision),
            },
        },
        "speedup_array_over_scalar": speedup,
        "array_over_scalar_floor": 100.0,
    }


def test_identical_payloads_pass():
    base = payload()
    assert check_regression(base, payload()) == []
    assert format_problems([]) == "perf gate: OK"


def test_small_speedup_wobble_passes():
    assert check_regression(payload(speedup=250.0), payload(speedup=130.0)) == []


def test_speedup_collapse_beyond_factor_fails():
    problems = check_regression(payload(speedup=250.0), payload(speedup=120.0))
    assert len(problems) == 1
    assert "speedup regressed >2x" in problems[0]
    assert "REGRESSION" in format_problems(problems)


def test_array_floor_breach_always_fails():
    # The floor is a within-run invariant of the current payload: breached
    # even when the baseline itself is already below it.
    problems = check_regression(payload(speedup=90.0), payload(speedup=90.0))
    assert len(problems) == 1
    assert "below committed floor" in problems[0]


def test_decision_drift_always_fails():
    current = payload()
    current["engines"]["array"]["decision"] = [8, 8, 0]
    problems = check_regression(payload(), current)
    assert any("decision drifted" in p for p in problems)


def test_throughput_only_gated_in_strict_mode():
    slow = payload(array_rate=1_000_000.0)
    assert check_regression(payload(), slow) == []
    problems = check_regression(payload(), slow, strict=True)
    assert any("array throughput regressed" in p for p in problems)


def test_missing_engine_fails():
    current = payload()
    del current["engines"]["scalar"]
    problems = check_regression(payload(), current)
    assert any("missing" in p for p in problems)


def test_factor_validation():
    with pytest.raises(ValueError):
        check_regression(payload(), payload(), factor=1.0)


def sim_payload(
    *,
    speedup=70.0,
    event_rate=1_000.0,
    fast_rate=70_000.0,
    clock_ms=14541.2,
    parity=True,
    grid_speedup=20.0,
    grid_parity=True,
):
    return {
        "modes": {
            "event": {"cycles_per_s": event_rate, "clock_ms": clock_ms},
            "fast": {"cycles_per_s": fast_rate, "clock_ms": clock_ms},
        },
        "parity_ok": parity,
        "speedup_fast_over_event": speedup,
        "grid": {"speedup": grid_speedup, "parity_ok": grid_parity},
    }


def telemetry_payload(*, ratio=1.6, enabled_ns=60.0, budget=25.0):
    return {
        "telemetry_overhead": {
            "iterations": 200_000,
            "repeats": 5,
            "null_inc_ns": enabled_ns / ratio,
            "enabled_inc_ns": enabled_ns,
            "enabled_set_ns": enabled_ns,
            "enabled_observe_ns": 4 * enabled_ns,
            "overhead_ratio": ratio,
            "budget": budget,
            "within_budget": ratio <= budget,
        }
    }


def serve_payload(
    *,
    speedup=30.0,
    floor=5.0,
    ratio=500.0,
    dps=9000.0,
    p99=250.0,
    errors=0,
    parity=True,
):
    return {
        "serve": {
            "pool": "synthetic:32,32,32",
            "n": 600,
            "clients": 10_000,
            "requests_per_client": 1,
            "speedup_floor": floor,
            "baseline_decisions_per_s": dps / speedup,
            "requests": 10_000,
            "ok": 10_000 - errors,
            "errors": errors,
            "decisions_per_s": dps,
            "speedup_vs_baseline": speedup,
            "p50_ms": p99 / 2,
            "p99_ms": p99,
            "coalesce_ratio": ratio,
            "parity_ok": parity,
            "parity_instances": 24,
        }
    }


def test_payload_kind_detection():
    assert payload_kind(payload()) == "partition"
    assert payload_kind(sim_payload()) == "sim"
    assert payload_kind(telemetry_payload()) == "telemetry"
    assert payload_kind(serve_payload()) == "serve"


def test_identical_serve_payloads_pass():
    assert check_serve_regression(serve_payload(), serve_payload()) == []


def test_serve_parity_breakage_always_fails():
    problems = check_serve_regression(serve_payload(), serve_payload(parity=False))
    assert any("parity broken" in p for p in problems)


def test_serve_error_replies_always_fail():
    problems = check_serve_regression(serve_payload(), serve_payload(errors=3))
    assert any("error replies" in p for p in problems)


def test_serve_floor_breach_always_fails():
    # The floor is a within-run invariant of the current payload: breached
    # even when the baseline itself is already below it.
    problems = check_serve_regression(
        serve_payload(speedup=4.0), serve_payload(speedup=4.0)
    )
    assert any("below committed floor" in p for p in problems)


def test_serve_speedup_collapse_beyond_factor_fails():
    assert (
        check_serve_regression(serve_payload(speedup=30.0), serve_payload(speedup=16.0))
        == []
    )
    problems = check_serve_regression(
        serve_payload(speedup=30.0), serve_payload(speedup=14.0)
    )
    assert any("speedup regressed >2x" in p for p in problems)


def test_serve_coalesce_collapse_beyond_factor_fails():
    problems = check_serve_regression(
        serve_payload(ratio=500.0), serve_payload(ratio=100.0)
    )
    assert any("coalescing ratio regressed" in p for p in problems)


def test_serve_absolutes_only_gated_in_strict_mode():
    # Same within-run ratios, slower machine: passes by default.
    slow = serve_payload(dps=900.0, p99=2500.0)
    assert check_serve_regression(serve_payload(), slow) == []
    problems = check_serve_regression(serve_payload(), slow, strict=True)
    assert any("throughput regressed" in p for p in problems)
    assert any("p99 latency regressed" in p for p in problems)


def test_serve_missing_sections_are_problems():
    assert check_serve_regression(serve_payload(), {}) == [
        "serve missing from current payload"
    ]
    problems = check_serve_regression({}, serve_payload())
    assert any("missing from baseline" in p for p in problems)


def test_cli_script_on_committed_serve_baseline():
    baseline = REPO_ROOT / "BENCH_serve_perf.json"
    script = REPO_ROOT / "benchmarks" / "check_perf_regression.py"
    ok = subprocess.run(
        [sys.executable, str(script), str(baseline), str(baseline)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr


def test_identical_telemetry_payloads_pass():
    assert check_telemetry_regression(telemetry_payload(), telemetry_payload()) == []


def test_telemetry_budget_breach_always_fails():
    problems = check_telemetry_regression(
        telemetry_payload(), telemetry_payload(ratio=30.0)
    )
    assert any("over budget" in p for p in problems)


def test_telemetry_ratio_regression_beyond_factor_fails():
    # 1.6x -> 2.4x is within the 2x factor; 1.6x -> 4.0x is not.
    assert (
        check_telemetry_regression(telemetry_payload(), telemetry_payload(ratio=2.4))
        == []
    )
    problems = check_telemetry_regression(
        telemetry_payload(ratio=1.6), telemetry_payload(ratio=4.0)
    )
    assert any("ratio regressed >2x" in p for p in problems)


def test_telemetry_absolute_cost_only_gated_in_strict_mode():
    base = telemetry_payload(enabled_ns=60.0)
    slow = telemetry_payload(enabled_ns=600.0)  # same ratio, slower machine
    assert check_telemetry_regression(base, slow) == []
    problems = check_telemetry_regression(base, slow, strict=True)
    assert any("inc() cost regressed" in p for p in problems)


def test_telemetry_missing_sections_are_problems():
    assert check_telemetry_regression(telemetry_payload(), {}) == [
        "telemetry_overhead missing from current payload"
    ]
    problems = check_telemetry_regression({}, telemetry_payload())
    assert any("missing from baseline" in p for p in problems)


def test_telemetry_factor_must_exceed_one():
    with pytest.raises(ValueError):
        check_telemetry_regression(
            telemetry_payload(), telemetry_payload(), factor=1.0
        )


def test_identical_sim_payloads_pass():
    assert check_sim_regression(sim_payload(), sim_payload()) == []


def test_sim_parity_breakage_always_fails():
    problems = check_sim_regression(sim_payload(), sim_payload(parity=False))
    assert any("parity broken" in p for p in problems)
    problems = check_sim_regression(sim_payload(), sim_payload(grid_parity=False))
    assert any("grid validation parity broken" in p for p in problems)


def test_sim_clock_drift_always_fails():
    problems = check_sim_regression(sim_payload(), sim_payload(clock_ms=14541.3))
    assert sum("clock drifted" in p for p in problems) == 2  # both modes


def test_sim_speedup_collapse_beyond_factor_fails():
    assert check_sim_regression(sim_payload(speedup=70.0), sim_payload(speedup=40.0)) == []
    problems = check_sim_regression(sim_payload(speedup=70.0), sim_payload(speedup=30.0))
    assert any("fast/event speedup regressed" in p for p in problems)
    problems = check_sim_regression(sim_payload(), sim_payload(grid_speedup=5.0))
    assert any("grid fast/event speedup regressed" in p for p in problems)


def test_sim_throughput_only_gated_in_strict_mode():
    slow = sim_payload(fast_rate=10_000.0)
    assert check_sim_regression(sim_payload(), slow) == []
    problems = check_sim_regression(sim_payload(), slow, strict=True)
    assert any("fast throughput regressed" in p for p in problems)


def test_sim_factor_validation():
    with pytest.raises(ValueError):
        check_sim_regression(sim_payload(), sim_payload(), factor=0.5)


def test_cli_script_on_committed_sim_baseline(tmp_path):
    """The CI invocation for the sim payload: self-comparison passes,
    broken parity exits non-zero, mismatched payload kinds exit non-zero."""
    baseline = REPO_ROOT / "BENCH_sim_perf.json"
    script = REPO_ROOT / "benchmarks" / "check_perf_regression.py"
    env = {"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"}
    ok = subprocess.run(
        [sys.executable, str(script), str(baseline), str(baseline)],
        capture_output=True, text=True, env=env,
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr

    bad = json.loads(baseline.read_text())
    bad["parity_ok"] = False
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    fail = subprocess.run(
        [sys.executable, str(script), str(baseline), str(bad_path)],
        capture_output=True, text=True, env=env,
    )
    assert fail.returncode == 1 and "REGRESSION" in fail.stdout

    mixed = subprocess.run(
        [
            sys.executable,
            str(script),
            str(REPO_ROOT / "BENCH_partition_perf.json"),
            str(baseline),
        ],
        capture_output=True, text=True, env=env,
    )
    assert mixed.returncode == 1 and "payload kinds differ" in mixed.stdout


def test_cli_script_on_committed_baseline(tmp_path):
    """The CI invocation, end to end: the committed baseline compared to
    itself must pass, and a collapsed speedup must exit non-zero."""
    baseline = REPO_ROOT / "BENCH_partition_perf.json"
    script = REPO_ROOT / "benchmarks" / "check_perf_regression.py"
    ok = subprocess.run(
        [sys.executable, str(script), str(baseline), str(baseline)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "OK" in ok.stdout

    bad = json.loads(baseline.read_text())
    bad["speedup_array_over_scalar"] /= 10.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    fail = subprocess.run(
        [sys.executable, str(script), str(baseline), str(bad_path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert fail.returncode == 1
    assert "REGRESSION" in fail.stdout
