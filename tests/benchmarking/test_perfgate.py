"""The one benchmark gate, exercised on every committed record.

The first half runs each gate rule over every ``BENCH_*.json``.  The
second half pins named verdicts on particular records: floors breached
even against an equally bad baseline, drift just inside and beyond
``factor``, and wall-clock absolutes gated only under ``strict``.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.benchmarking.perfgate import SECTIONS, check, format_problems

REPO_ROOT = Path(__file__).resolve().parents[2]
RECORDS = sorted(REPO_ROOT.glob("BENCH_*.json"))
SCRIPT = REPO_ROOT / "benchmarks" / "check_perf_regression.py"


@pytest.fixture(params=RECORDS, ids=[p.stem for p in RECORDS])
def committed(request):
    return json.loads(request.param.read_text())


def _worse(metric, scale):
    """``metric``'s value moved ``scale``x in its worse direction."""
    value = metric["value"]
    return value / scale if metric["better"] == "higher" else value * scale


def _perturbed(value):
    if isinstance(value, str):
        return value + "-drifted"
    if isinstance(value, list):
        return value[:-1] + [value[-1] + 1]
    return value + 1


def test_payload_kind_detection():
    """A record names its kind in ``bench``: no key sniffing."""
    kinds = {p.stem: json.loads(p.read_text())["bench"] for p in RECORDS}
    assert kinds == {
        "BENCH_adaptive_perf": "adaptive",
        "BENCH_partition_perf": "partition",
        "BENCH_serve_perf": "serve",
        "BENCH_sim_perf": "sim",
        "BENCH_telemetry_overhead": "telemetry",
        "BENCH_widearea_perf": "widearea",
    }


def test_record_has_only_the_schema_keys(committed):
    assert set(committed) == {"bench", "scenario", *SECTIONS}


def test_self_compare_passes(committed):
    assert check(committed, committed) == []
    assert check(committed, committed, strict=True) == []
    assert format_problems([]) == "perf gate: OK"


def test_false_invariant_fails(committed):
    for name in committed["invariants"]:
        bad = copy.deepcopy(committed)
        bad["invariants"][name] = False
        problems = check(committed, bad)
        assert problems == [f"invariant {name} is false"]
        assert "REGRESSION DETECTED" in format_problems(problems)


def test_exact_drift_fails(committed):
    for name, value in committed["exact"].items():
        bad = copy.deepcopy(committed)
        bad["exact"][name] = _perturbed(value)
        assert check(committed, bad) == [
            f"{name} drifted: {value!r} -> {bad['exact'][name]!r}"
        ]


def test_bound_breach_always_fails(committed):
    for section in ("ratios", "absolute"):
        for name, metric in committed[section].items():
            if "bound" not in metric:
                continue
            bad = copy.deepcopy(committed)
            bad[section][name]["value"] = _worse(
                {"value": metric["bound"], "better": metric["better"]}, 1.5
            )
            # Breached even when the baseline is equally bad: the bound is
            # a within-run property of the current record.
            problems = check(bad, bad)
            side = "below committed floor" if metric["better"] == "higher" else "over budget"
            assert len(problems) == 1 and problems[0].startswith(f"{name} {side}:")


def test_ratio_drift_fails_only_beyond_factor(committed):
    for name, metric in committed["ratios"].items():
        for scale, fails in ((1.9, False), (2.1, True)):
            bad = copy.deepcopy(committed)
            bad["ratios"][name]["value"] = new = _worse(metric, scale)
            bad["ratios"][name].pop("bound", None)  # isolate the drift rule
            expected = [f"{name} regressed >2x: {metric['value']:g} -> {new:g}"]
            assert check(committed, bad) == (expected if fails else [])


def test_absolute_drift_fails_only_under_strict(committed):
    for name, metric in committed["absolute"].items():
        bad = copy.deepcopy(committed)
        bad["absolute"][name]["value"] = new = _worse(metric, 2.5)
        bad["absolute"][name].pop("bound", None)  # isolate the drift rule
        assert check(committed, bad) == []
        assert check(committed, bad, strict=True) == [
            f"{name} regressed >2x: {metric['value']:g} -> {new:g}"
        ]


def test_missing_name_fails(committed):
    for section in SECTIONS:
        for name in committed[section]:
            bad = copy.deepcopy(committed)
            del bad[section][name]
            assert check(committed, bad) == [
                f"{section} {name!r} missing from current payload"
            ]


def test_bench_mismatch_fails(committed):
    other = dict(committed, bench="other")
    assert check(committed, other) == [
        f"payload kinds differ: {committed['bench']} vs other"
    ]


def test_factor_must_exceed_one(committed):
    with pytest.raises(ValueError):
        check(committed, committed, factor=1.0)


def test_skipped_widearea_parity_fails_as_missing():
    from repro.partition.wideareabench import run_widearea, widearea_payload

    ran = widearea_payload(run_widearea((8,), repeat=1))
    skipped = widearea_payload(run_widearea((8,), repeat=1, parity=False))
    assert check(ran, skipped) == [
        "invariants 'parity_ok' missing from current payload"
    ]


def _run_script(*args):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *map(str, args)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )


def test_cli_script_on_committed_baseline(tmp_path):
    """The CI invocation, end to end: the committed record compared to
    itself passes, and a collapsed speedup exits non-zero."""
    baseline = REPO_ROOT / "BENCH_partition_perf.json"
    ok = _run_script(baseline, baseline, "--factor", "2.0")
    assert ok.returncode == 0, ok.stdout + ok.stderr
    assert "perf gate: OK" in ok.stdout

    bad = json.loads(baseline.read_text())
    bad["ratios"]["speedup_array_over_scalar"]["value"] /= 10.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    fail = _run_script(baseline, bad_path)
    assert fail.returncode == 1
    assert "REGRESSION DETECTED" in fail.stdout


def test_ci_bench_matrix_covers_every_committed_record():
    """One ``bench`` matrix entry per committed record, each with its
    benchmark test (read as text: PyYAML is not a test dependency)."""
    text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    match = re.search(r"^\s+bench:\s*\[([^\]]*)\]", text, re.MULTILINE)
    assert match, "ci.yml has no bench matrix"
    listed = sorted(s.strip() for s in match.group(1).split(","))
    stems = [p.stem.removeprefix("BENCH_") for p in RECORDS]
    assert listed == stems
    for stem in stems:
        assert (REPO_ROOT / "benchmarks" / f"test_bench_{stem}.py").is_file(), stem


# --- Named verdicts on particular records ---------------------------------


def _load(stem):
    return json.loads((REPO_ROOT / f"BENCH_{stem}.json").read_text())


def _set(record, section, name, value):
    """A copy of ``record`` with one gated value replaced."""
    out = copy.deepcopy(record)
    if section in ("ratios", "absolute"):
        out[section][name]["value"] = value
    else:
        out[section][name] = value
    return out


def _has(problems, text):
    return any(text in p for p in problems)


SPEEDUP = ("ratios", "speedup_array_over_scalar")


def test_identical_payloads_pass():
    base = _load("partition_perf")
    assert check(base, copy.deepcopy(base)) == []
    assert format_problems([]) == "perf gate: OK"


def test_small_speedup_wobble_passes():
    base = _set(_load("partition_perf"), *SPEEDUP, 250.0)
    assert check(base, _set(base, *SPEEDUP, 130.0)) == []


def test_speedup_collapse_beyond_factor_fails():
    base = _set(_load("partition_perf"), *SPEEDUP, 250.0)
    problems = check(base, _set(base, *SPEEDUP, 120.0))
    assert problems == ["speedup_array_over_scalar regressed >2x: 250 -> 120"]
    assert "REGRESSION" in format_problems(problems)


def test_array_floor_breach_always_fails():
    # Breached even when the baseline itself is already below the floor.
    slow = _set(_load("partition_perf"), *SPEEDUP, 90.0)
    assert check(slow, slow) == [
        "speedup_array_over_scalar below committed floor: 90 < 100"
    ]


def test_decision_drift_always_fails():
    base = _load("partition_perf")
    problems = check(base, _set(base, "exact", "array.decision", [8, 8, 0]))
    assert _has(problems, "array.decision drifted")


def test_throughput_only_gated_in_strict_mode():
    base = _load("partition_perf")
    rate = base["absolute"]["array.configs_per_s"]["value"]
    slow = _set(base, "absolute", "array.configs_per_s", rate / 7.5)
    assert check(base, slow) == []
    assert _has(check(base, slow, strict=True), "array.configs_per_s regressed")


def test_missing_engine_fails():
    base = _load("partition_perf")
    current = copy.deepcopy(base)
    for section in SECTIONS:
        for name in [n for n in current[section] if n.startswith("scalar.")]:
            del current[section][name]
    assert _has(check(base, current), "'scalar.decision' missing")


def test_factor_validation():
    base = _load("partition_perf")
    with pytest.raises(ValueError):
        check(base, base, factor=1.0)


def test_identical_sim_payloads_pass():
    base = _load("sim_perf")
    assert check(base, copy.deepcopy(base)) == []


def test_sim_parity_breakage_always_fails():
    base = _load("sim_perf")
    problems = check(base, _set(base, "invariants", "parity_ok", False))
    assert problems == ["invariant parity_ok is false"]
    problems = check(base, _set(base, "invariants", "grid.parity_ok", False))
    assert problems == ["invariant grid.parity_ok is false"]


def test_sim_clock_drift_always_fails():
    base = _load("sim_perf")
    current = base
    for mode in ("event", "fast"):
        name = f"{mode}.clock_ms"
        current = _set(current, "exact", name, base["exact"][name] + 0.1)
    assert sum("clock_ms drifted" in p for p in check(base, current)) == 2


def test_sim_speedup_collapse_beyond_factor_fails():
    name = "speedup_fast_over_event"
    base = _set(_load("sim_perf"), "ratios", name, 70.0)
    assert check(base, _set(base, "ratios", name, 40.0)) == []
    assert _has(check(base, _set(base, "ratios", name, 30.0)), f"{name} regressed")
    grid = _set(base, "ratios", "grid.speedup", 20.0)
    assert _has(check(grid, _set(grid, "ratios", "grid.speedup", 5.0)), "grid.speedup regressed")


def test_sim_throughput_only_gated_in_strict_mode():
    base = _load("sim_perf")
    rate = base["absolute"]["fast.cycles_per_s"]["value"]
    slow = _set(base, "absolute", "fast.cycles_per_s", rate / 7.0)
    assert check(base, slow) == []
    assert _has(check(base, slow, strict=True), "fast.cycles_per_s regressed")


def test_sim_factor_validation():
    base = _load("sim_perf")
    with pytest.raises(ValueError):
        check(base, base, factor=0.5)


def test_cli_script_on_committed_sim_baseline(tmp_path):
    """The CI invocation for the sim record: self-comparison passes,
    broken parity exits non-zero, mismatched kinds exit non-zero."""
    baseline = REPO_ROOT / "BENCH_sim_perf.json"
    ok = _run_script(baseline, baseline)
    assert ok.returncode == 0, ok.stdout + ok.stderr

    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(_set(_load("sim_perf"), "invariants", "parity_ok", False)))
    fail = _run_script(baseline, bad_path)
    assert fail.returncode == 1 and "REGRESSION" in fail.stdout

    mixed = _run_script(REPO_ROOT / "BENCH_partition_perf.json", baseline)
    assert mixed.returncode == 1 and "payload kinds differ" in mixed.stdout


OVERHEAD = ("ratios", "overhead_ratio")


def test_identical_telemetry_payloads_pass():
    base = _load("telemetry_overhead")
    assert check(base, copy.deepcopy(base)) == []


def test_telemetry_budget_breach_always_fails():
    base = _load("telemetry_overhead")
    assert _has(check(base, _set(base, *OVERHEAD, 30.0)), "overhead_ratio over budget")


def test_telemetry_ratio_regression_beyond_factor_fails():
    # 1.6x -> 2.4x is within the 2x factor; 1.6x -> 4.0x is not.
    base = _set(_load("telemetry_overhead"), *OVERHEAD, 1.6)
    assert check(base, _set(base, *OVERHEAD, 2.4)) == []
    assert _has(check(base, _set(base, *OVERHEAD, 4.0)), "overhead_ratio regressed >2x")


def test_telemetry_absolute_cost_only_gated_in_strict_mode():
    base = _load("telemetry_overhead")
    cost = base["absolute"]["enabled_inc_ns"]["value"]
    slow = _set(base, "absolute", "enabled_inc_ns", cost * 10)  # slower machine
    assert check(base, slow) == []
    assert _has(check(base, slow, strict=True), "enabled_inc_ns regressed")


def test_telemetry_missing_sections_are_problems():
    base = _load("telemetry_overhead")
    assert check(base, dict(base, ratios={})) == [
        "ratios 'overhead_ratio' missing from current payload"
    ]
    assert check(base, {}) == ["payload kinds differ: telemetry vs None"]


def test_telemetry_factor_must_exceed_one():
    base = _load("telemetry_overhead")
    with pytest.raises(ValueError):
        check(base, base, factor=1.0)


SERVE_SPEEDUP = ("ratios", "speedup_vs_baseline")


def test_cli_script_on_committed_serve_baseline():
    baseline = REPO_ROOT / "BENCH_serve_perf.json"
    ok = _run_script(baseline, baseline)
    assert ok.returncode == 0, ok.stdout + ok.stderr


def test_identical_serve_payloads_pass():
    base = _load("serve_perf")
    assert check(base, copy.deepcopy(base)) == []


def test_serve_parity_breakage_always_fails():
    base = _load("serve_perf")
    problems = check(base, _set(base, "invariants", "parity_ok", False))
    assert problems == ["invariant parity_ok is false"]


def test_serve_error_replies_always_fail():
    base = _load("serve_perf")
    problems = check(base, _set(base, "invariants", "all_replies_ok", False))
    assert problems == ["invariant all_replies_ok is false"]


def test_serve_floor_breach_always_fails():
    # Breached even when the baseline itself is already below the floor.
    slow = _set(_load("serve_perf"), *SERVE_SPEEDUP, 4.0)
    assert _has(check(slow, slow), "speedup_vs_baseline below committed floor")


def test_serve_speedup_collapse_beyond_factor_fails():
    base = _set(_load("serve_perf"), *SERVE_SPEEDUP, 30.0)
    assert check(base, _set(base, *SERVE_SPEEDUP, 16.0)) == []
    problems = check(base, _set(base, *SERVE_SPEEDUP, 14.0))
    assert _has(problems, "speedup_vs_baseline regressed >2x")


def test_serve_coalesce_collapse_beyond_factor_fails():
    base = _set(_load("serve_perf"), "ratios", "coalesce_ratio", 500.0)
    problems = check(base, _set(base, "ratios", "coalesce_ratio", 100.0))
    assert _has(problems, "coalesce_ratio regressed")


def test_serve_absolutes_only_gated_in_strict_mode():
    # Same within-run ratios, slower machine: passes by default.
    base = _load("serve_perf")
    dps = base["absolute"]["decisions_per_s"]["value"]
    p99 = base["absolute"]["p99_ms"]["value"]
    slow = _set(_set(base, "absolute", "decisions_per_s", dps / 10), "absolute", "p99_ms", p99 * 10)
    assert check(base, slow) == []
    problems = check(base, slow, strict=True)
    assert _has(problems, "decisions_per_s regressed")
    assert _has(problems, "p99_ms regressed")


def test_serve_missing_sections_are_problems():
    base = _load("serve_perf")
    assert check(base, dict(base, invariants={})) == [
        "invariants 'all_replies_ok' missing from current payload",
        "invariants 'parity_ok' missing from current payload",
    ]
    assert check({}, base) == ["payload kinds differ: None vs serve"]
