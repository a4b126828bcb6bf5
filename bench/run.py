"""The repository benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload decide-widearea --seed 1 --seconds 10 --trace 0

Workloads (see ``NOTES.md`` for why each exists):

* ``serve-mix`` — a ``repro serve`` process under a closed-loop
  multi-tenant request mix;
* ``decide-widearea`` — cold collapsed decisions on fresh wide-area pools;
* ``supervise-churn`` — supervised runs under node failures and load churn.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` repeats the
run with wrappers around each layer's public calls and reports the
per-layer metrics.  Every run checks the program's outputs.  The last
line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import measure  # noqa: E402
import ops as opsmod  # noqa: E402
import tracer as tracermod  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Per-operation latency percentile reported as ``latency_tail_ms``.
TAIL_SHARE = {"serve-mix": 0.99, "decide-widearea": 0.90, "supervise-churn": 0.90}
WORKER_TIMEOUT_S = 170.0

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


def _worker(args, mode: str, trace_out: Path | None = None) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--t0", repr(time.monotonic()),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker ({mode}) timed out") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker ({mode}) exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_in_process(args) -> dict:
    """decide-widearea / supervise-churn: a worker per set-up sample."""
    if args.trace:
        trace_out = OUT_DIR / f"spans-{args.workload}.jsonl"
        report = _worker(args, "trace", trace_out)
        return {
            "report": report,
            "layers": report["layers"],
            "absent": report["absent"],
            "attempted": 2 * len(report["latencies"]),
            "failed": report["failed"] + report["traced_failed"],
        }
    setups = [_worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    report = _worker(args, "run")
    setups.append(report["setup_s"])
    return {
        "report": report,
        "setups": setups,
        "attempted": len(report["latencies"]),
        "failed": report["failed"],
    }


def run_serve(args) -> dict:
    import serveclient

    env = _env()
    timed = opsmod.serve_windows(args.seed, args.seconds)
    if args.trace:
        plain = serveclient.serve_session(ROOT, env, timed)
        trace_out = OUT_DIR / "spans-serve-mix.jsonl"
        traced = serveclient.serve_session(ROOT, env, timed, trace_out=trace_out)
        overhead = measure.scaled_wall(traced["windows"]) / measure.scaled_wall(plain["windows"])
        layers, absent = serveclient.serve_layers(trace_out, traced, overhead)
        report = _serve_report(args, plain)
        traced_replies = [r for w in traced["driven"] for r in w["replies"]]
        return {
            "report": report,
            "layers": layers,
            "absent": absent,
            "attempted": report["attempted"] + len(traced_replies),
            "failed": report["failed"] + sum(not serveclient.served_ok(r) for r in traced_replies),
        }
    setups = [
        serveclient.serve_session(ROOT, env, timed, warmup_only=True)["setup_s"]
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = serveclient.serve_session(ROOT, env, timed)
    setups.append(result["setup_s"])
    report = _serve_report(args, result)
    return {
        "report": report,
        "setups": setups,
        "attempted": report["attempted"],
        "failed": report["failed"],
    }


def _serve_report(args, result: dict) -> dict:
    """Checks cover every request driven; the metrics, the kept sub-windows."""
    import serveclient

    driven = result["driven"]
    requests = [r for w in driven for r in w["requests"]]
    replies = [r for w in driven for r in w["replies"]]
    ok = [serveclient.served_ok(r) for r in replies]
    sources: dict[str, int] = {}
    for r in replies:
        if r is not None:
            key = str(r.get("served_from", r.get("error", {}).get("kind")))
            sources[key] = sources.get(key, 0) + 1
    windows = result["windows"]
    return {
        "latencies": [lat for w in windows for lat in w["latencies"]],
        "windows": windows,
        "labels": ["fresh" if r.fresh else "hot" for w in windows for r in w["requests"]],
        "window_s": sum(w["wall_s"] for w in driven),
        "cpu_s": result["cpu_s"],
        "steal_s": result["steal_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "attempted": len(replies),
        "failed": ok.count(False),
        "checks": {
            "all_replies_ok": all(ok),
            "served_parity": serveclient.parity_check(args.seed, requests, replies),
        },
        "info": {
            "served_from": sources,
            "stolen_per_sub_window": [round(w["stolen"], 4) for w in driven],
        },
    }


def end_to_end(workload: str, report: dict, setups: list[float]) -> dict:
    # serve-mix has samples enough for each sub-window's own p99; the
    # in-process workloads take their percentiles over the whole run.
    timing = measure.window_metrics(
        report["windows"], TAIL_SHARE[workload], per_window=workload == "serve-mix"
    )
    return {
        "latency_p50_ms": timing["p50_s"] * 1e3,
        "latency_tail_ms": timing["tail_s"] * 1e3,
        "throughput_per_s": timing["throughput_per_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": measure.median(setups),
    }


def _describe(args, outcome: dict, metrics: dict) -> list[str]:
    report = outcome["report"]
    lat = report["latencies"]
    tail = TAIL_SHARE[args.workload]
    per_window = len(lat) // measure.CHUNKS
    if args.workload == "serve-mix":
        basis = (
            f"p50 and p{tail * 100:g} per sub-window of {per_window} requests "
            f"({per_window - math.ceil(tail * per_window)} beyond), median of "
            f"{measure.CHUNKS}"
        )
    else:
        basis = (
            f"p50 and p{tail * 100:g} over all {len(lat)} "
            f"({len(lat) - math.ceil(tail * len(lat))} beyond)"
        )
    lines = [
        f"{args.workload} seed={args.seed} trace={args.trace}: {len(lat)} operations "
        f"in {report['window_s']:.2f} s, closed loop; {basis}; throughput median "
        f"of {measure.CHUNKS} sub-windows"
    ]
    strata: dict[str, list[float]] = {}
    for label, value in zip(report["labels"], lat):
        strata.setdefault(label, []).append(value)
    lines.append(
        "  stratum medians (measured): "
        + ", ".join(
            f"{label} {measure.median(v) * 1e3:.1f} ms (n={len(v)})"
            for label, v in strata.items()
        )
    )
    factors = [w["factor"] for w in report["windows"]]
    lines.append(
        f"  noise: host steal {report['steal_s']:.2f} s, working-process cpu "
        f"{report['cpu_s']:.2f} s over a {report['window_s']:.2f} s window; "
        "speed factor per sub-window " + " ".join(f"{f:.3f}" for f in factors)
    )
    checks = ", ".join(f"{k}={'ok' if v else 'FAILED'}" for k, v in report["checks"].items())
    lines.append(f"  checks: {checks}; {json.dumps(report['info'])}")
    if "setups" in outcome:
        lines.append("  setup samples (s): " + " ".join(f"{t:.3f}" for t in outcome["setups"]))
    if outcome.get("absent"):
        lines.append("  absent wrapper targets: " + ", ".join(outcome["absent"]))
    for name, value in metrics.items():
        lines.append(f"  {name} = {value['value']:.6g} {value['unit']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=opsmod.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro").is_dir():
        print(f"benchmark: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 1
    OUT_DIR.mkdir(exist_ok=True)
    try:
        if args.workload == "serve-mix":
            outcome = run_serve(args)
        else:
            outcome = run_in_process(args)
        report = outcome["report"]
        if args.trace:
            units = {name: unit for name, unit, _ in tracermod.PER_LAYER}
            values = outcome["layers"]
        else:
            units = dict(END_TO_END)
            values = end_to_end(args.workload, report, outcome["setups"])
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}
    correct = all(report["checks"].values()) and outcome["failed"] == 0
    for line in _describe(args, outcome, metrics):
        print(line)
    record = OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(
        json.dumps(
            {
                "noise": {k: report[k] for k in ("steal_s", "cpu_s", "window_s")},
                "speed_factors": [w["factor"] for w in report["windows"]],
                "setups": outcome.get("setups"),
                "checks": report["checks"],
                "info": report["info"],
                "metrics": metrics,
            },
            indent=1,
        )
    )
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(outcome["attempted"]),
                "failed": int(outcome["failed"]),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
