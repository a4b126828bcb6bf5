"""Command-line interface: regenerate the paper's artifacts.

::

    python -m repro table1            # partitioning decisions (Table 1)
    python -m repro table2            # elapsed-time grid + stars (Table 2)
    python -m repro fig3 --n 300      # the T_c(P) curve
    python -m repro calibrate         # fitted vs published cost functions
    python -m repro ablations         # decomposition/ordering/placement
    python -m repro all -o report.txt # everything, also written to a file
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Optional, Sequence

__all__ = ["main", "build_parser"]


def _table1(args) -> str:
    from repro.experiments import fitted_cost_database, paper_cost_database, table1_report

    if args.source == "paper":
        return table1_report(paper_cost_database(), source="paper")
    if args.source == "fitted":
        return table1_report(fitted_cost_database(), source="fitted")
    return (
        table1_report(paper_cost_database(), source="paper")
        + "\n\n"
        + table1_report(fitted_cost_database(), source="fitted")
    )


def _table2(args) -> str:
    from repro.experiments import reproduce_table2, table2_report

    repro_ = reproduce_table2(workers=getattr(args, "workers", None))
    text = table2_report(repro_)
    return text + f"\n\nprediction hits: {repro_.prediction_hits()}/{repro_.rows_count()} rows"


def _fig3(args) -> str:
    from repro.experiments import fig3_report

    sizes = [args.n] if args.n else [60, 300, 1200]
    workers = getattr(args, "workers", None)
    return "\n\n".join(
        fig3_report(n, overlap=args.overlap, workers=workers) for n in sizes
    )


def _calibrate(args) -> str:
    from repro.experiments import calibration_report

    return calibration_report()


def _ablations(args) -> str:
    from repro.experiments import ablation_report

    return ablation_report()


def _accuracy(args) -> str:
    from repro.experiments import accuracy_report

    return accuracy_report()


def _sensitivity(args) -> str:
    from repro.experiments import sensitivity_report

    return sensitivity_report(workers=getattr(args, "workers", None))


def _timeline(args) -> str:
    from repro.apps.stencil import run_stencil
    from repro.experiments import ascii_timeline
    from repro.hardware.presets import paper_testbed
    from repro.mmps import MMPS
    from repro.partition import balanced_partition_vector

    net = paper_testbed()
    mmps = MMPS(net)
    p1, p2 = args.p1, args.p2
    procs = list(net.cluster("sparc2"))[:p1] + list(net.cluster("ipc"))[:p2]
    vec = balanced_partition_vector([0.3] * p1 + [0.6] * p2, args.n)
    result = run_stencil(
        mmps, procs, vec, args.n, iterations=args.iterations, overlap=args.overlap
    )
    variant = "STEN-2" if args.overlap else "STEN-1"
    return ascii_timeline(
        result.run, title=f"{variant} N={args.n} on ({p1},{p2})"
    )


def _speedup(args) -> str:
    from repro.experiments import speedup_report

    return speedup_report(workers=getattr(args, "workers", None))


def _multiapp(args) -> str:
    from repro.experiments.multiapp import multiapp_report

    return multiapp_report(workers=getattr(args, "workers", None))


def _bench_telemetry(args):
    """A live telemetry sink when ``--metrics-out`` is set, else ``None``."""
    if not getattr(args, "metrics_out", None):
        return None
    from repro.telemetry import MetricsRegistry, Telemetry

    return Telemetry(metrics=MetricsRegistry())


def _write_record(args, payload: dict, text: str, tel=None) -> str:
    """Write a benchmark record to ``--json`` and its gated numbers to
    ``--metrics-out``.

    The dump gets one host-domain gauge ``bench.<bench>.<name>`` per
    invariant (as 0/1), ratio and absolute value; instruments already
    registered on ``tel`` (engine, server) land in the same dump.
    """
    if args.json:
        import json

        with open(args.json, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        text += f"\n\n[json written to {args.json}]"
    if tel is None:
        tel = _bench_telemetry(args)
    if tel is not None:
        values = {name: int(ok) for name, ok in payload["invariants"].items()}
        for section in ("ratios", "absolute"):
            values.update((name, m["value"]) for name, m in payload[section].items())
        for name, value in values.items():
            tel.metrics.gauge(f"bench.{payload['bench']}.{name}", domain="host").set(value)
        tel.dump(args.metrics_out, meta={"command": args.command})
        text += f"\n[metrics written to {args.metrics_out}]"
    return text


def _bench_partition(args) -> str:
    from repro.partition.perfbench import perf_payload, perf_report, run_perf

    cmp = run_perf(tuple(args.clusters), n=args.n, repeat=args.repeat)
    return _write_record(args, perf_payload(cmp), perf_report(cmp))


def _bench_widearea(args) -> str:
    from repro.partition.wideareabench import (
        DEFAULT_SIZES,
        QUICK_SIZES,
        run_widearea,
        widearea_payload,
        widearea_report,
    )

    # The decide.collapse.* instruments the engines register land in the
    # same dump as the bench gauges, so `repro metrics-summary` shows both.
    tel = _bench_telemetry(args)
    if args.sizes:
        sizes = tuple(args.sizes)
    else:
        sizes = QUICK_SIZES if args.quick else DEFAULT_SIZES
    bench = run_widearea(
        sizes,
        n=args.n,
        repeat=1 if args.quick else args.repeat,
        seed=args.seed,
        metrics=None if tel is None else tel.metrics,
    )
    return _write_record(args, widearea_payload(bench), widearea_report(bench), tel)


def _serve(args) -> str:
    import asyncio

    from repro.server.admission import AdmissionLimits
    from repro.server.service import PartitionServer, ServerConfig, resolve_pool
    from repro.telemetry import MetricsRegistry, Telemetry

    tel = Telemetry(metrics=MetricsRegistry())
    net, cost_db = resolve_pool(args.pool, seed=args.seed)
    config = ServerConfig(
        batch_window_ms=args.batch_window_ms,
        limits=AdmissionLimits(
            max_inflight=args.max_inflight,
            max_queue=args.max_queue,
            tenant_rate=args.tenant_rate,
        ),
        cache_entries=args.cache_entries,
        max_requests=args.max_requests,
    )
    server = PartitionServer.for_network(
        net, cost_db, config=config, metrics=tel.metrics
    )

    async def _main() -> None:
        metrics_http = None
        if args.metrics_port is not None:
            from repro.server.metricshttp import MetricsHTTPServer

            metrics_http = MetricsHTTPServer(tel.metrics)
            mhost, mport = await metrics_http.start(args.host, args.metrics_port)
            print(f"[serve] metrics at http://{mhost}:{mport}/metrics", flush=True)

        def _announce(host: str, port: int) -> None:
            # Flushed immediately so wrappers (the CI smoke job) can wait
            # for readiness and scrape the bound port.
            print(
                f"[serve] listening on {host}:{port} "
                f"(pool {args.pool}, {len(server.base)} clusters)",
                flush=True,
            )

        try:
            await server.serve_until_shutdown(
                args.host, args.port, on_started=_announce
            )
        finally:
            if metrics_http is not None:
                await metrics_http.close()

    asyncio.run(_main())
    stats = server.coalescer.stats
    text = (
        f"served {server.served} requests "
        f"({stats.searches} fresh searches, {stats.memo_hits} memo hits, "
        f"{stats.fanned_out} fanned out; "
        f"{server.admission.shed_overloaded + server.admission.shed_rate_limited} shed)"
    )
    if getattr(args, "metrics_out", None):
        tel.dump(args.metrics_out, meta={"command": "serve"})
        text += f"\n[metrics written to {args.metrics_out}]"
    return text


def _bench_serve(args) -> str:
    from repro.server.servebench import (
        DEFAULT_CLIENTS,
        QUICK_CLIENTS,
        run_serve_bench,
        serve_payload,
        serve_report,
    )

    # The serve.* instruments the server registers land in the same dump.
    tel = _bench_telemetry(args)
    if args.clients is not None:
        clients = args.clients
    else:
        clients = QUICK_CLIENTS if args.quick else DEFAULT_CLIENTS
    bench = run_serve_bench(
        clients=clients,
        requests_per_client=args.requests,
        pool=args.pool,
        n=args.n,
        batch_window_ms=args.batch_window_ms,
        metrics=None if tel is None else tel.metrics,
    )
    return _write_record(args, serve_payload(bench), serve_report(bench), tel)


def _run_dynamic(args) -> str:
    import json

    from repro.apps.stencil import stencil_computation
    from repro.experiments.paper import paper_cost_database
    from repro.hardware.presets import paper_testbed
    from repro.partition.runtime import ManualClock, PartitionRuntime, RuntimePolicy
    from repro.sim.failures import FailureSchedule, LoadSchedule

    metrics_out = getattr(args, "metrics_out", None)

    def supervised(failures=None, loads=None, instrument=False):
        from repro.telemetry import Telemetry

        clock = ManualClock()
        tel = (
            Telemetry.for_sim(lambda: clock.now)
            if (instrument and metrics_out)
            else None
        )
        runtime = PartitionRuntime(
            paper_testbed(),
            stencil_computation(args.n, overlap=False, cycles=1),
            paper_cost_database(),
            policy=RuntimePolicy(
                imbalance_threshold=args.threshold,
                adaptive=args.adaptive,
                slowdown_research=args.slowdown_research,
                hysteresis_k=args.hysteresis_k,
                clear_threshold=args.clear_threshold,
                migrate_k=args.migrate_k,
                divergence_bound=args.divergence_bound,
            ),
            clock=clock,
            failures=failures,
            loads=loads,
            telemetry=tel,
        )
        return runtime.run(args.epochs), tel, clock

    # Metrics instrument the run being studied: the perturbed run when a
    # failure or load schedule is requested, otherwise the clean run itself.
    will_inject = (
        args.fail_at is not None or args.mtbf is not None or args.load_at is not None
    )
    clean, tel, clock = supervised(instrument=not will_inject)
    schedule = None
    if args.fail_at is not None:
        # Default victim: the second rank of the bootstrap decomposition —
        # deterministic and guaranteed to be doing work when it dies.
        victims = args.kill if args.kill else [clean.final_proc_ids[1]]
        schedule = FailureSchedule.fail_at(args.fail_at, victims)
    elif args.mtbf is not None:
        schedule = FailureSchedule.from_mtbf(
            list(clean.final_proc_ids[1:]),
            mtbf_epochs=args.mtbf,
            horizon_epochs=args.epochs,
            seed=args.seed,
            max_failures=args.max_failures,
        )
    loads = None
    if args.load_at is not None:
        # Same default-victim rule as --fail-at, but the node slows down
        # instead of dying — the signal the adaptive controller watches.
        slow = args.slow if args.slow else [clean.final_proc_ids[1]]
        loads = LoadSchedule(
            tuple(
                event
                for pid in slow
                for event in LoadSchedule.step(
                    pid, at_epoch=args.load_at, load=args.load
                ).events
            )
        )

    lines = [
        f"supervised run: STEN-1 N={args.n}, {args.epochs} epochs",
        f"clean: answer={clean.answer} elapsed={clean.elapsed_ms:.2f} ms "
        f"vector={list(clean.final_vector)}",
    ]
    if schedule is None and loads is None:
        lines.append(
            "no perturbation schedule (use --fail-at, --mtbf, or --load-at)"
        )
        result = clean
    else:
        result, tel, clock = supervised(
            failures=schedule, loads=loads, instrument=True
        )
        parity = "ok" if result.answer == clean.answer else "BROKEN"
        if schedule is not None:
            lines.append(
                f"failures: {[(e.at_epoch, e.proc_id) for e in schedule.events]}"
            )
        if loads is not None:
            lines.append(
                "loads: "
                f"{[(e.at_epoch, e.proc_id, e.load) for e in loads.events]}"
            )
        lines += [
            f"perturbed: answer={result.answer} elapsed={result.elapsed_ms:.2f} ms "
            f"vector={list(result.final_vector)}",
            f"answer parity: {parity}",
            f"repartitions={result.repartitions} moved_pdus={result.moved_pdus_total} "
            f"replayed_pdus={result.replayed_pdus}",
        ]
        if args.adaptive:
            stats = result.adaptive_stats
            lines.append(
                "adaptive: "
                + " ".join(f"{key}={stats[key]}" for key in sorted(stats))
            )
        lines += ["", "audit trail:"]
        lines += [
            "  " + json.dumps(record) for record in result.audit.to_records()
        ]
        if result.answer != clean.answer:
            raise SystemExit("\n".join(lines))
    if args.validate_cycles:
        from repro.experiments.resilience import validate_decomposition

        report = validate_decomposition(
            result.final_proc_ids,
            result.final_vector,
            args.n,
            args.validate_cycles,
            mode=args.engine,
            telemetry=tel,
        )
        lines.append(
            f"validation ({args.engine}): {report.cycles} cycles, "
            f"probed={report.probed_cycles} "
            f"fast_forwarded={report.fast_forwarded_cycles} "
            f"clock={report.clock_ms:.2f} ms"
        )
    if args.audit_json:
        with open(args.audit_json, "w") as fh:
            json.dump(result.audit.to_records(), fh, indent=2)
            fh.write("\n")
        lines.append(f"[audit trail written to {args.audit_json}]")
    if metrics_out:
        tel.dump(
            metrics_out,
            stamp=clock.now,
            meta={
                "command": "run-dynamic",
                "n": args.n,
                "epochs": args.epochs,
                "engine": args.engine,
                "validate_cycles": args.validate_cycles,
            },
        )
        lines.append(f"[metrics written to {metrics_out}]")
    return "\n".join(lines)


def _lint(args) -> tuple:
    from pathlib import Path

    from repro.analysis import LintError, REPORTERS, analyze_paths

    def _split(values):
        out = []
        for value in values or []:
            out.extend(part.strip() for part in value.split(",") if part.strip())
        return out or None

    cache_path = None
    if not args.no_cache:
        cache_path = Path(args.cache)
    try:
        findings = analyze_paths(
            [Path(p) for p in (args.paths or ["src"])],
            select=_split(args.select),
            ignore=_split(args.ignore),
            exclude=_split(args.exclude),
            cache_path=cache_path,
        )
    except LintError as exc:
        raise SystemExit(f"repro lint: {exc}")
    text = REPORTERS[args.format](findings)
    return text, (1 if findings else 0)


def _resilience(args) -> str:
    from repro.experiments import resilience_report

    tel = None
    if getattr(args, "metrics_out", None):
        from repro.telemetry import MetricsRegistry, Telemetry

        tel = Telemetry(metrics=MetricsRegistry())
    text = resilience_report(
        n=args.n,
        epochs=args.epochs,
        mtbf_epochs=args.mtbf,
        seed=args.seed,
        workers=getattr(args, "workers", None),
        validate_cycles=args.validate_cycles,
        validate_mode=args.validate_mode,
        telemetry=tel,
    )
    if tel is not None:
        tel.dump(args.metrics_out, meta={"command": "resilience"})
        text += f"\n[metrics written to {args.metrics_out}]"
    return text


def _churn(args) -> str:
    from repro.experiments.resilience import churn_payload, churn_report

    tel = _bench_telemetry(args)
    text, rows = churn_report(
        n=args.n,
        epochs=args.epochs,
        workers=getattr(args, "workers", None),
        telemetry=tel,
    )
    if any(not row.answer_parity for row in rows):
        raise SystemExit(text + "\nchurn: answer parity BROKEN")
    return _write_record(args, churn_payload(rows, n=args.n), text, tel)


def _bench_sim(args) -> str:
    from repro.experiments.simbench import (
        run_sim_perf,
        sim_perf_payload,
        sim_perf_report,
    )

    cmp = run_sim_perf(
        n=args.n,
        cycles=args.cycles,
        config=(args.p1, args.p2),
        repeat=args.repeat,
        grid=not args.no_grid,
        grid_n=args.grid_n,
        grid_epochs=args.grid_epochs,
        grid_cycles=args.grid_cycles,
        workers=getattr(args, "workers", None),
    )
    return _write_record(args, sim_perf_payload(cmp), sim_perf_report(cmp))


def _metrics_summary(args) -> str:
    from repro.telemetry import prometheus_text, read_jsonl, summary_table

    data = read_jsonl(args.file)
    if args.format == "prom":
        return prometheus_text(data["metrics"]).rstrip("\n")
    return summary_table(data)


def _all(args) -> str:
    sections = [
        _calibrate(args),
        _table1(argparse.Namespace(source="both")),
        _table2(args),
        _fig3(argparse.Namespace(n=None, overlap=False)),
        _ablations(args),
        _accuracy(args),
        _sensitivity(args),
        _speedup(args),
    ]
    return "\n\n".join(sections)


def _add_workers_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="fan simulations out across N processes (default: serial)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The :mod:`argparse` command tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce Weissman & Grimshaw (HPDC 1994): tables, figures, calibration.",
    )
    parser.add_argument(
        "-o", "--output", metavar="FILE", help="also write the report to FILE"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("table1", help="Table 1: partitioning decisions")
    p1.add_argument(
        "--source",
        choices=("paper", "fitted", "both"),
        default="both",
        help="which cost functions drive the partitioner",
    )
    p1.set_defaults(func=_table1)

    p2 = sub.add_parser("table2", help="Table 2: simulated elapsed-time grid")
    _add_workers_flag(p2)
    p2.set_defaults(func=_table2)

    p3 = sub.add_parser("fig3", help="Fig 3: the T_c(P) curve")
    p3.add_argument("--n", type=int, default=None, help="problem size (default: 60, 300, 1200)")
    p3.add_argument("--overlap", action="store_true", help="use STEN-2 instead of STEN-1")
    _add_workers_flag(p3)
    p3.set_defaults(func=_fig3)

    p4 = sub.add_parser("calibrate", help="offline cost-function fitting report")
    p4.set_defaults(func=_calibrate)

    p5 = sub.add_parser("ablations", help="decomposition/ordering/placement ablations")
    p5.set_defaults(func=_ablations)

    p6 = sub.add_parser("all", help="every artifact in one report")
    p6.set_defaults(func=_all)

    p7 = sub.add_parser("accuracy", help="E11: cost-model accuracy grid")
    p7.set_defaults(func=_accuracy)

    p8 = sub.add_parser("sensitivity", help="E12: decision sensitivity to constant error")
    _add_workers_flag(p8)
    p8.set_defaults(func=_sensitivity)

    p10 = sub.add_parser("speedup", help="E14: speedup/efficiency per application")
    _add_workers_flag(p10)
    p10.set_defaults(func=_speedup)

    p11 = sub.add_parser("multiapp", help="E15: decision quality across all applications")
    _add_workers_flag(p11)
    p11.set_defaults(func=_multiapp)

    p12 = sub.add_parser(
        "bench-partition",
        help="time the exhaustive oracle: scalar reference vs array engine",
    )
    p12.add_argument(
        "--clusters",
        type=int,
        nargs="+",
        default=[8, 8, 8],
        metavar="SIZE",
        help="processors per synthetic cluster (default: 8 8 8)",
    )
    p12.add_argument("--n", type=int, default=600, help="stencil problem size")
    p12.add_argument("--repeat", type=int, default=3, help="timing repeats per engine")
    p12.add_argument(
        "--json", metavar="FILE", help="also write the machine-readable record to FILE"
    )
    p12.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write headline gauges as a telemetry JSONL export",
    )
    p12.set_defaults(func=_bench_partition)

    p19 = sub.add_parser(
        "bench-widearea",
        help="time equivalence-class collapsed decisions on wide-area pools",
    )
    p19.add_argument(
        "--sizes",
        type=int,
        nargs="+",
        default=None,
        metavar="SITES",
        help="pool sizes in logical clusters (default: 64 256 1000)",
    )
    p19.add_argument("--n", type=int, default=6000, help="stencil problem size")
    p19.add_argument("--repeat", type=int, default=3, help="timing repeats per size")
    p19.add_argument("--seed", type=int, default=7, help="pool template seed")
    p19.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: 64/256-site pools, one repeat",
    )
    p19.add_argument(
        "--json", metavar="FILE", help="also write the machine-readable record to FILE"
    )
    p19.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write headline gauges plus the decide.collapse.* instruments "
        "as a telemetry JSONL export",
    )
    p19.set_defaults(func=_bench_widearea)

    p20 = sub.add_parser(
        "serve",
        help="run the multi-tenant NDJSON partition decision server",
    )
    p20.add_argument("--host", default="127.0.0.1", help="bind address")
    p20.add_argument("--port", type=int, default=7641, help="TCP port (0 = ephemeral)")
    p20.add_argument(
        "--pool",
        default="paper",
        help="resource pool: 'paper', 'wide:K', or 'synthetic:A,B,C'",
    )
    p20.add_argument("--seed", type=int, default=0, help="pool seed (wide:K pools)")
    p20.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="also serve Prometheus text at http://HOST:PORT/metrics",
    )
    p20.add_argument(
        "--batch-window-ms",
        type=float,
        default=2.0,
        help="how long a tick collects requests before deciding",
    )
    p20.add_argument(
        "--max-inflight", type=int, default=512, help="admitted-request cap"
    )
    p20.add_argument(
        "--max-queue", type=int, default=2048, help="per-tick queue-depth cap"
    )
    p20.add_argument(
        "--tenant-rate",
        type=float,
        default=0.0,
        help="per-tenant requests/s rate cap (0 = unlimited)",
    )
    p20.add_argument(
        "--cache-entries",
        type=int,
        default=4096,
        help="SearchCache LRU bound per workload engine",
    )
    p20.add_argument(
        "--max-requests",
        type=int,
        default=None,
        metavar="N",
        help="drain and exit after serving N requests (CI smoke mode)",
    )
    p20.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the serve.* instruments as a telemetry JSONL export at shutdown",
    )
    p20.set_defaults(func=_serve)

    p21 = sub.add_parser(
        "bench-serve",
        help="benchmark the decision server against one-search-per-request",
    )
    p21.add_argument(
        "--clients",
        type=int,
        default=None,
        help="simulated logical clients (default: 10000, or 1000 with --quick)",
    )
    p21.add_argument(
        "--requests", type=int, default=1, help="requests per logical client"
    )
    p21.add_argument(
        "--pool",
        default="synthetic:32,32,32",
        help="resource pool: 'paper', 'wide:K', or 'synthetic:A,B,C'",
    )
    p21.add_argument("--n", type=int, default=600, help="stencil/SOR problem size")
    p21.add_argument(
        "--batch-window-ms", type=float, default=2.0, help="server batch window"
    )
    p21.add_argument(
        "--quick", action="store_true", help="CI smoke mode: 1000 clients"
    )
    p21.add_argument(
        "--json", metavar="FILE", help="also write the machine-readable record to FILE"
    )
    p21.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write headline gauges plus the serve.* instruments as a "
        "telemetry JSONL export",
    )
    p21.set_defaults(func=_bench_serve)

    p13 = sub.add_parser(
        "run-dynamic",
        help="supervised gather/partition/execute run with failure injection",
    )
    p13.add_argument("--n", type=int, default=512, help="stencil problem size")
    p13.add_argument("--epochs", type=int, default=8, help="supervised epochs")
    p13.add_argument(
        "--fail-at",
        type=int,
        default=None,
        metavar="EPOCH",
        help="crash a node at the start of EPOCH (victim: --kill, or rank 1)",
    )
    p13.add_argument(
        "--kill",
        type=int,
        nargs="+",
        default=None,
        metavar="PROC_ID",
        help="processor id(s) to crash at --fail-at",
    )
    p13.add_argument(
        "--mtbf",
        type=float,
        default=None,
        metavar="EPOCHS",
        help="draw seeded geometric failures with this mean time between failures",
    )
    p13.add_argument("--max-failures", type=int, default=2)
    p13.add_argument("--seed", type=int, default=0)
    p13.add_argument(
        "--threshold", type=float, default=1.25, help="slowdown rebalance threshold"
    )
    p13.add_argument(
        "--load-at",
        type=int,
        default=None,
        metavar="EPOCH",
        help="put sustained external load on a node at the start of EPOCH "
        "(victim: --slow, or rank 1) — slows it without killing it",
    )
    p13.add_argument(
        "--load",
        type=float,
        default=0.3,
        metavar="FRACTION",
        help="external load fraction in [0, 1) for --load-at (default: 0.3)",
    )
    p13.add_argument(
        "--slow",
        type=int,
        nargs="+",
        default=None,
        metavar="PROC_ID",
        help="processor id(s) to load at --load-at",
    )
    p13.add_argument(
        "--adaptive",
        action="store_true",
        help="hysteresis-debounced incremental repartitioning: migrate-k "
        "deltas with a cost-aware veto, full re-search only on divergence",
    )
    p13.add_argument(
        "--slowdown-research",
        action="store_true",
        help="answer every confirmed slowdown with a full gather + re-search "
        "(the always-research baseline the adaptive policy is judged against)",
    )
    p13.add_argument(
        "--hysteresis-k",
        type=int,
        default=3,
        metavar="K",
        help="consecutive over-threshold epochs before the adaptive "
        "controller trips (default: 3)",
    )
    p13.add_argument(
        "--clear-threshold",
        type=float,
        default=1.1,
        help="completion-skew level at which a tripped controller re-arms "
        "(must sit below --threshold; default: 1.1)",
    )
    p13.add_argument(
        "--migrate-k",
        type=int,
        default=8,
        metavar="K",
        help="max PDUs an incremental repartition may move (default: 8)",
    )
    p13.add_argument(
        "--divergence-bound",
        type=float,
        default=1.5,
        help="epoch-time ratio vs the best epoch since the last full search "
        "beyond which the adaptive policy falls back to a full re-search "
        "(default: 1.5)",
    )
    p13.add_argument(
        "--audit-json", metavar="FILE", help="write the audit trail to FILE"
    )
    p13.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write metrics + spans of the studied run as telemetry JSONL",
    )
    p13.add_argument(
        "--validate-cycles",
        type=int,
        default=0,
        metavar="CYCLES",
        help="also event-execute the final decomposition for CYCLES stencil "
        "cycles at message-system fidelity (default: off)",
    )
    p13.add_argument(
        "--engine",
        choices=("fast", "event"),
        default="fast",
        help="validation engine: fast-forward confirmed steady-state "
        "windows, or event-simulate every cycle",
    )
    p13.set_defaults(func=_run_dynamic)

    p14 = sub.add_parser(
        "resilience", help="E16: supervised recovery vs fail-stop restart grid"
    )
    p14.add_argument("--n", type=int, default=512)
    p14.add_argument("--epochs", type=int, default=10)
    p14.add_argument("--mtbf", type=float, default=12.0)
    p14.add_argument("--seed", type=int, default=0)
    p14.add_argument(
        "--validate-cycles",
        type=int,
        default=0,
        metavar="CYCLES",
        help="also event-execute each scenario's final decomposition for "
        "CYCLES stencil cycles (default: closed-form model only)",
    )
    p14.add_argument(
        "--validate-mode",
        choices=("fast", "event"),
        default="fast",
        help="fast-forward confirmed steady-state cycles, or simulate all",
    )
    p14.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the grid's summary gauges as a telemetry JSONL export",
    )
    _add_workers_flag(p14)
    p14.set_defaults(func=_resilience)

    p18 = sub.add_parser(
        "churn",
        help="E16b: adaptive repartitioning vs always-research under load churn",
    )
    p18.add_argument("--n", type=int, default=512)
    p18.add_argument("--epochs", type=int, default=48)
    p18.add_argument(
        "--json", metavar="FILE", help="also write the machine-readable record to FILE"
    )
    p18.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write the grid's summary gauges as a telemetry JSONL export",
    )
    _add_workers_flag(p18)
    p18.set_defaults(func=_churn)

    p16 = sub.add_parser(
        "bench-sim",
        help="time the fast-forward engine vs event-level simulation",
    )
    p16.add_argument("--n", type=int, default=300, help="stencil problem size")
    p16.add_argument("--cycles", type=int, default=200, help="cycles per run")
    p16.add_argument("--p1", type=int, default=6, help="Sparc2 count")
    p16.add_argument("--p2", type=int, default=0, help="IPC count")
    p16.add_argument("--repeat", type=int, default=3, help="timing repeats per mode")
    p16.add_argument(
        "--no-grid",
        action="store_true",
        help="skip timing the E16 grid's decomposition-validation pass",
    )
    p16.add_argument("--grid-n", type=int, default=256)
    p16.add_argument("--grid-epochs", type=int, default=6)
    p16.add_argument("--grid-cycles", type=int, default=100)
    p16.add_argument(
        "--json", metavar="FILE", help="also write the machine-readable record to FILE"
    )
    p16.add_argument(
        "--metrics-out",
        metavar="FILE",
        help="write headline gauges as a telemetry JSONL export",
    )
    _add_workers_flag(p16)
    p16.set_defaults(func=_bench_sim)

    p17 = sub.add_parser(
        "metrics-summary",
        help="render a telemetry JSONL export (from --metrics-out)",
    )
    p17.add_argument("file", metavar="FILE", help="telemetry JSONL export to read")
    p17.add_argument(
        "--format",
        choices=("table", "prom"),
        default="table",
        help="human table, or Prometheus text exposition (default: table)",
    )
    p17.set_defaults(func=_metrics_summary)

    p15 = sub.add_parser(
        "lint",
        help="static analysis: unit safety, callback purity, determinism, engine parity",
        description=(
            "Run the repro.analysis static-analysis rules over Python sources. "
            "Rules: unit-consistency (dimensional analysis over the repro.units "
            "conventions — the Eq-3 erratum shape), callback-purity (phase "
            "annotation callbacks must be pure/deterministic), sim-determinism "
            "(entropy via sim/rng.py named streams, time via injectable clocks), "
            "engine-parity (no constants duplicated between the scalar estimator "
            "and the array engine), telemetry-determinism (sim-critical code records "
            "sim-domain metrics/spans only), clock-domain (flow-sensitive taint: "
            "sim-clock and host-clock values never added/compared), unit-flow "
            "(units flow through function signatures via the call graph), "
            "workspace-escape (borrowed ArrayWorkspace/ring-buffer views must "
            "not outlive the next overwrite without a copy). "
            "Suppress one line with '# repro: noqa[rule-name]'; a directive "
            "anywhere in a multi-line statement covers the whole statement. "
            "Results are cached incrementally by content hash in "
            ".repro-lint-cache.json (--no-cache to bypass). "
            "Exits 1 when findings remain, 0 on a clean tree."
        ),
    )
    p15.add_argument(
        "paths",
        nargs="*",
        default=None,
        metavar="PATH",
        help="files or directories to analyze (default: src)",
    )
    p15.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    p15.add_argument(
        "--select",
        action="append",
        metavar="RULE[,RULE]",
        help="run only these rules, or 'all' (repeatable, comma-separable)",
    )
    p15.add_argument(
        "--ignore",
        action="append",
        metavar="RULE[,RULE]",
        help="skip these rules (repeatable, comma-separable)",
    )
    p15.add_argument(
        "--exclude",
        action="append",
        metavar="FRAGMENT[,FRAGMENT]",
        help=(
            "skip files whose path contains a fragment "
            "(e.g. tests/analysis/fixtures; repeatable, comma-separable)"
        ),
    )
    p15.add_argument(
        "--cache",
        default=".repro-lint-cache.json",
        metavar="PATH",
        help="incremental result cache location (default: %(default)s)",
    )
    p15.add_argument(
        "--no-cache",
        action="store_true",
        help="analyze everything from scratch, reading and writing no cache",
    )
    p15.set_defaults(func=_lint)

    p9 = sub.add_parser("timeline", help="ASCII Gantt of one stencil run")
    p9.add_argument("--n", type=int, default=300)
    p9.add_argument("--p1", type=int, default=6, help="Sparc2 count")
    p9.add_argument("--p2", type=int, default=0, help="IPC count")
    p9.add_argument("--iterations", type=int, default=5)
    p9.add_argument("--overlap", action="store_true")
    p9.set_defaults(func=_timeline)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    func: Callable = args.func
    result = func(args)
    # Commands return either plain text (exit 0) or (text, exit_code).
    if isinstance(result, tuple):
        text, code = result
    else:
        text, code = result, 0
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"\n[written to {args.output}]", file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
