"""One fresh interpreter running an in-process workload.

    python3 bench/worker.py --workload decide-widearea --seed 1 --seconds 10 \
        --t0 <CLOCK_MONOTONIC at spawn> --mode run

``--mode setup`` stops after set-up (a ``setup_s`` sample), ``run`` times
the operations untraced and checks their outputs, and ``trace`` runs the
same operations untraced and then traced, for the per-layer numbers.
The result is one JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import inspect
import json
import os
import sys
import time
import traceback
from typing import Any

import measure
import ops as opsmod
import tracer as tracermod


def _exhaustive_kwargs(fn, **wanted) -> dict:
    """Keep only the keyword arguments ``fn`` still accepts."""
    params = inspect.signature(fn).parameters
    return {k: v for k, v in wanted.items() if k in params}


class DecideWideArea:
    """Cold collapsed decisions on fresh wide-area pools."""

    def __init__(self, seed: int, seconds: int) -> None:
        from repro.apps.stencil import stencil_computation
        from repro.hardware.presets import wide_area_cost_database, wide_area_network
        from repro.partition.available import gather_available_resources
        from repro.partition.heuristic import exhaustive_partition

        self._network = wide_area_network
        self._database = wide_area_cost_database
        self._gather = gather_available_resources
        self._decide = exhaustive_partition
        self._collapsed = _exhaustive_kwargs(exhaustive_partition, engine="array", collapse=True)
        self._uncollapsed = _exhaustive_kwargs(exhaustive_partition, engine="array")
        self.computation = stencil_computation(opsmod.WIDEAREA_N, overlap=False)
        self.ops = opsmod.widearea_ops(seed, seconds)
        self.labels = [op.stratum for op in self.ops]
        warmup, self.parity_pools = opsmod.widearea_side_pools(seed)
        self._decide(self.computation, *self._pool(*warmup), **self._collapsed)

    def _pool(self, sites: int, pool_seed: int):
        net = self._network(sites, seed=pool_seed)
        return self._gather(net), self._database(net)

    def inputs(self) -> list:
        return [self._pool(op.sites, op.pool_seed) for op in self.ops]

    def run(self, pool) -> Any:
        decision = self._decide(self.computation, *pool, **self._collapsed)
        return (tuple(decision.config.counts), decision.t_cycle_ms)

    def check(self, outputs: list) -> tuple[dict, dict]:
        digest = hashlib.sha256()
        for op, (counts, t_cycle) in zip(self.ops, outputs):
            digest.update(repr((op.sites, op.pool_seed, counts, t_cycle)).encode())
        parity = True
        for sites, pool_seed in self.parity_pools:
            pool = self._pool(sites, pool_seed)
            collapsed = self._decide(self.computation, *pool, **self._collapsed)
            plain = self._decide(self.computation, *pool, **self._uncollapsed)
            parity &= (
                tuple(collapsed.config.counts) == tuple(plain.config.counts)
                and collapsed.t_cycle_ms == plain.t_cycle_ms
            )
        checks = {"collapse_parity": parity}
        return checks, {"decision_digest": digest.hexdigest()[:16]}

    def op_is_small(self, i: int) -> bool:
        return self.ops[i].sites <= 16

    def per_op_counts(self, outputs: list) -> dict:
        return {}


class SuperviseChurn:
    """Supervised runs under one node failure and flapping load."""

    def __init__(self, seed: int, seconds: int) -> None:
        from repro.apps.stencil import stencil_computation
        from repro.hardware.presets import wide_area_cost_database, wide_area_network
        from repro.partition.available import gather_available_resources
        from repro.partition.heuristic import order_by_power
        from repro.partition.runtime import PartitionRuntime, RuntimePolicy
        from repro.sim.failures import FailureSchedule, LoadSchedule

        self._network = wide_area_network
        self._database = wide_area_cost_database
        self._gather = gather_available_resources
        self._order = order_by_power
        self._runtime = PartitionRuntime
        self._failures = FailureSchedule
        self._loads = LoadSchedule
        self.policies = {
            "rebalance": RuntimePolicy(),
            "adaptive": RuntimePolicy(adaptive=True),
            "research": RuntimePolicy(slowdown_research=True),
        }
        self.computation = stencil_computation(opsmod.CHURN_N, overlap=False)
        self._op_kind = self.computation.dominant_computation_phase().op_kind
        self.ops = opsmod.churn_ops(seed, seconds)
        self.labels = [op.policy for op in self.ops]
        # The failure-free run doubles as warm-up; its answer is the one
        # every supervised run must reproduce.
        net = self._network(opsmod.CHURN_SITES, seed=opsmod.churn_reference_seed(seed))
        clean = self._runtime(
            net, self.computation, self._database(net), policy=self.policies["rebalance"]
        )
        self.reference_answer = clean.run(opsmod.CHURN_EPOCHS).answer

    def inputs(self) -> list:
        runtimes = []
        for op in self.ops:
            net = self._network(opsmod.CHURN_SITES, seed=op.pool_seed)
            ordered = self._order(self._gather(net), self._op_kind)
            candidates = [
                proc.proc_id
                for res in ordered[: opsmod.CHURN_VICTIM_SITES]
                for proc in res.cluster.processors[1:]
            ]
            failed, *flappers = [candidates[v % len(candidates)] for v in op.victims]
            flappers = [p for p in flappers if p != failed] or [failed]
            runtimes.append(
                self._runtime(
                    net,
                    self.computation,
                    self._database(net),
                    policy=self.policies[op.policy],
                    failures=self._failures.fail_at(opsmod.CHURN_FAIL_EPOCH, [failed]),
                    loads=self._loads.flapping(
                        flappers,
                        load=opsmod.CHURN_LOAD,
                        period_epochs=opsmod.CHURN_LOAD_PERIOD,
                        burst_epochs=opsmod.CHURN_LOAD_BURST,
                        horizon_epochs=opsmod.CHURN_EPOCHS,
                        start_epoch=opsmod.CHURN_LOAD_START,
                    ),
                )
            )
        return runtimes

    def run(self, runtime) -> Any:
        result = runtime.run(opsmod.CHURN_EPOCHS)
        return (
            result.answer,
            (
                result.decide_searches,
                result.decide_evaluations,
                result.repartitions,
                result.moved_pdus_total,
            ),
        )

    def check(self, outputs: list) -> tuple[dict, dict]:
        parity = all(answer == self.reference_answer for answer, _ in outputs)
        return {"answer_parity": parity}, {"reference_answer": self.reference_answer}

    def op_is_small(self, i: int) -> bool:
        return False

    def per_op_counts(self, outputs: list) -> dict:
        """``RuntimeResult`` counts, averaged over the operations."""
        names = (
            "runtime.searches",
            "runtime.evaluations",
            "runtime.repartitions",
            "runtime.moved_pdus",
        )
        done = [counts for _, counts in (o for o in outputs if o is not None)]
        return {
            name: sum(c[k] for c in done) / max(1, len(outputs))
            for k, name in enumerate(names)
        }


WORKLOADS = {"decide-widearea": DecideWideArea, "supervise-churn": SuperviseChurn}


def timed_pass(workload, inputs: list, tr=None) -> dict:
    """Run every operation once, in order; returns latencies and noise."""
    latencies: list[float] = []
    references: list[float] = []
    outputs: list = []
    failed = 0
    gc.collect()
    steal0 = measure.host_steal_seconds()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    for i, item in enumerate(inputs):
        # The host's speed next to this operation (see measure.speed_factor).
        references.append(measure.reference_kernel())
        if tr is not None:
            tr.op = i
            span = tr.begin("op", op=i)
        t0 = time.perf_counter()
        try:
            outputs.append(workload.run(item))
        except Exception:  # one failed operation must not stop the run
            failed += 1
            outputs.append(None)
            traceback.print_exc(file=sys.stderr)
        latencies.append(time.perf_counter() - t0)
        if tr is not None:
            tr.end(span)
    wall = time.perf_counter() - wall0
    return {
        "latencies": latencies,
        "references": references,
        "outputs": outputs,
        "failed": failed,
        "window_s": wall,
        "cpu_s": time.process_time() - cpu0,
        "steal_s": measure.host_steal_seconds() - steal0,
    }


def windows(run: dict) -> list[dict]:
    """The pass as ``measure.CHUNKS`` sub-windows of consecutive operations."""
    lat, refs = run["latencies"], run["references"]
    return [
        {
            "latencies": lat[lo:hi],
            "wall_s": sum(lat[lo:hi]),
            "factor": measure.speed_factor(measure.median(refs[lo:hi])),
        }
        for lo, hi in measure.chunks(len(lat))
    ]


def _layers(workload, tr, outputs: list, overhead: float) -> dict:
    selfs = tracermod.self_times(tr)
    small_wall = small_lower = 0.0
    for i, name in enumerate(tr.names):
        if not workload.op_is_small(tr.ops[i]):
            continue
        if name == "op":
            small_wall += tr.ends[i] - tr.starts[i]
        elif name == "search.lower":
            small_lower += selfs[i]
    extra = {
        "trace.coverage": tracermod.op_coverage(tr),
        "trace.overhead": overhead,
        "search.lower_share_small": small_lower / small_wall if small_wall else 0.0,
        **workload.per_op_counts(outputs),
    }
    extra["engine.cache_entries"], extra["engine.cache_evictions"] = tr.cache_state()
    return tracermod.layer_metrics(tr, len(outputs), extra)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="CLOCK_MONOTONIC at spawn")
    parser.add_argument("--mode", choices=("setup", "run", "trace"), default="run")
    parser.add_argument("--trace-out", help="span file (trace mode)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed, args.seconds)
    inputs = workload.inputs()
    gc.collect()
    report: dict = {"setup_s": time.monotonic() - args.t0}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    first = timed_pass(workload, inputs)
    report["peak_rss_mb"] = measure.peak_rss_mib(os.getpid())
    del inputs
    outputs = first.pop("outputs")
    report.update(first)
    report["windows"] = windows(first)
    report["labels"] = workload.labels
    checks, info = workload.check([o if o is not None else ((), None) for o in outputs])
    report["checks"] = checks
    report["info"] = info

    if args.mode == "trace":
        tr = tracermod.Tracer()
        tracermod.install(tr)
        traced_inputs = workload.inputs()
        tr.active = True
        traced = timed_pass(workload, traced_inputs, tr)
        tr.active = False
        overhead = measure.scaled_wall(windows(traced)) / measure.scaled_wall(windows(first))
        report["layers"] = _layers(workload, tr, traced["outputs"], overhead)
        report["traced_failed"] = traced["failed"]
        report["absent"] = tr.absent
        if args.trace_out:
            tr.dump(args.trace_out)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
