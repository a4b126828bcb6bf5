"""Fast-forward vs event-level simulation throughput harness.

Shared by the ``repro bench-sim`` CLI subcommand and
``benchmarks/test_bench_sim_perf.py``: runs the same cycle-structured
STEN-1 workload through :class:`~repro.sim.fastforward.FastForwardEngine`
in both modes, checks the bit-exact parity signature, and reports wall
time and cycle throughput — the numbers ``BENCH_sim_perf.json`` tracks
across PRs.  Optionally also times the E16 resilience grid's event-level
decomposition-validation pass in both modes, so the engine's speedup is
measured on a real experiment, not only a microbench.

Everything inside the simulation is deterministic; only the wall-clock
timings vary between machines, which is why the perf gate compares the
within-run *speedup ratio* rather than absolute rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.stencil import StencilCycleProgram
from repro.benchmarking.perfgate import metric, record
from repro.benchmarking.timing import time_calls
from repro.errors import SimulationError
from repro.hardware.presets import paper_testbed
from repro.mmps import MMPS
from repro.partition import balanced_partition_vector
from repro.sim.fastforward import FastForwardEngine, FastForwardReport
from repro.units import seconds_to_msec

__all__ = [
    "SPEEDUP_FLOOR",
    "ModeResult",
    "GridTiming",
    "SimPerfComparison",
    "run_engine",
    "run_sim_perf",
    "sim_perf_report",
    "sim_perf_payload",
]

#: Committed within-run floor on both fast/event speedups (the microbench
#: and the E16 grid validation pass), written into the record as a bound.
SPEEDUP_FLOOR = 10.0


@dataclass(frozen=True)
class ModeResult:
    """One engine mode's timing over the reference workload."""

    mode: str
    repeats: int
    best_wall_s: float
    mean_wall_s: float
    cycles: int
    probed_cycles: int
    fast_forwarded_cycles: int
    clock_ms: float  #: simulated time — must match across modes exactly

    @property
    def cycles_per_s(self) -> float:
        """Throughput at the best repeat."""
        if self.best_wall_s <= 0:
            return float("inf")
        return self.cycles / self.best_wall_s


@dataclass(frozen=True)
class GridTiming:
    """E16 grid wall time with event-level validation, per engine mode
    (best of ``repeats`` passes)."""

    rows: int
    repeats: int
    validate_cycles: int
    event_wall_s: float
    fast_wall_s: float
    parity_ok: bool  #: row-by-row validation signatures agree across modes

    @property
    def speedup(self) -> float:
        if self.fast_wall_s <= 0:
            return float("inf")
        return self.event_wall_s / self.fast_wall_s


@dataclass(frozen=True)
class SimPerfComparison:
    """Fast vs event on one STEN-1 scenario (plus the optional grid)."""

    n: int
    cycles: int
    config: tuple[int, int]  #: (sparc2, ipc) processor counts
    parity_ok: bool  #: engine parity signatures agree across modes
    results: tuple[ModeResult, ...]
    grid: Optional[GridTiming] = None

    def result(self, mode: str) -> ModeResult:
        for r in self.results:
            if r.mode == mode:
                return r
        raise KeyError(mode)

    @property
    def speedup(self) -> Optional[float]:
        """Event wall time over fast wall time (best repeats)."""
        try:
            event, fast = self.result("event"), self.result("fast")
        except KeyError:
            return None
        if fast.best_wall_s <= 0:
            return float("inf")
        return event.best_wall_s / fast.best_wall_s


def run_engine(
    n: int, cycles: int, p1: int, p2: int, mode: str
) -> FastForwardReport:
    """One fresh-testbed STEN-1 engine run (the unit both modes time)."""
    network = paper_testbed()
    mmps = MMPS(network)
    procs = list(network.cluster("sparc2"))[:p1] + list(network.cluster("ipc"))[:p2]
    rates = [0.3] * p1 + [0.6] * p2
    vector = balanced_partition_vector(rates, n)
    program = StencilCycleProgram(mmps, procs, list(vector), n)
    return FastForwardEngine(mmps).run(program, cycles, mode=mode)


def _time_grid(
    *,
    n: int,
    epochs: int,
    validate_cycles: int,
    workers: Optional[int],
    repeat: int,
) -> GridTiming:
    """Wall-time the resilience grid's validation pass in both modes, best
    of ``repeat`` passes each; parity holds only if every pass of either
    mode yields the first event pass's row signatures."""
    # Imported lazily: the grid drags in the whole supervisor stack, which
    # the pure engine microbench should not pay for.
    from repro.experiments.resilience import resilience_grid

    timings = {}
    passes: list[list] = []
    for mode in ("event", "fast"):
        timings[mode] = time_calls(
            lambda: passes.append(
                resilience_grid(
                    n=n,
                    epochs=epochs,
                    workers=workers,
                    validate_cycles=validate_cycles,
                    validate_mode=mode,
                )
            ),
            repeat,
        )[0]
    signatures = [[(r.scenario, r.validation_signature) for r in rows] for rows in passes]
    return GridTiming(
        rows=len(signatures[0]),
        repeats=repeat,
        validate_cycles=validate_cycles,
        event_wall_s=timings["event"],
        fast_wall_s=timings["fast"],
        parity_ok=all(sig == signatures[0] for sig in signatures),
    )


def run_sim_perf(
    *,
    n: int = 300,
    cycles: int = 200,
    config: tuple[int, int] = (6, 0),
    repeat: int = 3,
    grid: bool = True,
    grid_n: int = 256,
    grid_epochs: int = 6,
    grid_cycles: int = 100,
    workers: Optional[int] = None,
) -> SimPerfComparison:
    """Time both engine modes on one scenario; optionally also the grid.

    Every repeat builds a fresh testbed and message system, so the fast
    mode pays its steady-state probe cycles each time — the measured
    speedup is what a cold caller actually gets.  Reports the best and
    mean wall time over ``repeat`` runs per mode; the grid's pass in each
    mode is also the best of ``repeat``, since its fast pass lasts only
    tens of milliseconds.
    """
    if repeat < 1:
        raise SimulationError(f"repeat must be >= 1, got {repeat}")
    p1, p2 = config
    results = []
    reports: dict[str, FastForwardReport] = {}
    for mode in ("event", "fast"):
        best_s, mean_s, report = time_calls(
            lambda: run_engine(n, cycles, p1, p2, mode), repeat
        )
        reports[mode] = report
        results.append(
            ModeResult(
                mode=mode,
                repeats=repeat,
                best_wall_s=best_s,
                mean_wall_s=mean_s,
                cycles=report.cycles,
                probed_cycles=report.probed_cycles,
                fast_forwarded_cycles=report.fast_forwarded_cycles,
                clock_ms=report.clock_ms,
            )
        )
    parity_ok = (
        reports["event"].parity_signature() == reports["fast"].parity_signature()
    )
    grid_timing = (
        _time_grid(
            n=grid_n,
            epochs=grid_epochs,
            validate_cycles=grid_cycles,
            workers=workers,
            repeat=repeat,
        )
        if grid
        else None
    )
    return SimPerfComparison(
        n=n,
        cycles=cycles,
        config=(p1, p2),
        parity_ok=parity_ok,
        results=tuple(results),
        grid=grid_timing,
    )


def sim_perf_report(cmp: SimPerfComparison) -> str:
    """Human-readable comparison table."""
    from repro.experiments.report import format_table

    rows = [
        [
            r.mode,
            r.probed_cycles,
            r.fast_forwarded_cycles,
            f"{seconds_to_msec(r.best_wall_s):.2f}",
            f"{seconds_to_msec(r.mean_wall_s):.2f}",
            f"{r.cycles_per_s:,.0f}",
            f"{r.clock_ms:.3f}",
        ]
        for r in cmp.results
    ]
    p1, p2 = cmp.config
    table = format_table(
        ["mode", "probed", "fast-forwarded", "best ms", "mean ms", "cycles/s", "sim clock ms"],
        rows,
        title=(
            f"sim perf: STEN-1 N={cmp.n} on ({p1},{p2}), "
            f"{cmp.cycles} cycles per run"
        ),
    )
    table += f"\n\nbit-exact parity: {'ok' if cmp.parity_ok else 'BROKEN'}"
    if cmp.speedup is not None:
        table += f"\nfast-forward speedup over event-level: {cmp.speedup:.1f}x"
    if cmp.grid is not None:
        g = cmp.grid
        table += (
            f"\nE16 grid validation ({g.rows} rows x {g.validate_cycles} cycles): "
            f"event {g.event_wall_s:.2f}s, fast {g.fast_wall_s:.2f}s "
            f"({g.speedup:.1f}x, parity {'ok' if g.parity_ok else 'BROKEN'})"
        )
    return table


def sim_perf_payload(cmp: SimPerfComparison) -> dict:
    """The ``BENCH_sim_perf.json`` record (see
    :mod:`repro.benchmarking.perfgate` for the shape and the gate)."""
    scenario = {
        "workload": f"STEN-1 N={cmp.n}",
        "config": list(cmp.config),
        "cycles": cmp.cycles,
        "modes": {
            r.mode: {
                "repeats": r.repeats,
                "best_wall_s": r.best_wall_s,
                "mean_wall_s": r.mean_wall_s,
                "probed_cycles": r.probed_cycles,
                "fast_forwarded_cycles": r.fast_forwarded_cycles,
            }
            for r in cmp.results
        },
    }
    event, fast = cmp.result("event"), cmp.result("fast")
    invariants = {
        "parity_ok": cmp.parity_ok,
        "fast.fast_forwarded": event.fast_forwarded_cycles == 0
        and fast.fast_forwarded_cycles > 0,
    }
    ratios = {
        "speedup_fast_over_event": metric(cmp.speedup, "higher", SPEEDUP_FLOOR)
    }
    if cmp.grid is not None:
        g = cmp.grid
        scenario["grid"] = {
            "rows": g.rows,
            "repeats": g.repeats,
            "validate_cycles": g.validate_cycles,
            "event_wall_s": g.event_wall_s,
            "fast_wall_s": g.fast_wall_s,
        }
        invariants["grid.parity_ok"] = g.parity_ok
        ratios["grid.speedup"] = metric(g.speedup, "higher", SPEEDUP_FLOOR)
    return record(
        "sim",
        scenario=scenario,
        invariants=invariants,
        exact={f"{r.mode}.clock_ms": r.clock_ms for r in cmp.results},
        ratios=ratios,
        absolute={
            f"{r.mode}.cycles_per_s": metric(r.cycles_per_s, "higher")
            for r in cmp.results
        },
    )
