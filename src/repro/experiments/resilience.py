"""E16: resilience overhead of the fault-tolerant runtime.

Quantifies what the supervisor loop (:mod:`repro.partition.runtime`) costs
and saves.  For each failure scenario we run three supervised executions of
the same computation:

* **clean** — no failures, the reference answer and elapsed time;
* **supervised** — the failure schedule injected mid-run; the runtime
  replays the interrupted epoch on the survivors, re-gathers resilently,
  repartitions, and ships the moved PDUs;
* **fail-stop baseline** — what a non-fault-tolerant system pays: all work
  up to the failure is lost (modelled as the clean run's pro-rated elapsed
  time to the failure epoch) and the whole computation restarts from
  scratch on the degraded network.

Every supervised run must reproduce the clean run's exact integer answer —
the parity column is an end-to-end correctness check, not a statistic.

MTBF scenarios draw seeded geometric failure times
(:meth:`~repro.sim.failures.FailureSchedule.from_mtbf`) over the worker
nodes (manager hosts are excluded so a schedule cannot take out every
cluster's manager and leave nothing to degrade to).

The supervisor models epochs with closed-form costs; pass
``validate_cycles > 0`` to *also* execute each scenario's final
decomposition at event level on the message system for that many stencil
cycles (:class:`~repro.sim.fastforward.FastForwardEngine`).  Scenario rows
are independent, so the grid fans out over processes with ``workers``;
the fitted cost database is built once per worker process and shared
across that worker's rows.

**The churn grid** (:func:`churn_grid`) is the adaptive-repartitioning
benchmark: long-horizon external-*load* churn (flapping bursts, a rolling
hot spot, a sustained step — :class:`~repro.sim.failures.LoadSchedule`)
run under two slowdown policies on identical worlds:

* **baseline** — ``RuntimePolicy(slowdown_research=True)``: every
  over-threshold epoch pays a full gather + §5 re-search and ships the
  resulting transfer (the pre-adaptive behaviour, generalized to load);
* **adaptive** — ``RuntimePolicy(adaptive=True)``: hysteresis-debounced
  triggers, migrate-k deltas, cost-aware vetoes, and the divergence-gated
  full-search fallback.

Both policies price PDU transfers off the *fitted* cost database (one
N-double row at the clusters' marginal 1-D byte rate — the default
0.05 ms/PDU token cost would make full-block thrashing look free) and
charge the same modelled per-evaluation decision cost, so "total elapsed"
genuinely means compute + decide + migrate on the one simulated clock.
The gate: adaptive must win ≥ ``min_wins`` of the scenarios, answer
parity must hold everywhere, and whenever the fallback fired the adaptive
run must land on the same final decomposition as the always-research
baseline (decision parity of the fallback search).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.apps.stencil import StencilCycleProgram, stencil_computation
from repro.benchmarking.database import CostDatabase
from repro.experiments.paper import paper_cost_database
from repro.experiments.report import format_table
from repro.hardware.presets import paper_testbed
from repro.mmps import MMPS
from repro.partition.runtime import PartitionRuntime, RuntimePolicy, RuntimeResult
from repro.partition.search_parallel import sweep
from repro.sim.failures import FailureSchedule, LoadSchedule
from repro.sim.fastforward import FastForwardEngine, FastForwardReport

__all__ = [
    "ResilienceRow",
    "resilience_grid",
    "resilience_report",
    "validate_decomposition",
    "ChurnRow",
    "churn_transfer_ms_per_pdu",
    "churn_grid",
    "churn_report",
    "churn_payload",
]

N = 512
EPOCHS = 10
FAIL_EPOCHS = (2, 5, 8)
MTBF_EPOCHS = 12.0

#: Churn-grid defaults: a long horizon (the fast-forward-era supervisor
#: models epochs in closed form, so 48 epochs are cheap), moderate churn
#: load (well under the divergence bound) and one heavy sustained step
#: (beyond it, so the fallback fires).
CHURN_EPOCHS = 48
CHURN_LOAD = 0.30
CHURN_STEP_LOAD = 0.50
#: Modelled decision-compute cost per fresh T_c evaluation, charged to the
#: sim clock by both churn policies (memoized decisions are free — warm
#: starts show up as genuinely cheaper decisions for baseline and adaptive
#: alike).
DECIDE_COST_MS_PER_EVAL = 0.05
#: Adaptive wins required by the committed churn gate.
CHURN_MIN_WINS = 2

#: Fitted cost database shared across one process's grid rows.  Primed by
#: :func:`_prime_cost_database` (the :func:`~repro.partition.search_parallel.sweep`
#: initializer) so pool workers fit it once, not once per supervised run.
_SHARED_DB: Optional[CostDatabase] = None


def _prime_cost_database() -> None:
    """Fit the paper cost database once for this process's rows."""
    global _SHARED_DB
    _SHARED_DB = paper_cost_database()


def _cost_database() -> CostDatabase:
    return _SHARED_DB if _SHARED_DB is not None else paper_cost_database()


@dataclass(frozen=True)
class ResilienceRow:
    """One failure scenario of the overhead grid."""

    scenario: str
    failures: int
    answer_parity: bool
    clean_ms: float
    supervised_ms: float
    baseline_ms: float
    overhead_pct: float  #: supervised vs clean (cost of recovering in place)
    saved_pct: float  #: supervised vs fail-stop restart (what supervision buys)
    repartitions: int
    moved_pdus: int
    replayed_pdus: int
    gather_retries: int
    #: Event-level validation of the final decomposition (0 = not requested).
    validated_cycles: int = 0
    validation_clock_ms: float = 0.0
    validation_probed: int = 0
    validation_fast_forwarded: int = 0
    #: :meth:`~repro.sim.fastforward.FastForwardReport.parity_signature`
    #: of the validation run — mode-independent, so an ``"event"`` and a
    #: ``"fast"`` grid of the same scenarios must agree row by row.
    validation_signature: Optional[tuple] = None


def _supervised_run(
    *,
    n: int,
    epochs: int,
    failures: Optional[FailureSchedule] = None,
    loads: Optional[LoadSchedule] = None,
    pre_dead: Sequence[int] = (),
    policy: Optional[RuntimePolicy] = None,
) -> RuntimeResult:
    """One supervised execution on a fresh paper testbed."""
    network = paper_testbed()
    for pid in pre_dead:
        network.processor(pid).fail()
    runtime = PartitionRuntime(
        network,
        stencil_computation(n, overlap=False, cycles=1),
        _cost_database(),
        policy=policy,
        failures=failures,
        loads=loads,
    )
    return runtime.run(epochs)


def validate_decomposition(
    proc_ids: Sequence[int],
    vector: Sequence[int],
    n: int,
    cycles: int,
    *,
    mode: str = "fast",
    telemetry=None,
) -> FastForwardReport:
    """Event-execute a decomposition for ``cycles`` stencil cycles.

    Builds a fresh paper testbed and runs STEN-1 on exactly the given
    processors with the given per-rank row counts — the check that a
    supervisor decision actually executes, at message-system fidelity,
    not just in the closed-form epoch model.  ``mode="fast"`` lets the
    :class:`~repro.sim.fastforward.FastForwardEngine` skip confirmed
    steady-state cycles; ``mode="event"`` simulates every cycle.  Both
    yield the identical parity signature — and, when a ``telemetry``
    bundle is passed, bit-identical sim-domain counter values (MMPS
    transport counters are advanced exactly across skipped windows).
    """
    network = paper_testbed()
    mmps = MMPS(
        network, metrics=telemetry.metrics if telemetry is not None else None
    )
    processors = [network.processor(pid) for pid in proc_ids]
    program = StencilCycleProgram(mmps, processors, list(vector), n)
    engine = FastForwardEngine(mmps, telemetry=telemetry)
    return engine.run(program, cycles, mode=mode)


def _worker_pool(exclude_managers: bool = True) -> list[int]:
    """Processor ids eligible for MTBF failures (manager hosts excluded)."""
    network = paper_testbed()
    pool = []
    for cluster in network.clusters:
        procs = cluster.processors[1:] if exclude_managers else cluster.processors
        pool.extend(p.proc_id for p in procs)
    return pool


def _grid_row(
    scenario: str,
    schedule: FailureSchedule,
    clean_ms: float,
    clean_answer: int,
    n: int,
    epochs: int,
    validate_cycles: int,
    validate_mode: str,
) -> ResilienceRow:
    """One scenario row — module-level and primitive-argument so
    :func:`~repro.partition.search_parallel.sweep` can ship it to a pool."""
    supervised = _supervised_run(n=n, epochs=epochs, failures=schedule)
    first_fail = min(e.at_epoch for e in schedule.events)
    dead = sorted(e.proc_id for e in schedule.events)
    # Fail-stop baseline: everything before the failure is wasted, then the
    # whole computation restarts on whatever survived.
    restart = _supervised_run(n=n, epochs=epochs, pre_dead=dead)
    baseline_ms = clean_ms * (first_fail / epochs) + restart.elapsed_ms
    retries = sum(
        sum(event.retries.values()) for event in supervised.audit
    )
    validation = None
    if validate_cycles > 0:
        validation = validate_decomposition(
            supervised.final_proc_ids,
            supervised.final_vector,
            n,
            validate_cycles,
            mode=validate_mode,
        )
    return ResilienceRow(
        scenario=scenario,
        failures=len(schedule.events),
        answer_parity=supervised.answer == clean_answer,
        clean_ms=clean_ms,
        supervised_ms=supervised.elapsed_ms,
        baseline_ms=baseline_ms,
        overhead_pct=100.0 * (supervised.elapsed_ms / clean_ms - 1.0),
        saved_pct=100.0 * (1.0 - supervised.elapsed_ms / baseline_ms),
        repartitions=supervised.repartitions,
        moved_pdus=supervised.moved_pdus_total,
        replayed_pdus=supervised.replayed_pdus,
        gather_retries=retries,
        validated_cycles=validation.cycles if validation else 0,
        validation_clock_ms=validation.clock_ms if validation else 0.0,
        validation_probed=validation.probed_cycles if validation else 0,
        validation_fast_forwarded=(
            validation.fast_forwarded_cycles if validation else 0
        ),
        validation_signature=validation.parity_signature() if validation else None,
    )


def resilience_grid(
    *,
    n: int = N,
    epochs: int = EPOCHS,
    fail_epochs: Sequence[int] = FAIL_EPOCHS,
    mtbf_epochs: float = MTBF_EPOCHS,
    seed: int = 0,
    workers: Optional[int] = None,
    validate_cycles: int = 0,
    validate_mode: str = "fast",
) -> list[ResilienceRow]:
    """The overhead grid: single worker loss, manager loss, MTBF draws.

    ``workers`` fans the independent scenario rows out across processes
    (the fitted cost database is built once per worker and shared by its
    rows); ``validate_cycles`` additionally event-executes each row's
    final decomposition for that many stencil cycles in ``validate_mode``
    (``"fast"`` or ``"event"`` — identical results, different wall time).
    """
    _prime_cost_database()  # the clean run and serial rows share one fit
    clean = _supervised_run(n=n, epochs=epochs)
    worker = clean.final_proc_ids[1]  # a non-manager rank of the decomposition
    manager = paper_testbed().clusters[0].processors[0].proc_id
    fail_epochs = [fe for fe in fail_epochs if 0 < fe < epochs]
    if not fail_epochs:
        raise ValueError(f"no fail epoch falls inside the {epochs}-epoch horizon")
    scenarios: list[tuple[str, FailureSchedule]] = []
    for fe in fail_epochs:
        scenarios.append((f"worker@{fe}", FailureSchedule.fail_at(fe, [worker])))
    scenarios.append(
        (
            f"manager@{fail_epochs[0]}",
            FailureSchedule.fail_at(fail_epochs[0], [manager]),
        )
    )
    mtbf = FailureSchedule.from_mtbf(
        _worker_pool(),
        mtbf_epochs=mtbf_epochs,
        horizon_epochs=epochs,
        seed=seed,
        max_failures=2,
    )
    if mtbf:
        scenarios.append((f"mtbf={mtbf_epochs:g}", mtbf))
    tasks = [
        (
            scenario,
            schedule,
            clean.elapsed_ms,
            clean.answer,
            n,
            epochs,
            validate_cycles,
            validate_mode,
        )
        for scenario, schedule in scenarios
    ]
    return sweep(
        _grid_row, tasks, workers=workers, initializer=_prime_cost_database
    )


def resilience_report(
    *,
    n: int = N,
    epochs: int = EPOCHS,
    fail_epochs: Sequence[int] = FAIL_EPOCHS,
    mtbf_epochs: float = MTBF_EPOCHS,
    seed: int = 0,
    workers: Optional[int] = None,
    validate_cycles: int = 0,
    validate_mode: str = "fast",
    telemetry=None,
) -> str:
    """ASCII grid; raises if any scenario breaks answer parity.

    ``telemetry`` (a :class:`~repro.telemetry.Telemetry` bundle) gets the
    grid's summary gauges — scenario counts and recovery totals.  Rows run
    in worker processes, so per-row instruments cannot stream into the
    parent registry; the aggregates are what the grid exports.
    """
    rows = resilience_grid(
        n=n,
        epochs=epochs,
        fail_epochs=fail_epochs,
        mtbf_epochs=mtbf_epochs,
        seed=seed,
        workers=workers,
        validate_cycles=validate_cycles,
        validate_mode=validate_mode,
    )
    broken = [r.scenario for r in rows if not r.answer_parity]
    if telemetry is not None:
        m = telemetry.metrics
        m.gauge("resilience.scenarios", help="failure scenarios run").set(len(rows))
        m.gauge("resilience.parity_broken", help="scenarios with a wrong answer").set(
            len(broken)
        )
        m.gauge("resilience.repartitions", help="repartitions across the grid").set(
            sum(r.repartitions for r in rows)
        )
        m.gauge("resilience.moved_pdus", help="PDUs moved across the grid").set(
            sum(r.moved_pdus for r in rows)
        )
        m.gauge("resilience.replayed_pdus", help="PDUs replayed across the grid").set(
            sum(r.replayed_pdus for r in rows)
        )
        m.gauge("resilience.gather_retries", help="gather retries across the grid").set(
            sum(r.gather_retries for r in rows)
        )
        m.gauge(
            "resilience.validated_cycles", help="event-validated cycles across the grid"
        ).set(sum(r.validated_cycles for r in rows))
    table = format_table(
        [
            "scenario",
            "fails",
            "parity",
            "clean ms",
            "supervised ms",
            "fail-stop ms",
            "overhead %",
            "saved %",
            "repart",
            "moved",
            "replayed",
            "retries",
        ],
        [
            (
                r.scenario,
                r.failures,
                "ok" if r.answer_parity else "BROKEN",
                r.clean_ms,
                r.supervised_ms,
                r.baseline_ms,
                r.overhead_pct,
                r.saved_pct,
                r.repartitions,
                r.moved_pdus,
                r.replayed_pdus,
                r.gather_retries,
            )
            for r in rows
        ],
        title=(
            f"E16: resilience overhead (STEN-1 N={n}, {epochs} epochs; "
            "supervised recovery vs fail-stop restart)"
        ),
    )
    if any(r.validated_cycles for r in rows):
        table += "\n\n" + format_table(
            ["scenario", "cycles", "probed", "fast-forwarded", "sim clock ms"],
            [
                (
                    r.scenario,
                    r.validated_cycles,
                    r.validation_probed,
                    r.validation_fast_forwarded,
                    r.validation_clock_ms,
                )
                for r in rows
            ],
            title=(
                "final-decomposition validation (event-level STEN-1, "
                f"mode={validate_mode})"
            ),
        )
    if broken:
        table += f"\n\nANSWER PARITY BROKEN: {broken}"
    return table


# -- the adaptive-repartitioning churn grid ------------------------------------


def churn_transfer_ms_per_pdu(db: CostDatabase, n: int) -> float:
    """Per-PDU transfer price off the *fitted* cost database.

    One PDU is one stencil row of ``n`` doubles; its price is the marginal
    cost of one more row in a bulk 1-D block transfer (the fitted
    ``T_comm`` slope at that size), averaged over the testbed's clusters.
    Both churn policies pay this same rate, so the grid's elapsed times
    genuinely charge data movement — the default 0.05 ms/PDU token cost
    would make full-block thrashing look nearly free.
    """
    row_bytes = 8.0 * n
    marginals = [
        db.comm_cost(cluster, "1-D", 2 * row_bytes, 2)
        - db.comm_cost(cluster, "1-D", row_bytes, 2)
        for cluster in ("sparc2", "ipc")
    ]
    return sum(marginals) / len(marginals)


@dataclass(frozen=True)
class ChurnRow:
    """One churn scenario: always-research baseline vs adaptive policy."""

    scenario: str
    epochs: int
    clean_ms: float
    baseline_ms: float  #: total elapsed (compute + decide + migrate), research policy
    adaptive_ms: float  #: same clock, adaptive policy
    speedup: float  #: baseline_ms / adaptive_ms (> 1 means adaptive wins)
    win: bool
    answer_parity: bool  #: both policies reproduce the clean integer answer
    baseline_repartitions: int
    baseline_moved: int
    baseline_searches: int
    adaptive_repartitions: int
    adaptive_moved: int
    adaptive_searches: int
    #: decide.adaptive.* counters of the adaptive run.
    trips: int
    holds: int
    migrations: int
    vetoes: int
    fallbacks: int
    #: When the divergence fallback fired: did the adaptive run land on the
    #: always-research baseline's final decomposition?  ``None`` = no
    #: fallback in this scenario.
    fallback_parity: Optional[bool]


def _churn_row(
    scenario: str,
    schedule: LoadSchedule,
    clean_ms: float,
    clean_answer: int,
    n: int,
    epochs: int,
    transfer_ms_per_pdu: float,
) -> ChurnRow:
    """One scenario row (module-level and primitive-argument for sweep)."""
    baseline = _supervised_run(
        n=n,
        epochs=epochs,
        loads=schedule,
        policy=RuntimePolicy(
            slowdown_research=True,
            transfer_ms_per_pdu=transfer_ms_per_pdu,
            decide_cost_per_eval_ms=DECIDE_COST_MS_PER_EVAL,
        ),
    )
    adaptive = _supervised_run(
        n=n,
        epochs=epochs,
        loads=schedule,
        policy=RuntimePolicy(
            adaptive=True,
            transfer_ms_per_pdu=transfer_ms_per_pdu,
            decide_cost_per_eval_ms=DECIDE_COST_MS_PER_EVAL,
        ),
    )
    stats = adaptive.adaptive_stats
    fallback_parity: Optional[bool] = None
    if stats.get("full_fallbacks", 0):
        fallback_parity = (
            adaptive.final_proc_ids == baseline.final_proc_ids
            and adaptive.final_vector == baseline.final_vector
        )
    return ChurnRow(
        scenario=scenario,
        epochs=epochs,
        clean_ms=clean_ms,
        baseline_ms=baseline.elapsed_ms,
        adaptive_ms=adaptive.elapsed_ms,
        speedup=baseline.elapsed_ms / adaptive.elapsed_ms,
        win=adaptive.elapsed_ms < baseline.elapsed_ms,
        answer_parity=(
            baseline.answer == clean_answer and adaptive.answer == clean_answer
        ),
        baseline_repartitions=baseline.repartitions,
        baseline_moved=baseline.moved_pdus_total,
        baseline_searches=baseline.decide_searches,
        adaptive_repartitions=adaptive.repartitions,
        adaptive_moved=adaptive.moved_pdus_total,
        adaptive_searches=adaptive.decide_searches,
        trips=stats.get("trips", 0),
        holds=stats.get("holds", 0),
        migrations=stats.get("migrations", 0),
        vetoes=stats.get("vetoes", 0),
        fallbacks=stats.get("full_fallbacks", 0),
        fallback_parity=fallback_parity,
    )


def churn_scenarios(
    victims: Sequence[int], epochs: int
) -> list[tuple[str, LoadSchedule]]:
    """The three canonical churn shapes over the given victim nodes.

    ``victims`` are worker processors *inside* the current decomposition
    (a load on a node outside it is invisible to both policies).  Flapping
    alternates between two victims so a drop-the-victim policy keeps
    finding the next burst inside its decomposition; the rolling hot spot
    walks all of them; the step parks heavy load on one.
    """
    if len(victims) < 2:
        raise ValueError("churn scenarios need at least two victim nodes")
    start = 4  # settle epochs: let both policies measure the clean world first
    return [
        (
            "flap",
            LoadSchedule.flapping(
                victims[:2],
                load=CHURN_LOAD,
                period_epochs=6,
                burst_epochs=2,
                horizon_epochs=epochs,
                start_epoch=start,
            ),
        ),
        (
            "rolling",
            LoadSchedule.rolling(
                victims,
                load=CHURN_LOAD,
                dwell_epochs=8,
                horizon_epochs=epochs,
                start_epoch=start,
            ),
        ),
        (
            "step",
            LoadSchedule.step(
                victims[1], at_epoch=start + 2, load=CHURN_STEP_LOAD
            ),
        ),
    ]


def churn_grid(
    *,
    n: int = N,
    epochs: int = CHURN_EPOCHS,
    workers: Optional[int] = None,
) -> list[ChurnRow]:
    """The adaptive-vs-always-research benchmark over the churn scenarios.

    Victims are the slow-cluster (ipc) workers of the clean decomposition:
    nodes both policies start with, so neither gets free capacity the
    other cannot see.  Scenario rows are independent and fan out across
    processes with ``workers``.
    """
    _prime_cost_database()
    db = _cost_database()
    transfer_ms_per_pdu = churn_transfer_ms_per_pdu(db, n)
    clean = _supervised_run(
        n=n,
        epochs=epochs,
        policy=RuntimePolicy(
            transfer_ms_per_pdu=transfer_ms_per_pdu,
            decide_cost_per_eval_ms=DECIDE_COST_MS_PER_EVAL,
        ),
    )
    network = paper_testbed()
    managers = {c.processors[0].proc_id for c in network.clusters}
    slow_cluster = {p.proc_id for p in network.clusters[-1].processors}
    victims = [
        pid
        for pid in clean.final_proc_ids
        if pid in slow_cluster and pid not in managers
    ]
    if len(victims) < 2:
        raise ValueError(
            f"decomposition at n={n} keeps {len(victims)} slow-cluster "
            "workers; the churn grid needs at least 2"
        )
    tasks = [
        (scenario, schedule, clean.elapsed_ms, clean.answer, n, epochs, transfer_ms_per_pdu)
        for scenario, schedule in churn_scenarios(victims[:4], epochs)
    ]
    return sweep(_churn_row, tasks, workers=workers, initializer=_prime_cost_database)


def churn_payload(
    rows: Sequence[ChurnRow], *, n: int = N, min_wins: int = CHURN_MIN_WINS
) -> dict:
    """The ``BENCH_adaptive_perf.json`` schema for a churn-grid run."""
    return {
        "adaptive_churn": {
            "n": n,
            "epochs": rows[0].epochs if rows else 0,
            "decide_cost_per_eval_ms": DECIDE_COST_MS_PER_EVAL,
            "scenarios": {
                r.scenario: {
                    "clean_ms": r.clean_ms,
                    "baseline_ms": r.baseline_ms,
                    "adaptive_ms": r.adaptive_ms,
                    "speedup": r.speedup,
                    "win": r.win,
                    "answer_parity": r.answer_parity,
                    "baseline_moved": r.baseline_moved,
                    "adaptive_moved": r.adaptive_moved,
                    "baseline_searches": r.baseline_searches,
                    "adaptive_searches": r.adaptive_searches,
                    "trips": r.trips,
                    "holds": r.holds,
                    "migrations": r.migrations,
                    "vetoes": r.vetoes,
                    "fallbacks": r.fallbacks,
                    "fallback_parity": r.fallback_parity,
                }
                for r in rows
            },
            "wins": sum(1 for r in rows if r.win),
            "min_wins": min_wins,
            "answer_parity_ok": all(r.answer_parity for r in rows),
            "fallback_parity_ok": all(r.fallback_parity is not False for r in rows),
        }
    }


def churn_report(
    *,
    n: int = N,
    epochs: int = CHURN_EPOCHS,
    workers: Optional[int] = None,
    telemetry=None,
) -> tuple[str, list[ChurnRow]]:
    """ASCII churn grid plus its rows; raises if answer parity breaks."""
    rows = churn_grid(n=n, epochs=epochs, workers=workers)
    broken = [r.scenario for r in rows if not r.answer_parity]
    if telemetry is not None:
        m = telemetry.metrics
        m.gauge("churn.scenarios", help="churn scenarios run").set(len(rows))
        m.gauge("churn.adaptive_wins", help="scenarios the adaptive policy won").set(
            sum(1 for r in rows if r.win)
        )
        m.gauge("churn.parity_broken", help="scenarios with a wrong answer").set(
            len(broken)
        )
        m.gauge(
            "churn.baseline_moved", help="PDUs the research baseline shipped"
        ).set(sum(r.baseline_moved for r in rows))
        m.gauge(
            "churn.adaptive_moved", help="PDUs the adaptive policy shipped"
        ).set(sum(r.adaptive_moved for r in rows))
    table = format_table(
        [
            "scenario",
            "parity",
            "clean ms",
            "research ms",
            "adaptive ms",
            "speedup",
            "win",
            "res moved",
            "ad moved",
            "trips",
            "holds",
            "migr",
            "veto",
            "fallback",
        ],
        [
            (
                r.scenario,
                "ok" if r.answer_parity else "BROKEN",
                r.clean_ms,
                r.baseline_ms,
                r.adaptive_ms,
                r.speedup,
                "yes" if r.win else "no",
                r.baseline_moved,
                r.adaptive_moved,
                r.trips,
                r.holds,
                r.migrations,
                r.vetoes,
                (
                    "-"
                    if r.fallback_parity is None
                    else ("parity" if r.fallback_parity else "DIVERGED")
                ),
            )
            for r in rows
        ],
        title=(
            f"E16b: adaptive repartitioning under churn (STEN-1 N={n}, "
            f"{epochs} epochs; hysteresis+migrate-k vs always-research)"
        ),
    )
    if broken:
        table += f"\n\nANSWER PARITY BROKEN: {broken}"
    return table, rows
