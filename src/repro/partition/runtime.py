"""The fault-tolerant partitioning runtime (supervisor).

The paper partitions once and runs to completion; its §7 future work — and
the availability-churn literature that followed (logical homogeneous
clusters, adaptive self-clustering repartitioning) — both observe that on
shared workstation networks the processor pool *changes under you*: nodes
pick up external load, vanish, and manager queries hang.  This module
closes that loop with a supervisor wrapping gather → partition → execute
cycles:

* per-epoch measurements are classified by
  :func:`~repro.partition.dynamic.classify_epoch` into healthy, slowed
  (external load) and dead (fail-stop) ranks;
* node loss triggers a fresh resilient gathering sweep
  (:func:`~repro.partition.available.gather_available_resources_resilient`
  — per-manager timeout, retry, exponential backoff) and a full re-run of
  the §5 heuristic on the surviving clusters;
* slowdown triggers the measured Eq 3 rebalance
  (:func:`~repro.partition.dynamic.rebalance_counts`);
* every decomposition change goes through one commit step, which bills a
  :func:`~repro.partition.dynamic.transfer_plan` to the clock and records
  it in a structured audit trail (epoch, trigger, old/new configuration,
  moved PDUs, retry counts) that serializes to plain dicts.

**Failure model** (see ``docs/resilience.md``): fail-stop nodes with
recoverable partitions — a lost node's PDU block is re-fetched from its
checkpoint/peer replica by the new owners, so the epoch the failure
interrupted is *replayed* on the survivors and the final answer is exactly
the failure-free answer.  All time comes from an injectable
:class:`ManualClock`; nothing reads the wall clock, so every run is
reproducible in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Any, NamedTuple, Optional, Sequence

import numpy as np

from repro.errors import PartitionError
from repro.hardware.network import HeterogeneousNetwork
from repro.hardware.processor import Processor
from repro.partition.available import (
    GatherReport,
    ManagerProbe,
    gather_available_resources_resilient,
)
from repro.partition.dynamic import (
    HysteresisController,
    classify_epoch,
    completion_skew,
    migrate_k_counts,
    moved_pdus,
    projected_epoch_ms,
    rebalance_counts,
    transfer_plan,
)
from repro.partition.engine import DecisionEngine
from repro.partition.heuristic import PartitionDecision
from repro.partition.warmstart import SearchCache
from repro.sim.failures import FailureSchedule, LoadSchedule
from repro.telemetry import NULL_TELEMETRY, Span, SpanRecorder, Telemetry
from repro.units import ops_time_ms

__all__ = [
    "ManualClock",
    "RuntimePolicy",
    "AuditEvent",
    "AuditTrail",
    "SimulatedEpochExecutor",
    "RuntimeResult",
    "PartitionRuntime",
]


class ManualClock:
    """A deterministic, injectable clock: advances only when told to.

    The runtime charges every modelled cost against it — epoch execution,
    manager query latency, retry backoff, PDU transfers — so tests assert
    exact elapsed figures and never sleep.
    """

    def __init__(self, start_ms: float = 0.0) -> None:
        self.now = float(start_ms)

    def advance(self, ms: float) -> float:
        """Move time forward by ``ms`` (must be non-negative; NaN is
        rejected too)."""
        if not ms >= 0:
            raise ValueError(f"cannot advance the clock by {ms} ms")
        self.now += ms
        return self.now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ManualClock now={self.now:.3f} ms>"


@dataclass(frozen=True)
class RuntimePolicy:
    """Tunables of the supervisor loop.

    The resilient gathering sweep runs at its own defaults (50 ms
    per-query timeout, 2 retries, 25 ms backoff doubled per retry,
    degrading to the surviving clusters; see ``docs/resilience.md``), and
    every supervised epoch executes one computation cycle.
    """

    #: Live per-PDU time ratio beyond which a slowdown rebalance fires
    #: (must exceed 1.0).
    imbalance_threshold: float = 1.25
    #: Modelled cost of shipping one PDU to its new owner (finite, >= 0).
    transfer_ms_per_pdu: float = 0.05
    #: Incremental decision layer (adaptive self-clustering): debounce
    #: slowdown triggers through a
    #: :class:`~repro.partition.dynamic.HysteresisController`, answer trips
    #: with migrate-k deltas instead of full searches, and veto migrations
    #: whose transfer bill exceeds the projected saving.  Mutually
    #: exclusive with ``slowdown_research``.
    adaptive: bool = False
    #: Consecutive over-threshold epochs before the controller trips.
    hysteresis_k: int = 3
    #: Skew below which a tripped controller re-arms (Schmitt trigger lower
    #: bound; must stay below ``imbalance_threshold``).
    clear_threshold: float = 1.1
    #: Max PDUs a single incremental repartition may move.
    migrate_k: int = 8
    #: Measured/reference epoch-time ratio beyond which the incremental
    #: layer distrusts its model and falls back to the full warm-started
    #: search.
    divergence_bound: float = 1.5
    #: Always-research baseline: answer every slowdown trip with a full
    #: gather + §5 search (the policy the adaptive layer is benchmarked
    #: against).  Mutually exclusive with ``adaptive``.
    slowdown_research: bool = False
    #: Modelled decision-compute cost charged to the sim clock per fresh
    #: ``T_c`` evaluation of a search (finite, >= 0; 0 = decisions are
    #: free, the pre-adaptive behaviour).  Cache hits and memoized
    #: decisions cost nothing, so warm starts show up as genuinely cheaper
    #: decisions.
    decide_cost_per_eval_ms: float = 0.0


class AuditEvent:
    """One structured entry of the runtime's decision audit trail.

    The trail is a *consumer* of the telemetry span stream: the supervisor
    records each decision as one ``runtime.audit`` span event whose attrs
    ARE the audit-JSON record (already JSON-ready — plain dicts, lists,
    ``None``), and this class is a typed read-only view over that span.
    One serialization path; the audit schema keys are unchanged from the
    pre-telemetry trail (pinned by the golden-file test).
    """

    __slots__ = ("span",)

    #: The audit-JSON schema, in serialization order.
    KEYS = (
        "epoch", "trigger", "old_config", "new_config", "old_vector",
        "new_vector", "moved_pdus", "replayed_pdus", "retries",
        "lost_clusters", "dead_ranks", "t_ms",
    )

    def __init__(self, span: Span) -> None:
        self.span = span

    # -- typed accessors (tuples/dicts as the pre-span trail exposed them) --------

    @property
    def epoch(self) -> int:
        """Epoch index the decision was taken at (-1 = bootstrap)."""
        return self.span.attrs["epoch"]

    @property
    def trigger(self) -> str:
        """``"bootstrap" | "node-loss" | "slowdown"``."""
        return self.span.attrs["trigger"]

    @property
    def old_config(self) -> Optional[dict[str, int]]:
        """Cluster -> processor count before the decision."""
        value = self.span.attrs["old_config"]
        return dict(value) if value is not None else None

    @property
    def new_config(self) -> dict[str, int]:
        return dict(self.span.attrs["new_config"])

    @property
    def old_vector(self) -> Optional[tuple[int, ...]]:
        """Per-rank PDU counts before the decision."""
        value = self.span.attrs["old_vector"]
        return tuple(value) if value is not None else None

    @property
    def new_vector(self) -> tuple[int, ...]:
        return tuple(self.span.attrs["new_vector"])

    @property
    def moved_pdus(self) -> int:
        """PDUs changing owner under the transfer plan."""
        return self.span.attrs["moved_pdus"]

    @property
    def replayed_pdus(self) -> int:
        """PDUs re-executed because their owner died mid-epoch."""
        return self.span.attrs["replayed_pdus"]

    @property
    def retries(self) -> dict[str, int]:
        """Gather retries per cluster (beyond the first try)."""
        return dict(self.span.attrs["retries"])

    @property
    def lost_clusters(self) -> tuple[str, ...]:
        """Clusters dropped by the degraded sweep."""
        return tuple(self.span.attrs["lost_clusters"])

    @property
    def dead_ranks(self) -> tuple[int, ...]:
        """Ranks whose nodes were declared dead."""
        return tuple(self.span.attrs["dead_ranks"])

    @property
    def t_ms(self) -> float:
        """Clock time the decision completed at."""
        return self.span.attrs["t_ms"]

    def to_record(self) -> dict[str, Any]:
        """A JSON-serializable plain-dict form (the audit-trail schema).

        The span attrs are stored JSON-ready, so this is the one
        serialization path — re-keyed here only to pin the key order.
        """
        return {key: self.span.attrs[key] for key in self.KEYS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AuditEvent epoch={self.epoch} trigger={self.trigger!r}>"


@dataclass
class AuditTrail:
    """Append-only record of every decision the supervisor took."""

    events: list[AuditEvent] = field(default_factory=list)

    def append(self, event: AuditEvent) -> None:
        self.events.append(event)

    def triggers(self) -> list[str]:
        return [e.trigger for e in self.events]

    def to_records(self) -> list[dict[str, Any]]:
        return [e.to_record() for e in self.events]

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


class SimulatedEpochExecutor:
    """Runs one epoch — one computation cycle — of the abstract workload on
    the current decomposition.

    Per rank, the per-PDU compute time follows the node's *effective*
    instruction rate (load-adjusted, so external load genuinely slows the
    measurement) over the dominant phase's per-PDU complexity.  A dead node
    reports ``None`` — the fail-stop signature
    :func:`~repro.partition.dynamic.classify_epoch` keys on.  The epoch's
    wall time (the max over live ranks, completion-time semantics) is
    charged to the supervisor's clock by the caller.
    """

    def __init__(self, computation) -> None:
        comp_phase = computation.dominant_computation_phase()
        self.op_kind = comp_phase.op_kind
        self.ops_per_pdu = comp_phase.complexity_value(computation.problem)

    def run_epoch(
        self, epoch: int, procs: Sequence[Processor], counts: Sequence[int]
    ) -> list[Optional[float]]:
        """Per-rank per-PDU times for this epoch (``None`` = rank's node died)."""
        measurements: list[Optional[float]] = []
        for proc in procs:
            if not proc.alive:
                measurements.append(None)
                continue
            rate = proc.effective_usec_per_op(self.op_kind, load_adjusted=True)
            # Per-PDU time: ops/pdu yields ms/pdu, by design.
            measurements.append(ops_time_ms(self.ops_per_pdu, rate))  # repro: noqa[unit-consistency]
        return measurements

    def epoch_duration_ms(
        self, measurements: Sequence[Optional[float]], counts: Sequence[int]
    ) -> float:
        """Completion time of the epoch: max over live ranks of A_i · τ_i."""
        live = [
            t * c for t, c in zip(measurements, counts) if t is not None
        ]
        return max(live) if live else 0.0


@dataclass
class RuntimeResult:
    """Outcome of a supervised run."""

    answer: int
    epochs: int
    audit: AuditTrail
    final_proc_ids: tuple[int, ...]
    final_vector: tuple[int, ...]
    elapsed_ms: float
    replayed_pdus: int
    #: Full gather+search decisions taken (bootstrap included).
    decide_searches: int = 0
    #: Fresh T_c evaluations those searches spent (memo hits cost zero).
    decide_evaluations: int = 0
    #: Plain-int decide.adaptive.* counters (all zero unless
    #: ``policy.adaptive``): trips, holds, migrations, vetoes,
    #: full_fallbacks.
    adaptive_stats: dict[str, int] = field(default_factory=dict)

    @property
    def repartitions(self) -> int:
        """Decomposition changes after bootstrap."""
        return sum(1 for e in self.audit if e.trigger != "bootstrap")

    @property
    def moved_pdus_total(self) -> int:
        return sum(e.moved_pdus for e in self.audit)


def _pdu_value(epoch: int, pdu: int) -> int:
    """Deterministic integer workload value of one PDU in one epoch.

    Pure integer arithmetic, independent of which rank owns the PDU — the
    property the answer-parity guarantee rests on.
    """
    return ((pdu * 2654435761) % 1000003 + 1) * (epoch + 1)


def _answer_prefix(num_pdus: int) -> np.ndarray:
    """``P[i]``: Σ :func:`_pdu_value` at epoch 0 (its epoch-free factor)
    over PDUs ``0..i-1``; exact in int64 below ~3.4e9 PDUs."""
    weights = _pdu_value(0, np.arange(num_pdus, dtype=np.int64))
    return np.concatenate(([0], np.cumsum(weights)))


def _block_value(prefix: np.ndarray, epoch: int, start: int, count: int) -> int:
    """Σ :func:`_pdu_value` over one block, O(1) from the run's table."""
    return int(prefix[start + count] - prefix[start]) * (epoch + 1)


class _Layout(NamedTuple):
    """The decomposition in force: each rank's processor, its PDU count,
    and processors per cluster."""

    procs: list[Processor]
    counts: list[int]
    config: dict[str, int]


class PartitionRuntime:
    """Supervises gather → partition → execute cycles with fault tolerance.

    Parameters
    ----------
    network:
        The heterogeneous network (its live node state is the ground truth
        failures mutate).
    computation:
        The annotated data-parallel computation to be decomposed.
    cost_db:
        Fitted cost database driving the §5 heuristic.
    policy:
        Supervisor tunables (:class:`RuntimePolicy`).
    clock:
        Injectable :class:`ManualClock`; a fresh one is created by default.
    probe:
        Manager-query injectable for the resilient gather (tests use it to
        model hung managers).
    failures:
        Epoch-indexed :class:`~repro.sim.failures.FailureSchedule` applied
        by the supervisor at each epoch start.
    loads:
        Epoch-indexed :class:`~repro.sim.failures.LoadSchedule` applied at
        each epoch start (after failures): external load slows live nodes
        without killing them — the churn the adaptive layer absorbs.
    mmps:
        Optional message system to notify of fail-stop events, so the
        transport layer also drops the dead endpoints.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` bundle.  Sim-domain
        counters/spans record against this runtime's :class:`ManualClock`,
        so an enabled bundle should be built as
        ``Telemetry.for_sim(lambda: clock.now)`` over the *same* clock.
        The audit trail records regardless: when the bundle is disabled,
        an internal always-on span recorder feeds the trail, so telemetry
        being off never loses audit records.
    """

    def __init__(
        self,
        network: HeterogeneousNetwork,
        computation,
        cost_db,
        *,
        policy: Optional[RuntimePolicy] = None,
        clock: Optional[ManualClock] = None,
        probe: Optional[ManagerProbe] = None,
        failures: Optional[FailureSchedule] = None,
        loads: Optional[LoadSchedule] = None,
        mmps=None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.network = network
        self.computation = computation
        self.cost_db = cost_db
        self.policy = policy or RuntimePolicy()
        self.clock = clock or ManualClock()
        self.probe = probe
        self.failures = failures or FailureSchedule()
        self.loads = loads or LoadSchedule()
        self.mmps = mmps
        policy = self.policy
        if policy.adaptive and policy.slowdown_research:
            raise PartitionError(
                "adaptive and slowdown_research are mutually exclusive policies"
            )
        # Each check is written so that NaN fails it.
        for name, ok, rule in (
            ("imbalance_threshold", policy.imbalance_threshold > 1.0, "exceed 1.0"),
            ("divergence_bound", policy.divergence_bound > 1.0, "exceed 1.0"),
            ("migrate_k", policy.migrate_k >= 1, "be >= 1"),
            (
                "transfer_ms_per_pdu",
                0 <= policy.transfer_ms_per_pdu < math.inf,
                "be finite and >= 0",
            ),
            (
                "decide_cost_per_eval_ms",
                0 <= policy.decide_cost_per_eval_ms < math.inf,
                "be finite and >= 0",
            ),
        ):
            if not ok:
                raise PartitionError(
                    f"{name} must {rule}, got {getattr(policy, name)}"
                )
        #: The debounce/hysteresis state machine (adaptive mode only; its
        #: constructor validates the threshold ordering).
        self.hysteresis: Optional[HysteresisController] = (
            HysteresisController(
                trip_threshold=policy.imbalance_threshold,
                clear_threshold=policy.clear_threshold,
                trip_after=policy.hysteresis_k,
            )
            if policy.adaptive
            else None
        )
        self.telemetry = telemetry or NULL_TELEMETRY
        # The audit trail consumes span events, so spans must exist even
        # with telemetry disabled: fall back to a private always-on recorder.
        self.spans = (
            self.telemetry.spans
            if self.telemetry.spans.enabled
            else SpanRecorder(lambda: self.clock.now, domain="sim")
        )
        metrics = self.telemetry.metrics
        self._m_epochs = metrics.counter(
            "runtime.epochs", help="supervised epochs executed"
        )
        self._m_triage = {
            outcome: metrics.counter(
                f"runtime.triage.{outcome}", help=f"epochs triaged {outcome}"
            )
            for outcome in ("healthy", "node_loss", "slowdown")
        }
        self._m_replayed = metrics.counter(
            "runtime.replayed_pdus", help="PDUs re-executed after node loss"
        )
        self._m_moved = metrics.counter(
            "runtime.moved_pdus", help="PDUs shipped by transfer plans"
        )
        self._m_gather_retries = metrics.counter(
            "runtime.gather.retries", help="manager-query retries beyond the first"
        )
        self._m_gather_lost = metrics.counter(
            "runtime.gather.lost_clusters", help="clusters dropped by degraded sweeps"
        )
        self._m_decide_ms = metrics.histogram(
            "runtime.decide_ms",
            help="simulated gather+partition decision latency (ms)",
        )
        self._m_adaptive = {
            name: metrics.counter(f"decide.adaptive.{name}", help=help_)
            for name, help_ in (
                ("trips", "epochs the hysteresis controller demanded action"),
                ("holds", "over-threshold epochs the debounce absorbed"),
                ("migrations", "committed migrate-k incremental repartitions"),
                ("vetoes", "migrations rejected by the cost-aware trigger"),
                ("full_fallbacks", "divergence-triggered full-search fallbacks"),
            )
        }
        self._m_saved_ms = metrics.histogram(
            "decide.adaptive.repartition_saved_ms",
            help="projected net saving (ms) of each committed migration",
        )
        #: Plain-int mirror of the decide.adaptive.* counters, so callers
        #: without a telemetry bundle (the churn grid's worker pool) still
        #: see the adaptive layer's behaviour in the RuntimeResult.
        self._adaptive_stats = {
            name: 0
            for name in ("trips", "holds", "migrations", "vetoes", "full_fallbacks")
        }
        self._decide_searches = 0
        self._decide_evaluations = 0
        self.num_pdus = computation.num_pdus_value()
        self.executor = SimulatedEpochExecutor(computation)
        self.audit = AuditTrail()
        #: The shared search facade (the same boundary the decision server
        #: drives), with the cross-epoch warm-start cache (scoped to this
        #: computation+cost_db): each search is seeded from the surviving
        #: prefix of the previous decision.
        self.decision_engine = DecisionEngine(
            computation,
            cost_db,
            cache=SearchCache(),
            metrics=self.telemetry.metrics,
        )
        self._last_decision: Optional[PartitionDecision] = None

    # -- gather + partition ------------------------------------------------------

    def _decide(self) -> tuple[_Layout, GatherReport]:
        """Gather resiliently and run the warm-started §5 search."""
        t_start = self.clock.now
        with self.spans.start("runtime.decide") as span:
            resources, report = gather_available_resources_resilient(
                self.network, probe=self.probe, clock=self.clock
            )
            usable = [r for r in resources if r.n_available > 0]
            if not usable:
                raise PartitionError(
                    "no surviving clusters with available processors "
                    f"(lost: {list(report.lost)})"
                )
            last = self._last_decision
            warm = last.counts_by_name() if last is not None else None
            decision = self.decision_engine.decide(usable, warm_start=warm)
            span.annotate(
                warm=warm is not None,
                lost=list(report.lost),
                config=decision.counts_by_name(),
            )
        self._m_gather_retries.inc(sum(report.retries.values()))
        self._m_gather_lost.inc(len(report.lost))
        # The decision's cost in *simulated* time: gather timeouts, retry
        # backoff, manager latency, and (when the policy prices it) the
        # search's fresh T_c evaluations all advance the ManualClock.
        # Memoized decisions report zero evaluations, so warm starts are
        # genuinely cheaper here, not just statistically.
        if self.policy.decide_cost_per_eval_ms > 0:
            self.clock.advance(
                decision.evaluations * self.policy.decide_cost_per_eval_ms
            )
        self._decide_searches += 1
        self._decide_evaluations += decision.evaluations
        self._m_decide_ms.observe(self.clock.now - t_start)
        self._last_decision = decision
        layout = _Layout(
            decision.config.processors(), list(decision.vector), decision.counts_by_name()
        )
        return layout, report

    # -- decomposition changes ---------------------------------------------------

    @staticmethod
    def _union_transfer(old: _Layout, new: _Layout) -> dict[tuple[int, int], int]:
        """Transfer plan across a (possibly) changed processor set.

        Ranks are aligned on the union of old and new processors (old
        order first), with absent processors holding zero PDUs, so
        :func:`transfer_plan`'s same-length contract holds.  Moves out of
        a dead processor's rank model recovery reads of its checkpointed
        block by the new owners.
        """
        universe = dict.fromkeys(p.proc_id for p in (*old.procs, *new.procs))
        old_by_id = {p.proc_id: c for p, c in zip(old.procs, old.counts)}
        new_by_id = {p.proc_id: c for p, c in zip(new.procs, new.counts)}
        old_vec = [old_by_id.get(pid, 0) for pid in universe]
        new_vec = [new_by_id.get(pid, 0) for pid in universe]
        return transfer_plan(old_vec, new_vec)

    def _commit(
        self,
        epoch: int,
        trigger: str,
        old: Optional[_Layout],
        new: _Layout,
        plan: dict[tuple[int, int], int],
        *,
        replayed: int = 0,
        report: Optional[GatherReport] = None,
        dead_ranks: Sequence[int] = (),
    ) -> _Layout:
        """Adopt ``new``: ship ``plan``'s PDUs on the clock, then record
        the change in the audit trail at the clock's new reading.

        Every decomposition the run adopts goes through here, bootstrap
        (no ``old``, an empty plan) included.
        """
        moved = moved_pdus(plan)
        self.clock.advance(moved * self.policy.transfer_ms_per_pdu)
        # One serialization path: the JSON-ready record is built once, as
        # the attrs of a span event; the trail's AuditEvent is a view on it.
        span = self.spans.event(
            "runtime.audit",
            epoch=epoch,
            trigger=trigger,
            old_config=dict(old.config) if old is not None else None,
            new_config=dict(new.config),
            old_vector=list(old.counts) if old is not None else None,
            new_vector=list(new.counts),
            moved_pdus=moved,
            replayed_pdus=replayed,
            retries=dict(report.retries) if report is not None else {},
            lost_clusters=list(report.lost) if report is not None else [],
            dead_ranks=list(dead_ranks),
            t_ms=self.clock.now,
        )
        self.audit.append(AuditEvent(span))
        self._m_moved.inc(moved)
        return new

    def _research(
        self,
        epoch: int,
        trigger: str,
        old: _Layout,
        *,
        replayed: int = 0,
        dead_ranks: Sequence[int] = (),
    ) -> _Layout:
        """Gather, search, and commit the union transfer onto the new
        processor set (re-admitting nodes whose load cleared, dropping
        dead ones and ones above the availability threshold).

        A full search installs a new world, so the hysteresis streak
        starts over.
        """
        new, report = self._decide()
        if self.hysteresis is not None:
            self.hysteresis.reset()
        return self._commit(
            epoch,
            trigger,
            old,
            new,
            self._union_transfer(old, new),
            replayed=replayed,
            report=report,
            dead_ranks=dead_ranks,
        )

    def _bump(self, name: str) -> None:
        """Advance one decide.adaptive.* counter and its plain-int mirror."""
        self._adaptive_stats[name] += 1
        self._m_adaptive[name].inc()

    # -- the supervisor loop -------------------------------------------------------

    def run(self, epochs: int) -> RuntimeResult:
        """Execute ``epochs`` supervised epochs; returns the exact answer.

        Invariant: every PDU is processed exactly once per epoch by *some*
        live rank — epochs interrupted by node loss are replayed on the
        survivors — so the returned integer answer equals the failure-free
        run's, whatever the failure schedule did.
        """
        if epochs < 1:
            raise PartitionError(f"epochs must be >= 1, got {epochs}")
        policy = self.policy
        run_span = self.spans.start("runtime.run", epochs=epochs)
        first, report = self._decide()
        layout = self._commit(-1, "bootstrap", None, first, {}, report=report)

        answer = 0
        prefix = _answer_prefix(self.num_pdus)
        replayed_total = 0
        #: Best (smallest) epoch duration seen since the last full search —
        #: the incremental layer's self-calibrating reference for the
        #: measured-vs-modelled divergence test.  None until re-measured.
        reference_ms: Optional[float] = None
        for epoch in range(epochs):
            epoch_span = self.spans.start("runtime.epoch", epoch=epoch)
            self._m_epochs.inc()
            for event in self.failures.failures_at(epoch):
                self.network.processor(event.proc_id).fail()
                if self.mmps is not None:
                    self.mmps.fail_processor(event.proc_id)
            for change in self.loads.changes_at(epoch):
                proc = self.network.processor(change.proc_id)
                if proc.alive:
                    proc.set_load(change.load)

            counts = layout.counts
            measurements = self.executor.run_epoch(epoch, layout.procs, counts)
            epoch_ms = self.executor.epoch_duration_ms(measurements, counts)
            self.clock.advance(epoch_ms)

            # Live ranks' contributions land immediately; dead ranks leave
            # their block missing for this epoch.
            offsets = list(accumulate(counts, initial=0))
            missing: list[tuple[int, int]] = []
            dead_ranks: list[int] = []
            for rank, t in enumerate(measurements):
                if t is None:
                    missing.append((offsets[rank], counts[rank]))
                    dead_ranks.append(rank)
                else:
                    answer += _block_value(prefix, epoch, offsets[rank], counts[rank])

            if dead_ranks:
                # Replay the lost blocks on the survivors (recovered from
                # checkpoint/replica per the fail-stop model), then shrink
                # to what the resilient sweep still reaches and re-run the
                # heuristic there.
                replay_pdus = sum(c for _, c in missing)
                for start, c in missing:
                    answer += _block_value(prefix, epoch, start, c)
                replayed_total += replay_pdus
                live = [t for t in measurements if t is not None]
                if live and replay_pdus:
                    speed = sum(1.0 / t for t in live)
                    self.clock.advance(replay_pdus / speed)
                layout = self._research(
                    epoch,
                    "node-loss",
                    layout,
                    replayed=replay_pdus,
                    dead_ranks=dead_ranks,
                )
                self._m_triage["node_loss"].inc()
                self._m_replayed.inc(replay_pdus)
                reference_ms = None
                epoch_span.annotate(outcome="node-loss", dead_ranks=dead_ranks).end()
                continue

            reference_ms = (
                epoch_ms if reference_ms is None else min(reference_ms, epoch_ms)
            )
            before = layout
            if policy.adaptive:
                # Incremental decision layer: watch the completion-time
                # skew (allocation error), debounce it, and answer trips
                # with bounded deltas unless the measured world has
                # diverged from the modelled one.
                assert self.hysteresis is not None  # policy.adaptive implies it
                skew = completion_skew(measurements, counts)
                if self.hysteresis.observe(skew).act:
                    self._bump("trips")
                    if epoch_ms / reference_ms > policy.divergence_bound:
                        # Sustained drift the delta planner cannot explain:
                        # distrust the incremental model and pay for one
                        # full warm-started search.
                        layout = self._research(epoch, "slowdown", layout)
                        self._bump("full_fallbacks")
                        reference_ms = None
                    else:
                        new_vec = list(
                            migrate_k_counts(counts, measurements, policy.migrate_k)
                        )
                        if new_vec != counts:
                            plan = transfer_plan(counts, new_vec)
                            bill = moved_pdus(plan) * policy.transfer_ms_per_pdu
                            saving = (
                                epoch_ms - projected_epoch_ms(measurements, new_vec)
                            ) * (epochs - epoch - 1)
                            if saving > bill:
                                layout = self._commit(
                                    epoch,
                                    "slowdown",
                                    layout,
                                    layout._replace(counts=new_vec),
                                    plan,
                                )
                                self._bump("migrations")
                                self._m_saved_ms.observe(saving - bill)
                            else:
                                # The transfer bill exceeds what the move
                                # would save over the remaining horizon.
                                self._bump("vetoes")
                elif skew > policy.imbalance_threshold:
                    self._bump("holds")
            elif policy.slowdown_research:
                # Always-research baseline: any over-threshold skew pays
                # for a full gather + search, immediately.
                if completion_skew(measurements, counts) > policy.imbalance_threshold:
                    layout = self._research(epoch, "slowdown", layout)
            elif classify_epoch(
                measurements, threshold=policy.imbalance_threshold
            ).imbalanced:
                new_vec = list(rebalance_counts(counts, measurements))
                if new_vec != counts:
                    layout = self._commit(
                        epoch,
                        "slowdown",
                        layout,
                        layout._replace(counts=new_vec),
                        transfer_plan(counts, new_vec),
                    )
            # Every commit installs a new layout object.
            outcome = "healthy" if layout is before else "slowdown"
            self._m_triage[outcome].inc()
            epoch_span.annotate(outcome=outcome).end()

        run_span.annotate(answer=answer, replayed_pdus=replayed_total).end()
        return RuntimeResult(
            answer=answer,
            epochs=epochs,
            audit=self.audit,
            final_proc_ids=tuple(p.proc_id for p in layout.procs),
            final_vector=tuple(layout.counts),
            elapsed_ms=self.clock.now,
            replayed_pdus=replayed_total,
            decide_searches=self._decide_searches,
            decide_evaluations=self._decide_evaluations,
            adaptive_stats=dict(self._adaptive_stats),
        )
