"""In-memory spans around calls into each layer's public functions.

The traced run patches the functions the table in ``NOTES.md`` names,
from outside the program: every wrapper records a span (name, start,
end, parent, operation id) or bumps a counter, then calls the original.
Spans stay in memory until the run ends and are written out once.

A target that no longer exists (a refactor renamed or deleted it) is
recorded as absent and its layer reads zero, so the benchmark keeps
running across refactors.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import weakref
from collections import Counter, defaultdict
from typing import Callable, Optional

from measure import self_time, union_length

#: Request ids of the serve-mix timed window start with this prefix; the
#: server-side tracer switches on at the first one it decodes.
TIMED_PREFIX = "t-"

#: Every per-layer metric: ``(name, unit, better)``.  ``*_ms`` metrics
#: are self time per operation unless ``NOTES.md`` says otherwise.
PER_LAYER = (
    ("server.decode_ms", "ms", "lower"),
    ("server.encode_ms", "ms", "lower"),
    ("server.window_wait_ms", "ms", "lower"),
    ("server.shed", "count", "lower"),
    ("batcher.tick_ms", "ms", "lower"),
    ("batcher.batch_size", "count", "higher"),
    ("batcher.coalesce_ratio", "ratio", "higher"),
    ("batcher.engine_builds", "count", "lower"),
    ("engine.memo_hit_share", "ratio", "higher"),
    ("engine.search_ms", "ms", "lower"),
    ("engine.zero_eval_share", "ratio", "higher"),
    ("engine.cache_entries", "count", "lower"),
    ("engine.cache_evictions", "count", "lower"),
    ("search.lower_ms", "ms", "lower"),
    ("search.lower_share_small", "ratio", "lower"),
    ("search.detect_ms", "ms", "lower"),
    ("search.decide_ms", "ms", "lower"),
    ("search.score_ms", "ms", "lower"),
    ("search.rows", "count", "lower"),
    ("search.evaluations", "count", "lower"),
    ("search.reestimate_ms", "ms", "lower"),
    ("search.mode_exact", "count", "lower"),
    ("search.mode_level", "count", "higher"),
    ("search.mode_streamed", "count", "lower"),
    ("runtime.gather_ms", "ms", "lower"),
    ("runtime.decide_ms", "ms", "lower"),
    ("runtime.probes", "count", "lower"),
    ("runtime.triage_ms", "ms", "lower"),
    ("runtime.transfer_ms", "ms", "lower"),
    ("runtime.execute_ms", "ms", "lower"),
    ("runtime.answer_ms", "ms", "lower"),
    ("runtime.searches", "count", "lower"),
    ("runtime.evaluations", "count", "lower"),
    ("runtime.repartitions", "count", "lower"),
    ("runtime.moved_pdus", "count", "lower"),
    ("telemetry.spans", "count", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.absent", "count", "lower"),
)

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "server.decode": "server.decode_ms",
    "server.encode": "server.encode_ms",
    "search.lower": "search.lower_ms",
    "search.detect": "search.detect_ms",
    "search.decide": "search.decide_ms",
    "search.score": "search.score_ms",
    "search.reestimate": "search.reestimate_ms",
    "runtime.gather": "runtime.gather_ms",
    "runtime.decide": "runtime.decide_ms",
    "runtime.triage": "runtime.triage_ms",
    "runtime.transfer": "runtime.transfer_ms",
    "runtime.execute": "runtime.execute_ms",
    "runtime.answer": "runtime.answer_ms",
}

#: ``ArraySearchResult.method`` -> mode counter.
_MODES = {
    "collapse-exact": "search.mode_exact",
    "collapse-level": "search.mode_level",
    "array-scan": "search.mode_streamed",
    "array-pruned": "search.mode_streamed",
}


class Tracer:
    """Spans as parallel lists, plus counters; one per traced process."""

    def __init__(self) -> None:
        self.clock: Callable[[], float] = time.perf_counter
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[object] = []
        self.counters: Counter = Counter()
        self.absent: list[str] = []
        #: Spans and counters are recorded only while active.
        self.active = False
        #: The operation new spans belong to (in-process workloads).
        self.op: object = None
        self._stack: list[int] = []
        # serve-mix bookkeeping, keyed by request id.
        self.last_request: Optional[str] = None
        self.decode_end: dict[str, float] = {}
        self.waits: dict[str, float] = {}
        self.tick_of: dict[str, int] = {}
        self._engines: "weakref.WeakSet" = weakref.WeakSet()
        #: Strong references: the state is read after the server has
        #: dropped its engines.
        self._caches: list = []

    # -- recording ---------------------------------------------------------------

    def begin(self, name: str, op: object = None) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(self.clock())
        self.ends.append(float("nan"))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op if op is None else op)
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        now = self.clock()
        self.ends[idx] = now
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        elif idx in self._stack:
            self._stack.remove(idx)
        return now

    def count(self, name: str, n: float = 1) -> None:
        if self.active:
            self.counters[name] += n

    def inside(self, name: str) -> bool:
        return any(self.names[i] == name for i in self._stack)

    def innermost(self) -> Optional[str]:
        return self.names[self._stack[-1]] if self._stack else None

    def cache_state(self) -> tuple[int, int]:
        """``(entries, evictions)`` summed over every SearchCache built."""
        return (
            sum(int(c.entries) for c in self._caches),
            sum(int(c.evictions) for c in self._caches),
        )

    # -- output ------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line, then a summary line."""
        entries, evictions = self.cache_state()
        with open(path, "w") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(json.dumps(row, separators=(",", ":")) + "\n")
            summary = {
                "counters": dict(self.counters),
                "absent": self.absent,
                "waits": self.waits,
                "tick_of": self.tick_of,
                "cache_entries": entries,
                "cache_evictions": evictions,
            }
            fh.write(json.dumps({"summary": summary}) + "\n")


def load(path: str) -> tuple[Tracer, dict]:
    """Read a :meth:`Tracer.dump` file back; returns ``(tracer, summary)``."""
    tr = Tracer()
    summary: dict = {}
    with open(path) as fh:
        for line in fh:
            row = json.loads(line)
            if isinstance(row, dict):
                summary = row["summary"]
                continue
            name, start, end, parent, op = row
            tr.names.append(name)
            tr.starts.append(start)
            tr.ends.append(end)
            tr.parents.append(parent)
            tr.ops.append(op)
    tr.counters.update(summary.get("counters", {}))
    tr.absent = list(summary.get("absent", []))
    tr.waits = dict(summary.get("waits", {}))
    tr.tick_of = {k: int(v) for k, v in summary.get("tick_of", {}).items()}
    return tr, summary


# -- aggregation -----------------------------------------------------------------


def children_of(tr: Tracer) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(tr.parents):
        if parent >= 0:
            kids[parent].append(idx)
    return kids


def self_times(tr: Tracer) -> list[float]:
    """Self time (seconds) of every span."""
    kids = children_of(tr)
    return [
        self_time(
            tr.starts[i],
            tr.ends[i],
            ((tr.starts[c], tr.ends[c]) for c in kids.get(i, ())),
        )
        for i in range(len(tr.names))
    ]


def op_coverage(tr: Tracer) -> float:
    """Share of operation wall time covered by the operation's child spans."""
    kids = children_of(tr)
    covered = wall = 0.0
    for i, name in enumerate(tr.names):
        if name != "op":
            continue
        wall += tr.ends[i] - tr.starts[i]
        covered += union_length(
            ((tr.starts[c], tr.ends[c]) for c in kids.get(i, ())),
            clip=(tr.starts[i], tr.ends[i]),
        )
    return covered / wall if wall > 0 else 0.0


def layer_metrics(tr: Tracer, n_ops: int, extra: Optional[dict] = None) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from a finished trace; ``extra``
    supplies (or overrides) the ones measured outside the spans."""
    selfs = self_times(tr)
    by_name: dict[str, float] = defaultdict(float)
    wall_by_name: dict[str, list[float]] = defaultdict(list)
    for i, name in enumerate(tr.names):
        by_name[name] += selfs[i]
        wall_by_name[name].append(tr.ends[i] - tr.starts[i])
    c = tr.counters
    per_op = 1.0 / max(1, n_ops)
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = by_name.get(span, 0.0) * 1e3 * per_op
    out["server.window_wait_ms"] = sum(tr.waits.values()) * 1e3 * per_op
    out["server.shed"] = c["server.shed"]
    ticks = wall_by_name.get("batcher.tick", [])
    out["batcher.tick_ms"] = _mean(ticks) * 1e3
    if c["batcher.ticks"]:
        out["batcher.batch_size"] = c["batcher.requests"] / c["batcher.ticks"]
    fresh = c["engine.fresh_searches"]
    if c["batcher.requests"]:
        out["batcher.coalesce_ratio"] = c["batcher.requests"] / max(1, fresh)
    out["batcher.engine_builds"] = c["batcher.engine_builds"]
    groups = c["engine.memo_hits"] + fresh
    if groups:
        out["engine.memo_hit_share"] = c["engine.memo_hits"] / groups
    if fresh:
        out["engine.zero_eval_share"] = c["engine.zero_eval"] / fresh
    out["engine.search_ms"] = _mean(wall_by_name.get("engine.decide_exact", [])) * 1e3
    out["search.rows"] = c["search.rows"] * per_op
    out["search.evaluations"] = c["search.evaluations"] * per_op
    for mode in set(_MODES.values()):
        out[mode] = c[mode]
    out["runtime.probes"] = c["runtime.probes"] * per_op
    out["telemetry.spans"] = c["telemetry.spans"] * per_op
    out["trace.absent"] = len(tr.absent)
    out.update(extra or {})
    return out


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


# -- wrappers ----------------------------------------------------------------------


def _span(name: str):
    def factory(tr: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = tr.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end(idx)

        return wrapper

    return factory


def _counted(name: str):
    def factory(tr: Tracer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tr.count(name)
            return fn(*args, **kwargs)

        return wrapper

    return factory


def _decode(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tr.clock()
        request = fn(*args, **kwargs)
        if not tr.active and request.id.startswith(TIMED_PREFIX):
            tr.active = True
        if tr.active:
            idx = tr.begin("server.decode", op=request.id)
            tr.starts[idx] = start
            tr.end(idx)
            tr.last_request = request.id
        return request

    return wrapper


def _restrict(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tr.active:
            return fn(*args, **kwargs)
        rid = tr.last_request
        idx = tr.begin("server.decode", op=rid)
        try:
            return fn(*args, **kwargs)
        finally:
            tr.decode_end[rid] = tr.end(idx)

    return wrapper


def _encode_line(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(obj, *args, **kwargs):
        if not tr.active:
            return fn(obj, *args, **kwargs)
        idx = tr.begin("server.encode", op=obj.get("id"))
        try:
            return fn(obj, *args, **kwargs)
        finally:
            tr.end(idx)

    return wrapper


def _try_admit(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rejection = fn(*args, **kwargs)
        if rejection is not None:
            tr.count("server.shed")
        return rejection

    return wrapper


def _tick(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, items, *args, **kwargs):
        if not tr.active:
            return fn(self, items, *args, **kwargs)
        idx = tr.begin("batcher.tick", op="tick")
        start = tr.starts[idx]
        for item in items:
            rid = item.request.id
            decoded = tr.decode_end.pop(rid, None)
            if decoded is not None:
                tr.waits[rid] = start - decoded
            tr.tick_of[rid] = idx
        tr.count("batcher.ticks")
        tr.count("batcher.requests", len(items))
        try:
            return fn(self, items, *args, **kwargs)
        finally:
            tr.end(idx)

    return wrapper


def _engine_for(tr: Tracer, fn):
    inner = _span("batcher.engine_for")(tr, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        engine = inner(*args, **kwargs)
        if engine not in tr._engines:
            tr._engines.add(engine)
            tr.count("batcher.engine_builds")
        return engine

    return wrapper


def _cached_exact(tr: Tracer, fn):
    inner = _span("engine.cached_exact")(tr, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        nested = tr.inside("engine.decide_exact")
        hit = inner(*args, **kwargs)
        if hit is not None and not nested:
            tr.count("engine.memo_hits")
        return hit

    return wrapper


def _decide_exact(tr: Tracer, fn):
    inner = _span("engine.decide_exact")(tr, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        decision = inner(*args, **kwargs)
        tr.count("engine.fresh_searches")
        if decision.evaluations == 0:
            tr.count("engine.zero_eval")
        return decision

    return wrapper


def _search_cache_init(tr: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        fn(self, *args, **kwargs)
        tr._caches.append(self)

    return wrapper


def _decide_counts(tr: Tracer, fn):
    inner = _span("search.decide")(tr, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = inner(*args, **kwargs)
        tr.count("search.evaluations", result.evaluations)
        mode = _MODES.get(result.method)
        if mode is not None:
            tr.count(mode)
        return result

    return wrapper


def _score_block(tr: Tracer, fn):
    inner = _span("search.score")(tr, fn)

    @functools.wraps(fn)
    def wrapper(self, n, *args, **kwargs):
        tr.count("search.rows", n)
        return inner(self, n, *args, **kwargs)

    return wrapper


def _estimate(counts_probe: bool):
    """``CycleEstimator.estimate``/``partition_vector``: a probe when the
    heuristic runs it inside ``DecisionEngine.decide``, else the scalar
    re-estimate of an oracle's winner."""

    def factory(tr: Tracer, fn):
        reestimate = _span("search.reestimate")(tr, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            if tr.inside("runtime.decide"):
                if counts_probe:
                    tr.count("runtime.probes")
                return fn(*args, **kwargs)
            if tr.innermost() == "search.reestimate":
                return fn(*args, **kwargs)
            return reestimate(*args, **kwargs)

        return wrapper

    return factory


#: ``(module, attribute path, wrapper factory)``: the calls each layer's
#: metrics time.  Functions another module imported by name are patched
#: where they are called from.
TARGETS = (
    # server
    ("repro.server.service", "decode_request", _decode),
    ("repro.server.service", "restrict_pool", _restrict),
    ("repro.server.service", "encode_line", _encode_line),
    ("repro.server.service", "error_reply", _span("server.encode")),
    ("repro.server.batcher", "decision_reply", _span("server.encode")),
    ("repro.server.batcher", "error_reply", _span("server.encode")),
    ("repro.server.admission", "AdmissionController.try_admit", _try_admit),
    # batcher
    ("repro.server.batcher", "Coalescer.run", _tick),
    ("repro.server.batcher", "EnginePool.engine_for", _engine_for),
    # engine
    ("repro.partition.engine", "DecisionEngine.cached_exact", _cached_exact),
    ("repro.partition.engine", "DecisionEngine.decide_exact", _decide_exact),
    ("repro.partition.warmstart", "SearchCache.__init__", _search_cache_init),
    # search
    ("repro.partition.arrayengine", "ArrayCycleEstimator.__init__", _span("search.lower")),
    ("repro.partition.collapse", "detect_equivalence_classes", _span("search.detect")),
    ("repro.partition.collapse", "CollapsedSearchEngine.decide_counts", _decide_counts),
    ("repro.partition.arrayengine", "ArraySearchEngine.decide_counts", _decide_counts),
    ("repro.partition.arrayengine", "ArrayCycleEstimator.score_block", _score_block),
    ("repro.partition.estimator", "CycleEstimator.estimate", _estimate(True)),
    ("repro.partition.estimator", "CycleEstimator.partition_vector", _estimate(False)),
    # runtime
    ("repro.partition.runtime", "gather_available_resources_resilient", _span("runtime.gather")),
    ("repro.partition.engine", "DecisionEngine.decide", _span("runtime.decide")),
    ("repro.partition.runtime", "classify_epoch", _span("runtime.triage")),
    ("repro.partition.runtime", "completion_skew", _span("runtime.triage")),
    ("repro.partition.dynamic", "HysteresisController.observe", _span("runtime.triage")),
    ("repro.partition.runtime", "transfer_plan", _span("runtime.transfer")),
    ("repro.partition.runtime", "migrate_k_counts", _span("runtime.transfer")),
    ("repro.partition.runtime", "rebalance_counts", _span("runtime.transfer")),
    ("repro.partition.runtime", "SimulatedEpochExecutor.run_epoch", _span("runtime.execute")),
    ("repro.partition.runtime", "_block_value", _span("runtime.answer")),
    # telemetry
    ("repro.telemetry.spans", "SpanRecorder.start", _counted("telemetry.spans")),
    ("repro.telemetry.spans", "SpanRecorder.event", _counted("telemetry.spans")),
)


def install(tr: Tracer) -> None:
    """Patch every target; a missing one is recorded in ``tr.absent``."""
    for module_name, path, factory in TARGETS:
        try:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            tr.absent.append(f"{module_name}.{path}")
            continue
        setattr(owner, attr, factory(tr, original))
