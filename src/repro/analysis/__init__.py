"""``repro.analysis`` — the ``repro lint`` static-analysis subsystem.

An AST-based linter purpose-built for this reproduction (see
docs/static-analysis.md): a rule registry, per-line ``# repro:
noqa[rule-name]`` suppressions, text/JSON/SARIF reporters, content-hash
incremental caching, and eight paper-grounded rules:

``unit-consistency``
    dimensional analysis over the :mod:`repro.units` naming conventions —
    the shape of the paper's printed Eq 3 erratum;
``callback-purity``
    :mod:`repro.model.phases` annotation callbacks must be pure and
    deterministic (the partitioner re-evaluates them; replay recovery
    assumes bit-exact re-execution);
``sim-determinism``
    entropy must flow through the ``sim/rng.py`` named streams and time
    through the injectable clock in simulation-critical code;
``engine-parity``
    numeric constants must not be duplicated between the scalar estimator
    and the array engine;
``telemetry-determinism``
    sim-critical code must record sim-domain (deterministic, clock-domain
    verified) telemetry; host-domain instruments there need an explicit
    suppression explaining why;
``clock-domain``
    flow-sensitive taint over each function's CFG, interprocedural via
    call summaries: sim-clock values (ManualClock, ``*_sim_ms``) and
    host-clock values (``time.perf_counter``, ``*_host_ms``/``wall_*``)
    must never be added, subtracted, or compared;
``unit-flow``
    extends ``unit-consistency`` across call boundaries — parameter and
    return units flow through the module-granular call graph
    (:mod:`repro.analysis.callgraph`) as function summaries;
``workspace-escape``
    borrowed scratch (``ArrayWorkspace`` buffer views, ring-buffer
    internals) must not escape into returned or longer-lived structures
    without an explicit copy.

The last three share a whole-program dataflow layer: per-function CFGs
(:mod:`repro.analysis.cfg`), a generic forward-dataflow solver
(:mod:`repro.analysis.dataflow`), and a memoized project call graph.

Importing this package registers the built-in rules.
"""

from __future__ import annotations

from repro.analysis.aliascheck import WorkspaceEscapeRule
from repro.analysis.callgraph import CallGraph, build_callgraph, project_callgraph
from repro.analysis.cfg import CFG, BasicBlock, build_cfg
from repro.analysis.clockcheck import ClockDomainRule
from repro.analysis.dataflow import FlowAnalysis, own_exprs, solve
from repro.analysis.determinism import SimDeterminismRule
from repro.analysis.engine import (
    Finding,
    LintError,
    ParsedModule,
    Project,
    Rule,
    analyze_paths,
    collect_python_files,
    register,
    registered_rules,
    rule_names,
)
from repro.analysis.parity import EngineParityRule
from repro.analysis.purity import CallbackPurityRule
from repro.analysis.reporters import (
    REPORTERS,
    render_json,
    render_sarif,
    render_text,
)
from repro.analysis.telemetrycheck import TelemetryDeterminismRule
from repro.analysis.unitcheck import UnitConsistencyRule, format_unit, name_unit
from repro.analysis.unitflow import UnitFlowRule

__all__ = [
    "Finding",
    "LintError",
    "ParsedModule",
    "Project",
    "Rule",
    "register",
    "registered_rules",
    "rule_names",
    "analyze_paths",
    "collect_python_files",
    "REPORTERS",
    "render_text",
    "render_json",
    "render_sarif",
    "BasicBlock",
    "CFG",
    "build_cfg",
    "FlowAnalysis",
    "own_exprs",
    "solve",
    "CallGraph",
    "build_callgraph",
    "project_callgraph",
    "UnitConsistencyRule",
    "CallbackPurityRule",
    "SimDeterminismRule",
    "EngineParityRule",
    "TelemetryDeterminismRule",
    "ClockDomainRule",
    "UnitFlowRule",
    "WorkspaceEscapeRule",
    "format_unit",
    "name_unit",
]
