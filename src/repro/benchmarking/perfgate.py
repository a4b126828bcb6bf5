"""One record shape for every committed benchmark, and one gate over it.

Every ``BENCH_*.json`` at the repo root is a *benchmark record* built by
:func:`record`::

    {"bench": "partition",            # which harness wrote it
     "scenario": {...},               # inputs + numbers no check reads
     "invariants": {name: bool},      # correctness: must be true
     "exact": {name: value},          # deterministic outputs: must not move
     "ratios": {name: metric},        # machine-independent numbers
     "absolute": {name: metric}}      # wall-clock numbers of one machine

A *metric* is ``{"value": v, "better": "higher" | "lower"}`` plus an
optional ``"bound"`` (a committed floor or ceiling).  Names are dotted
and flat (``array.decision``, ``64.decide_ms``, ``flap.speedup``).

:func:`check` compares a fresh record against the committed baseline:

1. ``factor <= 1`` raises :class:`ValueError`;
2. records of different benches are one problem, ``payload kinds differ``;
3. every current invariant must be true;
4. every ``bound`` in the current ``ratios`` and ``absolute`` always
   holds (``higher``: value >= bound; ``lower``: value <= bound);
5. every name in a baseline section must be present in current;
6. ``exact`` values must equal the baseline's;
7. ``ratios`` may not drift past ``factor`` in the worse direction;
   ``absolute`` values get the same drift check only under ``strict``,
   because wall-clock rates do not transfer between machines.

A check that did not run is left out of its section, so against a
baseline where it ran it fails as missing (rule 5).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

__all__ = [
    "SECTIONS",
    "record",
    "metric",
    "check",
    "format_problems",
]

#: The gated sections of a record, in report order.
SECTIONS = ("invariants", "exact", "ratios", "absolute")

_BETTER = ("higher", "lower")


def metric(value: float, better: str, bound: Optional[float] = None) -> dict:
    """One ``ratios``/``absolute`` entry."""
    if better not in _BETTER:
        raise ValueError(f"better must be one of {_BETTER}, got {better!r}")
    entry: dict[str, Any] = {"value": value, "better": better}
    if bound is not None:
        entry["bound"] = bound
    return entry


def record(
    bench: str,
    *,
    scenario: Optional[Mapping[str, Any]] = None,
    invariants: Optional[Mapping[str, bool]] = None,
    exact: Optional[Mapping[str, Any]] = None,
    ratios: Optional[Mapping[str, dict]] = None,
    absolute: Optional[Mapping[str, dict]] = None,
) -> dict[str, Any]:
    """A benchmark record with every section present (possibly empty)."""
    return {
        "bench": bench,
        "scenario": dict(scenario or {}),
        "invariants": {k: bool(v) for k, v in (invariants or {}).items()},
        "exact": dict(exact or {}),
        "ratios": dict(ratios or {}),
        "absolute": dict(absolute or {}),
    }


def check(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    factor: float = 2.0,
    strict: bool = False,
) -> list[str]:
    """Problems in ``current`` relative to ``baseline`` (empty = pass)."""
    if factor <= 1.0:
        raise ValueError(f"factor must exceed 1.0, got {factor}")
    kinds = (baseline.get("bench"), current.get("bench"))
    if kinds[0] != kinds[1]:
        return [f"payload kinds differ: {kinds[0]} vs {kinds[1]}"]
    problems = [
        f"invariant {name} is false"
        for name, ok in current.get("invariants", {}).items()
        if ok is not True
    ]
    for section in ("ratios", "absolute"):
        for name, m in current.get(section, {}).items():
            value, bound = m["value"], m.get("bound")
            if bound is None:
                continue
            if m["better"] == "higher" and value < bound:
                problems.append(f"{name} below committed floor: {value:g} < {bound:g}")
            elif m["better"] == "lower" and value > bound:
                problems.append(f"{name} over budget: {value:g} > {bound:g}")
    for section in SECTIONS:
        now = current.get(section, {})
        for name, base in baseline.get(section, {}).items():
            if name not in now:
                problems.append(f"{section} {name!r} missing from current payload")
            elif section == "exact":
                if now[name] != base:
                    problems.append(f"{name} drifted: {base!r} -> {now[name]!r}")
            elif section == "ratios" or (section == "absolute" and strict):
                b, c = base["value"], now[name]["value"]
                if c * factor < b if base["better"] == "higher" else c > b * factor:
                    problems.append(f"{name} regressed >{factor:g}x: {b:g} -> {c:g}")
    return problems


def format_problems(problems: list[str]) -> str:
    """Human-readable verdict for CI logs."""
    if not problems:
        return "perf gate: OK"
    return "\n".join(["perf gate: REGRESSION DETECTED"] + [f"  - {p}" for p in problems])
