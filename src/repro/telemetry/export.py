"""Exporters: JSONL stream, Prometheus exposition text, and a summary table.

One stable serialization path for everything the subsystem records:

* :func:`write_jsonl` / :func:`read_jsonl` — a line-delimited stream of
  ``{"kind": "meta" | "metric" | "span", ...}`` records.  This is what
  ``repro … --metrics-out out.jsonl`` writes and what
  ``repro metrics-summary`` reads back.
* :func:`prometheus_text` — the Prometheus text exposition format
  (``# TYPE``/``# HELP`` headers, ``_bucket{le=…}``/``_sum``/``_count``
  for histograms).  :func:`validate_prometheus` is the matching lint,
  used by the CI smoke job.
* :func:`summary_table` — the human-facing table the
  ``metrics-summary`` CLI renders.

Everything here consumes the ``to_dict`` forms defined in
:mod:`repro.telemetry.metrics` and :mod:`repro.telemetry.spans`; nothing
reaches into live instruments, so files round-trip losslessly.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, TextIO, Tuple

from repro.telemetry.metrics import SNAPSHOT_SCHEMA

__all__ = [
    "write_jsonl",
    "dump_jsonl",
    "read_jsonl",
    "prometheus_text",
    "validate_prometheus",
    "summary_table",
]


# ---------------------------------------------------------------------------
# JSONL
# ---------------------------------------------------------------------------

def write_jsonl(
    stream: TextIO,
    snapshot: Dict[str, Any],
    spans: Sequence[Dict[str, Any]] = (),
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write one meta line, then one line per metric and per span.

    ``snapshot`` is a :meth:`MetricsRegistry.snapshot` dict; ``spans`` are
    :meth:`Span.to_dict` dicts.  Returns the number of lines written.
    Keys are sorted so identical states serialize to identical bytes —
    the determinism suites compare these files directly.
    """
    header: Dict[str, Any] = {
        "kind": "meta",
        "schema": snapshot.get("schema", SNAPSHOT_SCHEMA),
        "domain": snapshot.get("domain", "all"),
        "stamp": snapshot.get("stamp"),
    }
    if meta:
        header.update(meta)
    lines = 1
    stream.write(json.dumps(header, sort_keys=True) + "\n")
    # Payloads are nested under their own key: a metric dict carries its own
    # "kind" ("counter"/…) which must not collide with the line discriminator.
    for metric in snapshot.get("metrics", []):
        stream.write(
            json.dumps({"kind": "metric", "metric": metric}, sort_keys=True) + "\n"
        )
        lines += 1
    for span in spans:
        stream.write(
            json.dumps({"kind": "span", "span": span}, sort_keys=True) + "\n"
        )
        lines += 1
    return lines


def dump_jsonl(
    path: str,
    snapshot: Dict[str, Any],
    spans: Sequence[Dict[str, Any]] = (),
    *,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """:func:`write_jsonl` to a file path."""
    with open(path, "w", encoding="utf-8") as fh:
        return write_jsonl(fh, snapshot, spans, meta=meta)


def read_jsonl(path: str) -> Dict[str, Any]:
    """Parse a ``--metrics-out`` file back into its three record groups.

    Returns ``{"meta": dict, "metrics": [dict], "spans": [dict]}``.
    Unknown ``kind`` values raise — a file this module did not write is
    more usefully rejected than half-rendered.
    """
    meta: Dict[str, Any] = {}
    metrics: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            record = json.loads(raw)
            kind = record.pop("kind", None)
            if kind == "meta":
                meta = record
            elif kind == "metric":
                metrics.append(record["metric"])
            elif kind == "span":
                spans.append(record["span"])
            else:
                raise ValueError(
                    f"{path}:{lineno}: unknown telemetry record kind {kind!r}"
                )
    return {"meta": meta, "metrics": metrics, "spans": spans}


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")


def _prom_name(name: str) -> str:
    """``mmps.bytes_sent`` → ``mmps_bytes_sent`` (dots are invalid)."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _prom_value(value: Any) -> str:
    if value == float("inf"):
        return "+Inf"
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(metrics: Iterable[Dict[str, Any]]) -> str:
    """Render metric dicts in the Prometheus text exposition format.

    Counters and gauges become single samples with a ``domain`` label;
    histograms expand into cumulative ``_bucket{le=…}`` samples plus
    ``_sum`` and ``_count``.
    """
    out: List[str] = []
    for metric in sorted(metrics, key=lambda m: m["name"]):
        name = _prom_name(metric["name"])
        kind = metric["kind"]
        label = f'{{domain="{metric["domain"]}"}}'
        out.append(f"# TYPE {name} {kind}")
        if kind in ("counter", "gauge"):
            out.append(f"{name}{label} {_prom_value(metric['value'])}")
        elif kind == "histogram":
            cumulative = 0
            for bound, count in zip(metric["buckets"], metric["counts"]):
                cumulative += count
                out.append(
                    f'{name}_bucket{{domain="{metric["domain"]}",'
                    f'le="{_prom_value(float(bound))}"}} {cumulative}'
                )
            cumulative += metric["counts"][len(metric["buckets"])]
            out.append(
                f'{name}_bucket{{domain="{metric["domain"]}",le="+Inf"}} {cumulative}'
            )
            out.append(f"{name}_sum{label} {_prom_value(metric['sum'])}")
            out.append(f"{name}_count{label} {metric['count']}")
        else:
            raise ValueError(f"unknown metric kind {kind!r} for {name}")
    return "\n".join(out) + ("\n" if out else "")


_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>\+Inf|-Inf|NaN|[0-9eE.+-]+)$"
)


def validate_prometheus(text: str) -> List[str]:
    """Lint a Prometheus exposition body; returns problems (empty = clean).

    Checks the subset of the format this module emits: every ``# TYPE``
    names a valid metric and known kind, every sample line parses, every
    sample follows a ``# TYPE`` for its family, and histogram families
    carry ``_sum``/``_count``/a ``+Inf`` bucket.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    samples: Dict[str, List[str]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4:
                problems.append(f"line {lineno}: malformed TYPE comment: {line!r}")
                continue
            _, _, name, kind = parts
            if not _NAME_OK.match(name):
                problems.append(f"line {lineno}: invalid metric name {name!r}")
            if kind not in ("counter", "gauge", "histogram"):
                problems.append(f"line {lineno}: unknown metric kind {kind!r}")
            typed[name] = kind
            continue
        if line.startswith("#"):
            continue  # HELP or other comments: fine
        match = _SAMPLE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample: {line!r}")
            continue
        sample = match.group("name")
        family = re.sub(r"_(bucket|sum|count)$", "", sample)
        owner = sample if sample in typed else family
        if owner not in typed:
            problems.append(
                f"line {lineno}: sample {sample!r} has no preceding # TYPE"
            )
            continue
        samples.setdefault(owner, []).append(line)
    for name, kind in typed.items():
        family_samples = samples.get(name, [])
        if not family_samples:
            problems.append(f"metric {name!r} declared but has no samples")
            continue
        if kind == "histogram":
            joined = "\n".join(family_samples)
            for suffix in (f"{name}_bucket", f"{name}_sum", f"{name}_count"):
                if suffix not in joined:
                    problems.append(f"histogram {name!r} missing {suffix} samples")
            if 'le="+Inf"' not in joined:
                problems.append(f"histogram {name!r} missing the +Inf bucket")
    return problems


# ---------------------------------------------------------------------------
# Summary table (the metrics-summary CLI)
# ---------------------------------------------------------------------------

def _format_value(metric: Dict[str, Any]) -> str:
    if metric["kind"] == "histogram":
        count = metric["count"]
        if count == 0:
            return "count=0"
        mean = metric["sum"] / count
        return f"count={count} sum={metric['sum']:g} mean={mean:g}"
    value = metric["value"]
    return f"{value:g}" if isinstance(value, float) else str(value)


def summary_table(data: Dict[str, Any]) -> str:
    """Render a parsed ``--metrics-out`` file as a text report."""
    meta = data.get("meta", {})
    metrics = data.get("metrics", [])
    spans = data.get("spans", [])
    lines: List[str] = []
    lines.append(
        f"telemetry snapshot  schema={meta.get('schema', '?')}  "
        f"domain={meta.get('domain', '?')}  stamp={meta.get('stamp')}"
    )
    for key in sorted(k for k in meta if k not in ("schema", "domain", "stamp")):
        lines.append(f"  {key}: {meta[key]}")
    lines.append("")
    if metrics:
        rows: List[Tuple[str, str, str, str]] = [
            (m["name"], m["kind"], m["domain"], _format_value(m))
            for m in sorted(metrics, key=lambda m: (m["domain"], m["name"]))
        ]
        widths = [
            max(len(header), *(len(row[i]) for row in rows))
            for i, header in enumerate(("metric", "kind", "domain", "value"))
        ]
        header = ("metric", "kind", "domain", "value")
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    else:
        lines.append("(no metrics)")
    lines.append("")
    if spans:
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        lines.append(f"spans ({len(spans)} finished)")
        name_w = max(len(n) for n in by_name)
        for name in sorted(by_name):
            group = by_name[name]
            durations = [
                s["end"] - s["start"] for s in group if s.get("end") is not None
            ]
            total = sum(durations)
            lines.append(
                f"  {name.ljust(name_w)}  n={len(group):<5d} "
                f"total={total:g} mean={total / len(group):g}"
            )
    else:
        lines.append("(no spans)")
    return "\n".join(lines) + "\n"
