"""Exporters: JSONL round trip, Prometheus exposition + lint, summary table."""

import io

import pytest

from repro.telemetry import (
    MetricsRegistry,
    SpanRecorder,
    Telemetry,
    dump_jsonl,
    prometheus_text,
    read_jsonl,
    summary_table,
    validate_prometheus,
    write_jsonl,
)


def _registry():
    reg = MetricsRegistry()
    reg.counter("mmps.messages_sent", help="messages").inc(42)
    reg.gauge("queue.depth", domain="host").set(3.5)
    h = reg.histogram("decide_ms", buckets=(1.0, 10.0))
    h.observe(0.5)
    h.observe(20.0)
    return reg


def test_jsonl_round_trip(tmp_path):
    reg = _registry()
    clock = {"t": 0.0}
    spans = SpanRecorder(lambda: clock["t"])
    spans.start("run").end()
    path = tmp_path / "m.jsonl"
    lines = dump_jsonl(
        str(path),
        reg.snapshot(stamp=9.0),
        [s.to_dict() for s in spans.spans],
        meta={"command": "test"},
    )
    assert lines == 1 + 3 + 1  # meta + three metrics + one span
    data = read_jsonl(str(path))
    assert data["meta"]["command"] == "test"
    assert data["meta"]["stamp"] == 9.0
    assert [m["name"] for m in data["metrics"]] == [
        "decide_ms",
        "mmps.messages_sent",
        "queue.depth",
    ]
    # The nested payloads survive untouched — including the metric "kind".
    assert data["metrics"][1]["kind"] == "counter"
    assert data["metrics"][1]["value"] == 42
    assert data["spans"][0]["name"] == "run"


def test_jsonl_bytes_are_deterministic():
    reg = _registry()
    a, b = io.StringIO(), io.StringIO()
    write_jsonl(a, reg.snapshot(stamp=1.0))
    write_jsonl(b, reg.snapshot(stamp=1.0))
    assert a.getvalue() == b.getvalue()


def test_read_rejects_unknown_kind(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "mystery", "x": 1}\n')
    with pytest.raises(ValueError, match="unknown telemetry record kind"):
        read_jsonl(str(path))


def test_prometheus_text_shape():
    text = prometheus_text(_registry().snapshot()["metrics"])
    assert "# TYPE mmps_messages_sent counter" in text
    assert 'mmps_messages_sent{domain="sim"} 42' in text
    assert 'queue_depth{domain="host"} 3.5' in text
    # Histogram buckets are cumulative and end with +Inf.
    assert 'decide_ms_bucket{domain="sim",le="1.0"} 1' in text
    assert 'decide_ms_bucket{domain="sim",le="10.0"} 1' in text
    assert 'decide_ms_bucket{domain="sim",le="+Inf"} 2' in text
    assert 'decide_ms_sum{domain="sim"} 20.5' in text
    assert 'decide_ms_count{domain="sim"} 2' in text


def test_prometheus_lint_clean_on_own_output():
    assert validate_prometheus(prometheus_text(_registry().snapshot()["metrics"])) == []


def test_prometheus_lint_flags_garbage():
    problems = validate_prometheus(
        "# TYPE ok counter\n"
        "ok 1\n"
        "unheralded_sample 2\n"
        "# TYPE broken mystery-kind\n"
        "not a sample line\n"
        "# TYPE empty gauge\n"
    )
    text = "\n".join(problems)
    assert "no preceding # TYPE" in text
    assert "unknown metric kind" in text
    assert "unparseable sample" in text
    assert "declared but has no samples" in text


def test_prometheus_lint_demands_complete_histograms():
    problems = validate_prometheus(
        "# TYPE h histogram\n" 'h_bucket{le="1.0"} 1\n'
    )
    text = "\n".join(problems)
    assert "missing h_sum" in text
    assert "missing the +Inf bucket" in text


def test_summary_table_renders_metrics_and_spans(tmp_path):
    clock = {"t": 0.0}
    tel = Telemetry.for_sim(lambda: clock["t"])
    tel.metrics.counter("epochs").inc(4)
    handle = tel.spans.start("epoch")
    clock["t"] = 2.0
    handle.end()
    path = tmp_path / "m.jsonl"
    tel.dump(str(path), stamp=2.0, meta={"command": "unit"})
    text = summary_table(read_jsonl(str(path)))
    assert "command: unit" in text
    assert "epochs" in text and "counter" in text
    assert "epoch" in text and "n=1" in text
    assert "total=2" in text


def test_summary_table_handles_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    dump_jsonl(str(path), MetricsRegistry().snapshot())
    text = summary_table(read_jsonl(str(path)))
    assert "(no metrics)" in text
    assert "(no spans)" in text
