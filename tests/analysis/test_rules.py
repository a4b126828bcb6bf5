"""Per-rule behaviour on the known-good / known-bad fixture snippets."""

from pathlib import Path

from repro.analysis import analyze_paths

FIXTURES = Path(__file__).parent / "fixtures"


def _messages(path, rule):
    return [f.message for f in analyze_paths([path], select=[rule])]


# -- unit-consistency ---------------------------------------------------------


def test_unit_rule_flags_every_bad_units_shape():
    messages = _messages(FIXTURES / "bad_units.py", "unit-consistency")
    text = "\n".join(messages)
    assert "dimensional mismatch: ms + us" in text or (
        "dimensional mismatch: us + ms" in text
    )
    assert "usec_to_msec() argument 1 (usec) expects us, got ms" in text
    assert "unit-conversion shortcut" in text
    assert "total_ms is ms by naming convention" in text
    assert "wrong_return_unit_ms() returns ms by naming convention" in text
    assert "comparing a s quantity with a ms quantity" in text
    assert len(messages) >= 6


def test_unit_rule_passes_sound_conversions():
    assert _messages(FIXTURES / "good_units.py", "unit-consistency") == []


def test_unit_rule_cancels_exponents_through_products(tmp_path):
    src = tmp_path / "cancel.py"
    src.write_text(
        "from repro.units import US_PER_MS\n"
        "def roundtrip(elapsed_ms):\n"
        "    elapsed_usec = elapsed_ms * US_PER_MS\n"
        "    return elapsed_usec / US_PER_MS + elapsed_ms\n"
    )
    assert analyze_paths([src], select=["unit-consistency"]) == []


def test_unit_rule_is_conservative_about_unknown_operands(tmp_path):
    src = tmp_path / "unknown.py"
    src.write_text(
        "def f(elapsed_ms, mystery):\n"
        "    return elapsed_ms + mystery\n"
    )
    assert analyze_paths([src], select=["unit-consistency"]) == []


# -- callback-purity ----------------------------------------------------------


def test_purity_rule_flags_wall_clock_random_io_and_global():
    messages = _messages(FIXTURES / "bad_purity.py", "callback-purity")
    text = "\n".join(messages)
    assert "time.time()" in text
    assert "print()" in text
    assert "global state" in text
    assert "random" in text
    assert len(messages) >= 5


def test_purity_rule_passes_pure_callbacks():
    assert _messages(FIXTURES / "good_purity.py", "callback-purity") == []


# -- sim-determinism ----------------------------------------------------------


def test_determinism_rule_flags_entropy_and_clock_in_sim_paths():
    messages = _messages(
        FIXTURES / "repro" / "sim" / "bad_entropy.py", "sim-determinism"
    )
    text = "\n".join(messages)
    assert "default_rng" in text
    assert "random.random()" in text
    assert "time.perf_counter()" in text
    assert len(messages) == 3


def test_determinism_rule_passes_named_streams():
    path = FIXTURES / "repro" / "sim" / "good_entropy.py"
    assert _messages(path, "sim-determinism") == []


def test_determinism_rule_only_applies_to_sim_paths():
    # The same constructs outside sim/ and partition/runtime.py are fine.
    assert _messages(FIXTURES / "bad_purity.py", "sim-determinism") == []


# -- telemetry-determinism ----------------------------------------------------


def test_telemetry_rule_flags_host_domain_instruments_in_sim_paths():
    messages = _messages(
        FIXTURES / "repro" / "sim" / "bad_telemetry.py", "telemetry-determinism"
    )
    text = "\n".join(messages)
    assert "host-domain counter" in text
    assert "host-domain gauge" in text
    assert "host-domain histogram" in text
    assert "host-domain span recorder" in text
    assert "not a string literal" in text
    assert len(messages) == 5


def test_telemetry_rule_passes_sim_domain_and_suppressed_host():
    path = FIXTURES / "repro" / "sim" / "good_telemetry.py"
    assert _messages(path, "telemetry-determinism") == []


def test_telemetry_rule_only_applies_to_sim_critical_paths():
    # Host-domain instruments outside the scoped paths are fine.
    assert _messages(FIXTURES / "bad_purity.py", "telemetry-determinism") == []


# -- engine-parity ------------------------------------------------------------


def test_parity_rule_flags_constants_duplicated_across_the_pair():
    pair_dir = FIXTURES / "repro" / "partition"
    findings = analyze_paths([pair_dir], select=["engine-parity"])
    text = "\n".join(f.message for f in findings)
    assert "3.75" in text
    assert "0.062" in text
    assert "EQ1_INTERCEPT" in text
    # Findings land in both files of the pair.
    assert {Path(f.path).name for f in findings} == {"estimator.py", "arrayengine.py"}


def test_parity_rule_needs_both_engines_present():
    only_one = FIXTURES / "repro" / "partition" / "estimator.py"
    assert analyze_paths([only_one], select=["engine-parity"]) == []
