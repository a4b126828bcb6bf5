"""The fast-forward perf harness behind ``repro bench-sim``."""

import pytest

from repro.errors import SimulationError
from repro.experiments.simbench import run_sim_perf, sim_perf_payload, sim_perf_report


@pytest.fixture(scope="module")
def cmp():
    return run_sim_perf(n=120, cycles=30, repeat=1, grid=False)


def test_modes_agree_and_fast_skips(cmp):
    event, fast = cmp.result("event"), cmp.result("fast")
    assert cmp.parity_ok
    assert event.clock_ms == fast.clock_ms
    assert event.probed_cycles == 30 and event.fast_forwarded_cycles == 0
    assert fast.probed_cycles == 2 and fast.fast_forwarded_cycles == 28
    assert cmp.speedup > 1.0


def test_report_and_payload_shapes(cmp):
    text = sim_perf_report(cmp)
    assert "sim perf" in text and "parity: ok" in text
    payload = sim_perf_payload(cmp)
    assert payload["bench"] == "sim"
    assert set(payload["scenario"]["modes"]) == {"event", "fast"}
    assert payload["invariants"] == {"parity_ok": True, "fast.fast_forwarded": True}
    assert set(payload["exact"]) == {"event.clock_ms", "fast.clock_ms"}
    speedup = payload["ratios"]["speedup_fast_over_event"]
    assert speedup["value"] == cmp.speedup and speedup["bound"] == 10.0
    # Not requested: no grid parity or grid speedup to gate.
    assert "grid" not in payload["scenario"]
    assert "grid.speedup" not in payload["ratios"]


def test_repeat_validation():
    with pytest.raises(SimulationError):
        run_sim_perf(repeat=0, grid=False)


@pytest.mark.parametrize("drift_at", [None, 2, 4])
def test_grid_is_best_of_repeat_passes_with_parity_on_every_pass(monkeypatch, drift_at):
    """Each mode runs ``repeat`` grid passes; one pass whose signatures
    differ from the first event pass breaks parity, whichever mode ran it."""
    from types import SimpleNamespace

    from repro.experiments import resilience, simbench

    modes = []

    def grid(**kwargs):
        modes.append(kwargs["validate_mode"])
        signature = "drift" if len(modes) == drift_at else "same"
        return [SimpleNamespace(scenario="s", validation_signature=signature)]

    monkeypatch.setattr(resilience, "resilience_grid", grid)
    timing = simbench._time_grid(n=8, epochs=1, validate_cycles=1, workers=None, repeat=2)
    assert modes == ["event", "event", "fast", "fast"]
    assert timing.repeats == 2 and timing.rows == 1
    assert timing.parity_ok is (drift_at is None)
