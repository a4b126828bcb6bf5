"""The DecisionEngine facade: parity with the raw search functions and
the per-tenant exact-decision memo."""

import pytest

from repro.apps.stencil import stencil_computation
from repro.experiments.paper import paper_cost_database
from repro.hardware.presets import paper_testbed
from repro.partition.available import gather_available_resources
from repro.partition.engine import EXACT_SEARCH_MODE, DecisionEngine
from repro.partition.heuristic import exhaustive_partition, partition
from repro.partition.warmstart import SearchCache
from repro.server.service import resolve_pool
from repro.telemetry.metrics import MetricsRegistry


def _setting(n=512):
    network = paper_testbed()
    comp = stencil_computation(n, overlap=False, cycles=1)
    return network, comp, paper_cost_database()


def test_decide_matches_raw_partition_bit_exactly():
    network, comp, db = _setting()
    resources = gather_available_resources(network)
    engine = DecisionEngine(comp, db)
    direct = partition(comp, resources, db)
    via = engine.decide(resources)
    assert tuple(via.config.counts) == tuple(direct.config.counts)
    assert tuple(via.vector) == tuple(direct.vector)
    assert via.t_cycle_ms == direct.t_cycle_ms
    assert via.evaluations == direct.evaluations


def test_decide_exact_matches_raw_exhaustive_array_bit_exactly():
    network, comp, db = _setting()
    resources = gather_available_resources(network)
    engine = DecisionEngine(comp, db)
    direct = exhaustive_partition(comp, resources, db)
    via = engine.decide_exact(resources)
    assert tuple(via.config.counts) == tuple(direct.config.counts)
    assert tuple(via.vector) == tuple(direct.vector)
    assert via.t_cycle_ms == direct.t_cycle_ms


def test_decide_exact_serves_a_wide_area_pool():
    """The exact path collapses interchangeable clusters, so the served
    24-site wide-area pool decides in milliseconds — the same decision as
    exhaustive_partition on that pool."""
    network, db = resolve_pool("wide:24")
    resources = gather_available_resources(network)
    comp = stencil_computation(600, overlap=False)
    engine = DecisionEngine(comp, db, cache=SearchCache(max_entries=4096))
    via = engine.decide_exact(resources, tenant="t0")
    direct = exhaustive_partition(comp, resources, db)
    assert tuple(via.config.counts) == tuple(direct.config.counts)
    assert via.t_cycle_ms == direct.t_cycle_ms


def test_exact_memo_is_per_tenant():
    network, comp, db = _setting()
    resources = gather_available_resources(network)
    registry = MetricsRegistry()
    engine = DecisionEngine(comp, db, cache=SearchCache(), metrics=registry)

    def searches():
        return registry.counter_values("host")["decide.exact.searches"]

    first = engine.decide_exact(resources, tenant="team-a")
    assert searches() == 1

    # Same tenant, same pool: memo hit — zero evaluations, no trace,
    # identical decision.
    again = engine.decide_exact(resources, tenant="team-a")
    assert searches() == 1
    assert again.evaluations == 0 and again.trace == ()
    assert tuple(again.config.counts) == tuple(first.config.counts)
    assert again.t_cycle_ms == first.t_cycle_ms

    # A different tenant never reads team-a's memo entry.
    ordered = engine.order(resources)
    assert engine.cached_exact(ordered, tenant="team-b") is None
    other = engine.decide_exact(resources, tenant="team-b")
    assert searches() == 2
    assert tuple(other.config.counts) == tuple(first.config.counts)
    assert other.t_cycle_ms == first.t_cycle_ms


def test_remember_exact_fans_a_decision_to_another_tenant():
    network, comp, db = _setting()
    resources = gather_available_resources(network)
    engine = DecisionEngine(comp, db, cache=SearchCache())
    ordered = engine.order(resources)
    decision = engine.decide_exact(resources, tenant="a")
    engine.remember_exact(ordered, decision, tenant="b")
    hit = engine.cached_exact(ordered, tenant="b")
    assert hit is not None
    assert tuple(hit.config.counts) == tuple(decision.config.counts)
    assert hit.evaluations == 0


def test_exact_signature_folds_tenant_and_mode_in():
    network, comp, db = _setting()
    ordered_pool = gather_available_resources(network)
    cache = SearchCache()
    engine = DecisionEngine(comp, db, cache=cache)
    ordered = engine.order(ordered_pool)
    sig_a = engine.exact_signature(ordered, tenant="a")
    sig_b = engine.exact_signature(ordered, tenant="b")
    assert sig_a != sig_b
    # The exact mode label keeps exact memos apart from heuristic ones.
    heuristic_sig = cache.availability_signature(
        ordered, search="binary", tenant="a"
    )
    assert sig_a != heuristic_sig
    assert sig_a == ("a", heuristic_sig[1], EXACT_SEARCH_MODE)
    with pytest.raises(TypeError, match="startup_ms"):
        DecisionEngine(comp, db, startup_ms=0.0)


def test_uncached_engine_has_no_signatures_or_memos():
    network, comp, db = _setting()
    resources = gather_available_resources(network)
    engine = DecisionEngine(comp, db)
    ordered = engine.order(resources)
    assert engine.exact_signature(ordered, tenant="a") is None
    assert engine.cached_exact(ordered, tenant="a") is None
    # remember_exact is a no-op, not an error.
    engine.remember_exact(ordered, engine.decide_exact(resources), tenant="a")


def test_exact_counters_register_on_a_real_registry():
    network, comp, db = _setting()
    resources = gather_available_resources(network)
    registry = MetricsRegistry()
    engine = DecisionEngine(
        comp, db, cache=SearchCache(), metrics=registry
    )
    engine.decide_exact(resources, tenant="a")
    engine.decide_exact(resources, tenant="a")
    counters = registry.counter_values("host")
    assert counters["decide.exact.searches"] == 1
    assert counters["decide.exact.decision_hits"] == 1
