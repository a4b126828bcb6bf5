"""Admission control: in-flight/queue caps and the per-tenant bucket."""

import random

import pytest

from repro.server import admission
from repro.server.admission import (
    SHED_RETRY_MS,
    TENANT_BURST,
    AdmissionController,
    AdmissionLimits,
)


class ManualClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, s):
        self.now += s


def test_admit_and_release_balance():
    ctl = AdmissionController(AdmissionLimits(max_inflight=2))
    assert ctl.try_admit("a", queued=0) is None
    assert ctl.try_admit("a", queued=0) is None
    assert ctl.inflight == 2 and ctl.admitted == 2
    ctl.release()
    ctl.release()
    assert ctl.inflight == 0
    with pytest.raises(RuntimeError):
        ctl.release()


def test_inflight_cap_sheds_overloaded():
    ctl = AdmissionController(AdmissionLimits(max_inflight=1))
    assert ctl.try_admit("a", queued=0) is None
    rejection = ctl.try_admit("b", queued=0)
    assert rejection is not None and rejection.kind == "overloaded"
    assert rejection.retry_after_ms == SHED_RETRY_MS == 20.0
    assert ctl.shed_overloaded == 1
    # A shed never charges the in-flight count.
    assert ctl.inflight == 1


def test_queue_depth_cap_sheds_overloaded():
    ctl = AdmissionController(AdmissionLimits(max_queue=4))
    rejection = ctl.try_admit("a", queued=4)
    assert rejection is not None and rejection.kind == "overloaded"
    assert "queued" in rejection.message
    assert ctl.try_admit("a", queued=3) is None


def test_token_bucket_rate_limits_one_tenant_not_others():
    clock = ManualClock()
    limits = AdmissionLimits(tenant_rate=10.0)
    ctl = AdmissionController(limits, clock=clock)
    assert TENANT_BURST == 16.0
    for _ in range(16):
        assert ctl.try_admit("noisy", queued=0) is None
    rejection = ctl.try_admit("noisy", queued=0)
    assert rejection is not None and rejection.kind == "rate-limited"
    # retry_after_ms is the wait until one token refills: 1/rate = 100 ms.
    assert rejection.retry_after_ms == pytest.approx(100.0)
    # Another tenant has its own bucket.
    assert ctl.try_admit("quiet", queued=0) is None
    # Refill restores service for the noisy tenant.
    clock.advance(0.1)
    assert ctl.try_admit("noisy", queued=0) is None
    assert ctl.shed_rate_limited == 1


def test_rate_limit_disabled_by_default_never_reads_the_clock():
    def forbidden():
        raise AssertionError("clock read with rate limiting disabled")

    ctl = AdmissionController(AdmissionLimits(), clock=forbidden)
    for _ in range(100):
        assert ctl.try_admit("a", queued=0) is None


def test_limit_validation():
    with pytest.raises(ValueError):
        AdmissionLimits(max_inflight=0)
    with pytest.raises(ValueError):
        AdmissionLimits(max_queue=0)
    with pytest.raises(ValueError):
        AdmissionLimits(tenant_rate=-1.0)
    # The burst and the overload retry hint are fixed.
    with pytest.raises(TypeError, match="tenant_burst"):
        AdmissionLimits(tenant_burst=2.0)
    with pytest.raises(TypeError, match="shed_retry_ms"):
        AdmissionLimits(shed_retry_ms=7.0)


def test_one_off_tenants_leave_a_bounded_bucket_map():
    """Every tenant name on the wire gets a bucket, but a refilled bucket
    is swept once the map has doubled, so one-off names cost bounded
    memory."""
    clock = ManualClock()
    ctl = AdmissionController(AdmissionLimits(tenant_rate=1000.0), clock=clock)
    largest = 0
    for i in range(20_000):
        clock.advance(0.002)  # two tokens: each earlier bucket has refilled
        assert ctl.try_admit(f"one-off-{i}", queued=0) is None
        ctl.release()
        largest = max(largest, len(ctl._buckets))
    assert largest < 1024


def test_a_sweep_keeps_every_bucket_still_refilling():
    clock = ManualClock()
    ctl = AdmissionController(AdmissionLimits(tenant_rate=1000.0), clock=clock)
    for _ in range(16):
        assert ctl.try_admit("drained", queued=0) is None
        ctl.release()
    # The 1,024th bucket arrives at 15.5 ms and sets off a sweep.
    for i in range(1023):
        clock.advance(0.0155 / 1023)
        assert ctl.try_admit(f"one-off-{i}", queued=0) is None
        ctl.release()
    assert len(ctl._buckets) < 100
    # "drained" has refilled 15.5 tokens, not the fresh bucket's 16.
    admitted = 0
    while ctl.try_admit("drained", queued=0) is None:
        ctl.release()
        admitted += 1
    assert admitted == 15


def _replay(ctl, clock, seed):
    """Admit or shed a seeded mix of 20 hot and 5,000 cold tenants;
    returns each request's outcome and the largest bucket map seen."""
    rng = random.Random(seed)
    outcomes = []
    largest = 0
    for _ in range(30_000):
        clock.advance(rng.expovariate(10_000.0))
        if rng.random() < 0.7:
            tenant = f"hot-{rng.randrange(20)}"
        else:
            tenant = f"cold-{rng.randrange(5000)}"
        rejection = ctl.try_admit(tenant, queued=0)
        if rejection is None:
            ctl.release()
            outcomes.append(None)
        else:
            outcomes.append((rejection.kind, rejection.retry_after_ms))
        largest = max(largest, len(ctl._buckets))
    return outcomes, largest


def test_sweeping_refilled_buckets_changes_no_decision(monkeypatch):
    limits = AdmissionLimits(tenant_rate=50.0)
    clock = ManualClock()
    swept, swept_largest = _replay(
        AdmissionController(limits, clock=clock), clock, seed=5
    )
    monkeypatch.setattr(admission, "_SWEEP_FLOOR", float("inf"))
    clock = ManualClock()
    kept, kept_largest = _replay(
        AdmissionController(limits, clock=clock), clock, seed=5
    )
    assert swept == kept
    assert sum(outcome is not None for outcome in kept) > 1000
    assert kept_largest > 4000 and swept_largest < kept_largest / 2
