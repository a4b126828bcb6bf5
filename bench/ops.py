"""Seeded operation lists for the three benchmark workloads.

The workload definition fixes the composition of a run: the strata, the
fresh-request share and the policy cycle, each at a fixed count per
cycle of operations.  The seed only picks the instances inside a stratum
(which pool, which victims, which tenant, which fresh availability), so
every seed puts the same number of operations in every stratum and each
percentile lands in the same stratum on every run.

Operation counts scale with ``--seconds`` and never with elapsed time:
the same arguments always give the same list, and every percentile rests
on the same sample count.  A count is a whole number of cycles per
sub-window (``measure.CHUNKS``) and never drops below what its tail
percentile needs (ten samples beyond it; on serve-mix, in every
sub-window).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from measure import CHUNKS, min_samples

WORKLOADS = ("serve-mix", "decide-widearea", "supervise-churn")

# -- decide-widearea -----------------------------------------------------------

#: STEN-1 problem size of every wide-area decision.
WIDEAREA_N = 6000

#: One cycle of 20 cold decisions, as ``(stratum, sites)``.  Sorted by
#: latency a cycle reads small (25 %), wide (50 %), lut-12 (5 %) and
#: lut-13 (20 %), so p50 falls in the middle of the wide stratum and p90
#: in the middle of lut-13.  Pools of 16 sites or fewer build the 2^K
#: crossing LUT (``_MAX_LUT_CLUSTERS = 16``); 24 sites and more do not.
WIDEAREA_CYCLE = (
    ("wide", 24), ("small", 8), ("lut-13", 13), ("wide", 32), ("small", 10),
    ("wide", 48), ("lut-13", 13), ("wide", 64), ("small", 8), ("wide", 24),
    ("lut-12", 12), ("wide", 32), ("small", 10), ("lut-13", 13), ("wide", 48),
    ("small", 8), ("wide", 64), ("lut-13", 13), ("wide", 24), ("wide", 32),
)

#: Decisions per second of ``--seconds`` (sized at the parent commit so
#: one run measures for about ``--seconds``).
WIDEAREA_OPS_PER_S = 6

#: Site count of the warm-up pool and of the parity pools; the parity
#: pools are small enough for the uncollapsed engine to scan.
WIDEAREA_WARMUP_SITES = 6
WIDEAREA_PARITY_SITES = (4, 5, 5, 6)


@dataclass(frozen=True)
class WideAreaOp:
    stratum: str
    sites: int
    pool_seed: int


def widearea_ops(seed: int, seconds: int) -> list[WideAreaOp]:
    """The run's cold decisions: round-robin over the cycle's strata, each
    on a ``wide_area_network(sites, pool_seed)`` no other operation uses."""
    rng = random.Random(f"decide-widearea/{seed}")
    count = _whole_cycles(max(min_samples(0.9), WIDEAREA_OPS_PER_S * seconds), len(WIDEAREA_CYCLE))
    used: set[tuple[int, int]] = set()
    ops = []
    for i in range(count):
        stratum, sites = WIDEAREA_CYCLE[i % len(WIDEAREA_CYCLE)]
        ops.append(WideAreaOp(stratum, sites, _fresh_seed(rng, sites, used)))
    return ops


def widearea_side_pools(seed: int) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """``(warm-up pool, parity pools)`` as ``(sites, pool_seed)``, drawn from
    their own stream so they never coincide with a timed pool's seed."""
    rng = random.Random(f"decide-widearea/side/{seed}")
    warmup = (WIDEAREA_WARMUP_SITES, rng.randrange(1 << 30) + (1 << 30))
    parity = [(k, rng.randrange(1 << 30) + (1 << 30)) for k in WIDEAREA_PARITY_SITES]
    return warmup, parity


# -- supervise-churn -----------------------------------------------------------

CHURN_N = 6000
CHURN_SITES = 16
CHURN_EPOCHS = 24
#: Epoch at which one victim node fails (every run has exactly one).
CHURN_FAIL_EPOCH = 10
#: Flapping external load on two other victims.
CHURN_LOAD = 0.3
CHURN_LOAD_START = 3
CHURN_LOAD_PERIOD = 6
CHURN_LOAD_BURST = 2
#: The churn grid's three slowdown policies, cycled in this order.
CHURN_POLICIES = ("rebalance", "adaptive", "research")
#: Victims are drawn from the non-manager nodes of this many of the
#: fastest sites, where the decomposition starts.
CHURN_VICTIM_SITES = 3
CHURN_OPS_PER_S = 12


@dataclass(frozen=True)
class ChurnOp:
    policy: str
    pool_seed: int
    #: Indices into the victim candidates: failed node, then two flappers.
    victims: tuple[int, int, int]


def churn_ops(seed: int, seconds: int) -> list[ChurnOp]:
    """The run's supervised runs: policies round-robin, a fresh 16-site
    pool per run, seeded victims."""
    rng = random.Random(f"supervise-churn/{seed}")
    count = _whole_cycles(max(min_samples(0.9), CHURN_OPS_PER_S * seconds), len(CHURN_POLICIES))
    used: set[tuple[int, int]] = set()
    ops = []
    for i in range(count):
        pool_seed = _fresh_seed(rng, CHURN_SITES, used)
        victims = tuple(rng.sample(range(64), 3))
        ops.append(ChurnOp(CHURN_POLICIES[i % len(CHURN_POLICIES)], pool_seed, victims))
    return ops


def churn_reference_seed(seed: int) -> int:
    """Pool seed of the failure-free warm-up run whose answer every
    supervised run must reproduce."""
    return random.Random(f"supervise-churn/reference/{seed}").randrange(1 << 30) + (1 << 30)


# -- serve-mix -----------------------------------------------------------------

SERVE_POOL = "synthetic:32,32,32"
SERVE_CLUSTERS = ("c0", "c1", "c2")
SERVE_CLUSTER_SIZE = 32
SERVE_TENANTS = ("tenant-a", "tenant-b", "tenant-c", "tenant-d")
#: ``(app, n, overlap)`` of the served workloads.
SERVE_WORKLOADS = (("stencil", 600, False), ("sor", 600, False), ("stencil", 600, True))
#: Hot availabilities per workload; ``None`` is the full pool, which the
#: warm-up sends first so every engine is lowered at full availability.
SERVE_HOT_AVAILABILITY = (
    None,
    (32, 16, 8),
    (24, 24, 24),
    (16, 32, 0),
)
#: One request in this many carries an availability the run has not
#: sent before (a fresh array-engine search): 2 %.
SERVE_FRESH_EVERY = 50
#: Deployment flag: per-workload SearchCache bound.  Each workload's hot
#: set is 4 tenants x 4 availabilities = 16 decisions plus 2 lowered
#: engines; a run adds ~130 fresh decisions per workload, so the LRU
#: evicts throughout the timed window.
SERVE_CACHE_ENTRIES = 24
SERVE_CONNECTIONS = 2
SERVE_CALLERS_PER_CONNECTION = 8
SERVE_REQUESTS_PER_S = 2700
#: Spare sub-windows after the measured ones: a sub-window during which
#: the host stole more than ``SERVE_STEAL_LIMIT`` of the CPUs' time is
#: driven, checked and counted, then replaced by the next spare.
SERVE_SPARE_WINDOWS = 5
SERVE_STEAL_LIMIT = 0.02
#: Warm-up rounds over the hot set after the first pass.
SERVE_WARMUP_ROUNDS = 4
#: Served decisions re-checked against ``exhaustive_partition``.
SERVE_PARITY_SAMPLE = 24


@dataclass(frozen=True)
class ServeOp:
    tenant: str
    workload: int
    #: Per-cluster counts, or ``None`` for the full pool.
    availability: Optional[tuple[int, int, int]]
    fresh: bool

    def payload(self, request_id: str) -> dict:
        app, n, overlap = SERVE_WORKLOADS[self.workload]
        obj: dict = {
            "id": request_id,
            "tenant": self.tenant,
            "workload": {"app": app, "n": n, "overlap": overlap, "cycles": 10},
        }
        if self.availability is not None:
            obj["availability"] = {
                name: count
                for name, count in zip(SERVE_CLUSTERS, self.availability)
                if count > 0
            }
        return obj


def serve_hot_set() -> list[ServeOp]:
    """Every hot (tenant, workload, availability), full pools first."""
    shapes = [
        (w, a)
        for a in SERVE_HOT_AVAILABILITY
        for w in range(len(SERVE_WORKLOADS))
    ]
    return [
        ServeOp(tenant, w, a, False) for w, a in shapes for tenant in SERVE_TENANTS
    ]


def serve_windows(seed: int, seconds: int) -> list[list[ServeOp]]:
    """The timed request stream as ``CHUNKS`` sub-windows plus
    ``SERVE_SPARE_WINDOWS`` spares.  In every block of 50 requests exactly
    one (at a seeded position) is fresh; the rest are seeded hot picks."""
    rng = random.Random(f"serve-mix/{seed}")
    per_window = _whole_cycles(
        max(CHUNKS * min_samples(0.99), SERVE_REQUESTS_PER_S * seconds), SERVE_FRESH_EVERY
    ) // CHUNKS
    hot = serve_hot_set()
    seen = {r.availability for r in hot}
    ops = []
    blocks = (CHUNKS + SERVE_SPARE_WINDOWS) * per_window // SERVE_FRESH_EVERY
    for block in range(blocks):
        fresh_at = rng.randrange(SERVE_FRESH_EVERY)
        for i in range(SERVE_FRESH_EVERY):
            if i != fresh_at:
                ops.append(rng.choice(hot))
                continue
            while True:
                avail = tuple(
                    rng.randint(1, SERVE_CLUSTER_SIZE) for _ in SERVE_CLUSTERS
                )
                if avail not in seen:
                    break
            seen.add(avail)
            ops.append(
                ServeOp(
                    rng.choice(SERVE_TENANTS),
                    block % len(SERVE_WORKLOADS),
                    avail,
                    True,
                )
            )
    return [ops[lo : lo + per_window] for lo in range(0, len(ops), per_window)]


# -- helpers -------------------------------------------------------------------


def _whole_cycles(target: int, cycle: int) -> int:
    """``target`` rounded up to whole cycles in every sub-window."""
    step = cycle * CHUNKS
    return max(1, -(-target // step)) * step


def _fresh_seed(rng: random.Random, sites: int, used: set[tuple[int, int]]) -> int:
    while True:
        pool_seed = rng.randrange(1 << 30)
        if (sites, pool_seed) not in used:
            used.add((sites, pool_seed))
            return pool_seed
