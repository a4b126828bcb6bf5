"""Property tests for :func:`transfer_plan` on randomized decompositions.

Decompositions come from the same seeded random-network generator the
oracle-property suite uses: the old vector is a balanced Eq 3 decomposition
of a random heterogeneous processor set, and the new vector is the measured
rebalance of the old one under random per-rank slowdowns — i.e. exactly the
pairs the dynamic runtime feeds the planner.

Three invariants are checked on every pair:

* **conservation** — per rank, ``old - sent + received == new`` and every
  plan entry is positive with ``src != dst``;
* **minimality** — for contiguous block decompositions the optimal movement
  is ``N - Σ_i |old_block_i ∩ new_block_i|`` (everything outside the
  per-rank interval intersections must move, and nothing else does);
* **symmetry** — reversing the morph reverses every edge:
  ``transfer_plan(new, old) == {(d, s): n}``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PartitionError
from repro.partition import (
    balanced_partition_vector,
    gather_available_resources,
    moved_pdus,
    rebalance_counts,
    transfer_plan,
)

from tests.partition.test_oracle_properties import random_multicluster_network


def random_decomposition_pair(seed):
    """(old, new) PDU count vectors as the dynamic runtime would produce."""
    rng = np.random.default_rng(seed)
    net = random_multicluster_network(rng)
    procs = [
        p for res in gather_available_resources(net) for p in res.available
    ]
    rates = [p.effective_usec_per_op("fp") for p in procs]
    num_pdus = int(rng.integers(len(procs), 40 * len(procs)))
    old = list(balanced_partition_vector(rates, num_pdus))
    # Random external slowdowns on a random subset of ranks.
    slowdown = np.where(
        rng.random(len(procs)) < 0.4, rng.uniform(1.5, 20.0, len(procs)), 1.0
    )
    measured = np.asarray(rates) * slowdown
    floor = 1 if num_pdus >= len(procs) else 0
    new = list(rebalance_counts(old, measured.tolist(), min_per_rank=floor))
    return old, new


def blocks(counts):
    """Rank -> half-open PDU interval of the contiguous decomposition."""
    bounds = np.concatenate([[0], np.cumsum(counts)])
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(len(counts))]


@pytest.fixture(params=range(40))
def pair(request):
    return random_decomposition_pair(9000 + request.param)


def test_plan_conserves_pdus_per_rank(pair):
    old, new = pair
    plan = transfer_plan(old, new)
    sent = [0] * len(old)
    received = [0] * len(old)
    for (src, dst), n in plan.items():
        assert src != dst
        assert n > 0
        sent[src] += n
        received[dst] += n
    for rank in range(len(old)):
        assert old[rank] - sent[rank] + received[rank] == new[rank]


def test_plan_moves_exactly_the_non_overlapping_pdus(pair):
    """Minimality for contiguous blocks: each rank keeps precisely its
    old∩new interval; everything else moves, and nothing moves twice."""
    old, new = pair
    plan = transfer_plan(old, new)
    kept = sum(
        max(0, min(o_hi, n_hi) - max(o_lo, n_lo))
        for (o_lo, o_hi), (n_lo, n_hi) in zip(blocks(old), blocks(new))
    )
    assert moved_pdus(plan) == sum(old) - kept


def test_plan_symmetry_under_old_new_swap(pair):
    old, new = pair
    forward = transfer_plan(old, new)
    backward = transfer_plan(new, old)
    assert backward == {(dst, src): n for (src, dst), n in forward.items()}


def test_plan_identity_is_empty(pair):
    old, _ = pair
    assert transfer_plan(old, old) == {}


# -- the two-pointer sweep against the pairwise interval loop ----------------------


def transfer_plan_oracle(old_counts, new_counts):
    """Every (src, dst) pair's interval intersection, O(ranks²)."""
    if len(old_counts) != len(new_counts):
        raise PartitionError("rank count changed between decompositions")
    if sum(old_counts) != sum(new_counts):
        raise PartitionError(f"totals differ: {sum(old_counts)} vs {sum(new_counts)}")
    old_bounds = np.concatenate([[0], np.cumsum(old_counts)])
    new_bounds = np.concatenate([[0], np.cumsum(new_counts)])
    plan = {}
    for src in range(len(old_counts)):
        for dst in range(len(new_counts)):
            if src == dst:
                continue
            lo = max(old_bounds[src], new_bounds[dst])
            hi = min(old_bounds[src + 1], new_bounds[dst + 1])
            if hi > lo:
                plan[(src, dst)] = int(hi - lo)
    return plan


@st.composite
def count_pairs(draw):
    """Same-length count vectors, zeros and a single rank included; the
    new vector re-splits the old total at drawn cut points."""
    old = draw(st.lists(st.integers(0, 12), min_size=1, max_size=10))
    total = sum(old)
    cuts = sorted(draw(st.lists(st.integers(0, total), min_size=len(old) - 1,
                                max_size=len(old) - 1)))
    new = [hi - lo for lo, hi in zip([0] + cuts, cuts + [total])]
    return old, new


@settings(derandomize=True, max_examples=300)
@given(pair=count_pairs())
def test_sweep_equals_the_pairwise_loop_in_key_order(pair):
    old, new = pair
    plan = transfer_plan(old, new)
    want = transfer_plan_oracle(old, new)
    assert plan == want
    assert list(plan) == list(want)
    assert all(type(n) is int for n in plan.values())


@settings(derandomize=True, max_examples=200)
@given(
    old=st.lists(st.integers(0, 6), max_size=6),
    new=st.lists(st.integers(0, 6), max_size=6),
)
def test_sweep_raises_exactly_where_the_loop_does(old, new):
    """Unequal lengths and unequal totals raise the same error; anything
    else (empty vectors included) gives the same plan."""
    try:
        want = transfer_plan_oracle(old, new)
    except PartitionError as exc:
        with pytest.raises(PartitionError, match=re.escape(str(exc))):
            transfer_plan(old, new)
        return
    assert list(transfer_plan(old, new).items()) == list(want.items())
