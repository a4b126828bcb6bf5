"""Property-based tests for partitioning invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partition import balanced_shares
from repro.partition.heuristic import _argmin_unimodal


@given(
    rates=st.lists(
        st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=24,
    ),
    num_pdus=st.integers(min_value=1, max_value=100_000),
)
@settings(max_examples=200)
def test_balanced_shares_equalize_work(rates, num_pdus):
    """Eq 3's defining property: S_i * A_i identical across processors."""
    shares = balanced_shares(rates, num_pdus)
    assert sum(shares) == np.float64(num_pdus) or abs(sum(shares) - num_pdus) < 1e-6
    work = [s * a for s, a in zip(rates, shares)]
    assert max(work) - min(work) < 1e-6 * max(work) + 1e-12


@given(
    rates=st.lists(
        st.floats(min_value=0.05, max_value=10.0, allow_nan=False),
        min_size=2,
        max_size=24,
    ),
)
@settings(max_examples=100)
def test_balanced_shares_ordering(rates):
    """Faster processors never receive fewer PDUs than slower ones."""
    shares = balanced_shares(rates, 1000)
    for (r1, s1) in zip(rates, shares):
        for (r2, s2) in zip(rates, shares):
            if r1 < r2:  # r1 faster
                assert s1 >= s2 - 1e-9


@st.composite
def unimodal_arrays(draw):
    """A strictly unimodal array: strictly decreasing then strictly increasing."""
    down = draw(st.integers(min_value=0, max_value=15))
    up = draw(st.integers(min_value=0, max_value=15))
    steps_down = draw(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=down, max_size=down)
    )
    steps_up = draw(
        st.lists(st.floats(min_value=0.01, max_value=5.0), min_size=up, max_size=up)
    )
    bottom = draw(st.floats(min_value=-100, max_value=100, allow_nan=False))
    left = list(np.cumsum(steps_down[::-1])[::-1] + bottom)
    right = list(np.cumsum(steps_up) + bottom)
    return left + [bottom] + right


@given(unimodal_arrays())
@settings(max_examples=200)
def test_binary_search_finds_unimodal_minimum(values):
    idx = _argmin_unimodal(lambda i: values[i], 0, len(values) - 1)
    assert values[idx] == min(values)


@given(
    st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=30)
)
@settings(max_examples=100)
def test_binary_search_never_escapes_interval(values):
    idx = _argmin_unimodal(lambda i: values[i], 0, len(values) - 1)
    assert 0 <= idx < len(values)
