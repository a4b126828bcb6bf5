"""Tests for Eq 3 decomposition, including the paper's worked identities."""

import pytest

from repro.errors import PartitionError
from repro.partition import (
    balanced_partition_vector,
    balanced_shares,
    balanced_shares_nonlinear,
    equal_shares,
)


def paper_rates(p1, p2):
    """S_i per processor for P1 Sparc2s (0.3) and P2 IPCs (0.6)."""
    return [0.3] * p1 + [0.6] * p2


def test_paper_identity_sparc2_share():
    """A[Sparc2] = 2N/(2P1+P2), A[IPC] = N/(2P1+P2) (paper §6)."""
    n = 600
    for p1, p2 in [(6, 0), (6, 2), (6, 4), (6, 6), (3, 5)]:
        shares = balanced_shares(paper_rates(p1, p2), n)
        denom = 2 * p1 + p2
        for i in range(p1):
            assert shares[i] == pytest.approx(2 * n / denom)
        for i in range(p1, p1 + p2):
            assert shares[i] == pytest.approx(n / denom)


def test_shares_sum_to_num_pdus():
    shares = balanced_shares([0.3, 0.3, 0.6, 1.2], 100)
    assert sum(shares) == pytest.approx(100)


def test_faster_processors_get_more():
    shares = balanced_shares([0.2, 0.4], 90)
    assert shares[0] == pytest.approx(60)
    assert shares[1] == pytest.approx(30)


def test_homogeneous_equal_split():
    shares = balanced_shares([0.5] * 4, 100)
    assert shares == pytest.approx([25.0] * 4)


def test_table1_integer_vectors():
    """The integer vectors behind Table 1's A columns."""
    # N=300, (6,2): shares 42.857/21.43 -> 43 and 21 (sums to 300).
    vec = balanced_partition_vector(paper_rates(6, 2), 300)
    assert list(vec) == [43] * 6 + [21] * 2
    # N=600, (6,6): 2*600/18=66.67 -> 67/66, 600/18=33.3 -> 33/34 mixture.
    vec = balanced_partition_vector(paper_rates(6, 6), 600)
    assert vec.total == 600
    assert all(v in (66, 67) for v in vec.counts[:6])
    assert all(v in (33, 34) for v in vec.counts[6:])


def test_errors():
    with pytest.raises(PartitionError):
        balanced_shares([], 10)
    with pytest.raises(PartitionError):
        balanced_shares([0.0, 0.3], 10)
    with pytest.raises(PartitionError):
        balanced_shares([0.3], 0)


def test_equal_shares_distributes_remainder():
    vec = equal_shares(5, 12)
    assert list(vec) == [3, 3, 2, 2, 2]
    assert vec.total == 12


def test_equal_shares_paper_n1200():
    """The N=1200 counterexample: 12 processors x 100 rows each."""
    vec = equal_shares(12, 1200)
    assert list(vec) == [100] * 12


def test_nonlinear_reduces_to_linear_for_identity_work():
    rates = paper_rates(3, 3)
    linear = balanced_shares(rates, 120)
    nonlinear = balanced_shares_nonlinear(rates, 120, lambda a: a)
    assert nonlinear == pytest.approx(linear, rel=1e-6)


def test_nonlinear_quadratic_work_balances_finish_times():
    """w(A) = A^2: equal S·w(A) across heterogeneous processors."""
    rates = [0.3, 0.3, 0.6]
    shares = balanced_shares_nonlinear(rates, 90, lambda a: a * a)
    assert sum(shares) == pytest.approx(90)
    finish = [s * (a ** 2) for s, a in zip(rates, shares)]
    assert max(finish) - min(finish) < 1e-4 * max(finish)
    # The slow processor gets fewer PDUs, but more than the linear ratio
    # (quadratic work compresses the spread).
    assert shares[2] < shares[0]
    assert shares[2] / shares[0] > 0.5


def test_nonlinear_rejects_flat_work():
    with pytest.raises(PartitionError, match="increasing"):
        balanced_shares_nonlinear([0.3, 0.6], 10, lambda a: 1.0)
