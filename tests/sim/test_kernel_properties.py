"""Property-based tests for kernel ordering invariants (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=40))
@settings(max_examples=60)
def test_completion_times_are_sorted(delays):
    """Processes complete in nondecreasing timestamp order regardless of creation order."""
    sim = Simulator()
    completions = []

    def body(d):
        yield sim.timeout(d)
        completions.append(sim.now)

    for d in delays:
        sim.process(body(d))
    sim.run()
    assert completions == sorted(completions)
    assert len(completions) == len(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False), min_size=1, max_size=30))
@settings(max_examples=60)
def test_clock_never_moves_backwards(delays):
    sim = Simulator()
    observed = []

    def body(d):
        yield sim.timeout(d)
        observed.append(sim.now)
        yield sim.timeout(d)
        observed.append(sim.now)

    for d in delays:
        sim.process(body(d))
    sim.run()
    for t in observed:
        assert t >= 0.0
    # run() processes in heap order; observed is append-ordered == time order
    for a, b in zip(observed, observed[1:]):
        assert b >= a or abs(b - a) < 1e-12 or b >= a
    assert sim.now == max(observed) if observed else True


@given(
    n=st.integers(min_value=1, max_value=25),
    same_time=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
)
@settings(max_examples=40)
def test_fifo_tie_break_is_creation_order(n, same_time):
    """Events scheduled for the same instant process in creation order."""
    sim = Simulator()
    log = []

    def body(i):
        yield sim.timeout(same_time)
        log.append(i)

    for i in range(n):
        sim.process(body(i))
    sim.run()
    assert log == list(range(n))


@given(chain_len=st.integers(min_value=1, max_value=50))
@settings(max_examples=30)
def test_process_chaining_accumulates(chain_len):
    """A chain of processes each adding 1 returns the chain length."""
    sim = Simulator()

    def link(depth):
        yield sim.timeout(1.0)
        if depth == 0:
            return 0
        value = yield sim.process(link(depth - 1))
        return value + 1

    assert sim.run_process(link(chain_len)) == chain_len
    assert sim.now == float(chain_len + 1)
