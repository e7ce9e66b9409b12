"""Hypothesis property tests for the DistanceCounter ledger.

Checkpoint resume rebuilds a counter from a prefix ledger via
:meth:`DistanceCounter.restore_ledger` and keeps recording; the final
ledger must equal the uninterrupted run's wherever the checkpoint
boundary fell.  This is exercised here with Hypothesis over arbitrary
operation counts and boundaries.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.timeseries.distance import DistanceCounter


def make_counter(ops):
    """Build a counter from a list of batch-recording counts."""
    counter = DistanceCounter()
    for count in ops:
        counter.batch(count)
    return counter


op_list = st.lists(st.integers(min_value=0, max_value=10_000), max_size=30)
counter_strategy = op_list.map(make_counter)


def ledgers_equal(a: DistanceCounter, b: DistanceCounter) -> bool:
    return a.ledger() == b.ledger()


@given(op_list, st.integers(min_value=0, max_value=30))
def test_prefix_ledger_reconstruction(ops, split_at):
    """Checkpoint-resume identity: restore a prefix ledger, replay the rest.

    A resumed search restores the ledger saved at the checkpoint
    boundary and keeps recording; the final ledger must equal the
    uninterrupted run's, wherever the boundary fell.
    """
    split_at = min(split_at, len(ops))
    full = make_counter(ops)

    prefix = make_counter(ops[:split_at])
    resumed = DistanceCounter()
    resumed.restore_ledger(prefix.ledger())
    for count in ops[split_at:]:
        resumed.batch(count)

    assert ledgers_equal(full, resumed)


@given(counter_strategy)
def test_ledger_roundtrip_is_lossless(counter):
    clone = DistanceCounter()
    clone.restore_ledger(counter.ledger())
    assert ledgers_equal(counter, clone)
