"""Hypothesis property tests for the DistanceCounter ledger.

Checkpoint resume rebuilds a counter from a prefix ledger via
:meth:`DistanceCounter.restore_ledger` and keeps recording; the final
ledger must equal the uninterrupted run's wherever the checkpoint
boundary fell.  This is exercised here with Hypothesis over arbitrary
operation counts and boundaries.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
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


@settings(max_examples=10, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=48),
)
def test_batch_tile_partition_preserves_ledger(seed, tile_rows):
    """The batch backend's ledger is a pure function of the search, not
    of how its outer loop was partitioned into GEMM tiles.

    The serial replay inside each tile carries the exact kernel-scan
    trajectory, so for ANY tile size the recorded ledger — and the
    discords — must equal the kernel backend's, which is itself pinned
    by the golden-count suite.
    """
    from repro.discord import batch
    from repro.discord.hotsax import hotsax_discords

    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 10.0, 150)) + 0.2 * rng.normal(size=150)
    kernel_counter = DistanceCounter()
    kernel = hotsax_discords(
        series, 14, num_discords=2, counter=kernel_counter
    )
    old = batch.DEFAULT_TILE_ROWS
    batch.DEFAULT_TILE_ROWS = tile_rows
    try:
        batch_counter = DistanceCounter()
        batched = hotsax_discords(
            series, 14, num_discords=2, counter=batch_counter,
            backend="batch",
        )
    finally:
        batch.DEFAULT_TILE_ROWS = old
    assert ledgers_equal(kernel_counter, batch_counter)
    assert [(d.start, d.end) for d in kernel.discords] == [
        (d.start, d.end) for d in batched.discords
    ]
