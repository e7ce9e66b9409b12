"""Hypothesis property tests for the DistanceCounter ledger algebra.

The parallel engine folds per-worker counters into the parent with
:meth:`DistanceCounter.merge` / ``+=`` and checkpoint resume rebuilds a
counter from a prefix ledger via :meth:`restore_ledger`.  Both promise
the same invariants regardless of how the work was sliced:

* merging is associative and commutative — any shard order, any
  grouping, same totals;
* ``restore_ledger`` then merging the remaining shards equals merging
  everything from scratch (the checkpoint-resume identity).

These are exercised here with Hypothesis over arbitrary operation
counts, merge orders, and interleaved reconstructions.
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


@given(st.lists(op_list, min_size=1, max_size=6), st.randoms(use_true_random=False))
def test_merge_order_is_irrelevant(shards_ops, rnd):
    """Commutativity: any permutation of worker shards merges to the same."""
    in_order = DistanceCounter()
    for ops in shards_ops:
        in_order += make_counter(ops)

    shuffled_ops = list(shards_ops)
    rnd.shuffle(shuffled_ops)
    shuffled = DistanceCounter()
    for ops in shuffled_ops:
        shuffled += make_counter(ops)

    assert ledgers_equal(in_order, shuffled)


@given(counter_strategy, counter_strategy, counter_strategy)
def test_merge_is_associative(a, b, c):
    left = make_counter([])
    left.restore_ledger(a.ledger())
    ab = make_counter([])
    ab.restore_ledger(a.ledger())
    ab.merge(b)

    # (a + b) + c
    grouped_left = make_counter([])
    grouped_left.restore_ledger(ab.ledger())
    grouped_left.merge(c)

    # a + (b + c)
    bc = make_counter([])
    bc.restore_ledger(b.ledger())
    bc.merge(c)
    grouped_right = make_counter([])
    grouped_right.restore_ledger(a.ledger())
    grouped_right.merge(bc)

    assert ledgers_equal(grouped_left, grouped_right)


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


@given(st.lists(op_list, min_size=2, max_size=5), st.data())
@settings(max_examples=50)
def test_interleaved_restore_and_merge(shards_ops, data):
    """Mixing restore_ledger-rebuilt shards with live shards changes nothing."""
    direct = DistanceCounter()
    for ops in shards_ops:
        direct += make_counter(ops)

    mixed = DistanceCounter()
    for ops in shards_ops:
        live = make_counter(ops)
        if data.draw(st.booleans()):
            rebuilt = DistanceCounter()
            rebuilt.restore_ledger(live.ledger())
            mixed += rebuilt
        else:
            mixed += live

    assert ledgers_equal(direct, mixed)


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
