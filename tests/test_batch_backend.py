"""Tests for the tiled GEMM batch backend (``backend='batch'``).

Three layers are covered:

* the tile kernels — :func:`~repro.timeseries.kernels.
  all_pairs_sq_euclidean_tile` against the one-vs-all kernel and the
  scalar definition, and :func:`~repro.timeseries.kernels.tile_plan`'s
  partition invariants;
* the window-matrix/statistics caches the engines thread through
  (``stats=`` reuse is bit-identical);
* the engines — batch vs kernel equivalence of discords and the call
  count under Hypothesis-chosen tile boundaries, plus anytime budget
  and checkpoint/resume interop.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.discord import batch
from repro.discord.hotsax import hotsax_discords
from repro.exceptions import ParameterError
from repro.resilience.budget import SearchBudget, SearchStatus
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter


# ---------------------------------------------------------------------------
# Tile kernels
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=24),
)
def test_tile_matches_one_vs_all_and_scalar(seed, n_queries, n_rows, width):
    """Tiled all-pairs == one-vs-all == the scalar definition to 1e-9."""
    rng = np.random.default_rng(seed)
    queries = rng.normal(size=(n_queries, width))
    matrix = rng.normal(size=(n_rows, width))
    tile = kernels.all_pairs_sq_euclidean_tile(queries, matrix)
    assert tile.shape == (n_queries, n_rows)
    assert np.all(tile >= 0.0)
    for i in range(n_queries):
        row = kernels.one_vs_all_sq_euclidean(queries[i], matrix)
        np.testing.assert_allclose(tile[i], row, atol=1e-9, rtol=0)
        scalar = np.sum((matrix - queries[i]) ** 2, axis=1)
        np.testing.assert_allclose(tile[i], scalar, atol=1e-9, rtol=0)


def test_tile_accepts_precomputed_sqnorms():
    rng = np.random.default_rng(3)
    queries = rng.normal(size=(4, 10))
    matrix = rng.normal(size=(7, 10))
    with_norms = kernels.all_pairs_sq_euclidean_tile(
        queries,
        matrix,
        query_sqnorms=kernels.row_sqnorms(queries),
        sqnorms=kernels.row_sqnorms(matrix),
    )
    np.testing.assert_array_equal(
        with_norms, kernels.all_pairs_sq_euclidean_tile(queries, matrix)
    )


def test_tile_shape_mismatch_raises():
    with pytest.raises(ParameterError, match="shape mismatch"):
        kernels.all_pairs_sq_euclidean_tile(np.zeros((2, 3)), np.zeros((2, 4)))
    with pytest.raises(ParameterError, match="shape mismatch"):
        kernels.all_pairs_sq_euclidean_tile(np.zeros(3), np.zeros((2, 3)))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=0, max_value=500),
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=1, max_value=1 << 22),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=64, max_value=256),
)
def test_tile_plan_partitions_exactly(n_rows, n_cols, target, min_rows, max_rows):
    """tile_plan returns a contiguous exact partition within the clamps."""
    plan = kernels.tile_plan(
        n_rows, n_cols,
        target_elems=target, min_rows=min_rows, max_rows=max_rows,
    )
    if n_rows == 0:
        assert plan == []
        return
    assert plan[0][0] == 0
    assert plan[-1][1] == n_rows
    for (lo, hi), (nlo, _) in zip(plan, plan[1:]):
        assert hi == nlo
    for lo, hi in plan:
        assert 0 < hi - lo <= max_rows
    # Every tile but the last is exactly the planned row count.
    widths = {hi - lo for lo, hi in plan[:-1]}
    assert len(widths) <= 1


def test_tile_plan_rejects_bad_arguments():
    with pytest.raises(ParameterError):
        kernels.tile_plan(-1, 10)
    with pytest.raises(ParameterError):
        kernels.tile_plan(10, 10, min_rows=0)
    with pytest.raises(ParameterError):
        kernels.tile_plan(10, 10, min_rows=8, max_rows=4)


# ---------------------------------------------------------------------------
# Window-matrix / statistics caches
# ---------------------------------------------------------------------------


def test_sliding_window_stats_reuses_prebuilt_stats():
    rng = np.random.default_rng(5)
    series = rng.normal(size=300)
    stats = kernels.SeriesStats(series)
    fresh = kernels.sliding_window_stats(series, 24)
    reused = kernels.sliding_window_stats(series, 24, stats=stats)
    np.testing.assert_array_equal(fresh[0], reused[0])
    np.testing.assert_array_equal(fresh[1], reused[1])
    np.testing.assert_array_equal(
        kernels.znorm_sliding_windows(series, 24),
        kernels.znorm_sliding_windows(series, 24, stats=stats),
    )


def test_sliding_window_stats_rejects_mismatched_stats():
    series = np.arange(100, dtype=float)
    stats = kernels.SeriesStats(np.arange(50, dtype=float))
    with pytest.raises(ParameterError, match="length"):
        kernels.sliding_window_stats(series, 10, stats=stats)


def test_window_matrix_caches_all_artifacts():
    from repro.timeseries.windows import sliding_windows
    from repro.timeseries.znorm import znorm_rows

    rng = np.random.default_rng(6)
    series = rng.normal(size=200)
    wm = kernels.WindowMatrix(series, 16)
    np.testing.assert_array_equal(wm.view, sliding_windows(series, 16))
    np.testing.assert_array_equal(
        wm.normalized, znorm_rows(sliding_windows(series, 16))
    )
    np.testing.assert_array_equal(
        wm.sqnorms, kernels.row_sqnorms(wm.normalized)
    )
    assert wm.normalized is wm.normalized  # computed once
    assert wm.sqnorms is wm.sqnorms
    means, stds = wm.window_stats()
    ref_means, ref_stds = kernels.sliding_window_stats(series, 16)
    np.testing.assert_array_equal(means, ref_means)
    np.testing.assert_array_equal(stds, ref_stds)


def test_window_matrix_rejects_degenerate_input():
    with pytest.raises(ParameterError):
        kernels.WindowMatrix(np.arange(4, dtype=float), 10)
    with pytest.raises(ParameterError):
        kernels.WindowMatrix(np.zeros((3, 3)), 2)


# ---------------------------------------------------------------------------
# Engine equivalence under arbitrary tile boundaries
# ---------------------------------------------------------------------------


def _series(seed: int, length: int = 220) -> np.ndarray:
    rng = np.random.default_rng(seed)
    series = np.sin(np.linspace(0.0, 14.0, length))
    series += 0.15 * rng.normal(size=length)
    series[length // 2 : length // 2 + 12] += 1.5
    return series


def _run_hotsax(series, backend, *, budget=None):
    counter = DistanceCounter()
    result = hotsax_discords(
        series, 20, num_discords=2, counter=counter,
        backend=backend, budget=budget,
    )
    # Scores are rounded as in the golden suite: the GEMM and the
    # matvec kernels may differ in the last ulp (their dot products
    # associate differently), while the trajectory — and hence the
    # call count and the discord positions — is identical.
    return (
        counter.ledger(),
        [(d.start, d.end, round(d.score, 10)) for d in result.discords],
        result.status,
    )


@settings(max_examples=12, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=1, max_value=96),
)
def test_batch_equals_kernel_under_any_tile_rows(seed, tile_rows):
    """Calls + discords are invariant to where the tile boundaries fall."""
    series = _series(seed)
    expected = _run_hotsax(series, "kernel")
    old = batch.DEFAULT_TILE_ROWS
    batch.DEFAULT_TILE_ROWS = tile_rows
    try:
        got = _run_hotsax(series, "batch")
    finally:
        batch.DEFAULT_TILE_ROWS = old
    assert got == expected


def test_batch_budget_trip_matches_kernel():
    """Anytime semantics: the same call budget stops both backends at the
    same boundary with the same best-so-far discords."""
    series = _series(17)
    full_calls = _run_hotsax(series, "kernel")[0]["calls"]
    cap = full_calls // 3
    expected = _run_hotsax(series, "kernel", budget=SearchBudget(max_calls=cap))
    got = _run_hotsax(series, "batch", budget=SearchBudget(max_calls=cap))
    assert got == expected
    assert got[2] is SearchStatus.BUDGET_EXHAUSTED


def test_batch_rra_checkpoint_resume_is_bit_identical(tmp_path):
    """Interrupt a batch RRA run, resume it, and match the straight run."""
    from repro.core.pipeline import GrammarAnomalyDetector
    from repro.core.rra import find_discords

    series = _series(23, length=400)
    detector = GrammarAnomalyDetector(window=24, paa_size=4, alphabet_size=4)
    intervals = detector.fit(series).candidates

    straight_counter = DistanceCounter()
    straight = find_discords(
        series, intervals, num_discords=2,
        counter=straight_counter, backend="batch",
    )
    assert straight.complete

    cap = straight_counter.calls // 2
    path = str(tmp_path / "ckpt.json")
    first_counter = DistanceCounter()
    first = find_discords(
        series, intervals, num_discords=2, counter=first_counter,
        backend="batch",
        budget=SearchBudget(max_calls=cap),
        checkpoint_path=path, checkpoint_every=4,
    )
    assert not first.complete

    resumed_counter = DistanceCounter()
    resumed = find_discords(
        series, intervals, num_discords=2, counter=resumed_counter,
        backend="batch",
        checkpoint_path=path, resume_from=path, checkpoint_every=4,
    )
    assert resumed.complete
    assert resumed_counter.ledger() == straight_counter.ledger()
    assert [
        (d.start, d.end, d.score, d.rank) for d in resumed.discords
    ] == [(d.start, d.end, d.score, d.rank) for d in straight.discords]


def test_batch_checkpoints_are_not_kernel_checkpoints(tmp_path):
    """The fingerprint covers the backend: no silent cross-backend resume."""
    from repro.core.pipeline import GrammarAnomalyDetector
    from repro.core.rra import find_discords
    from repro.exceptions import CheckpointError

    series = _series(29, length=400)
    detector = GrammarAnomalyDetector(window=24, paa_size=4, alphabet_size=4)
    intervals = detector.fit(series).candidates
    path = str(tmp_path / "ckpt.json")
    find_discords(
        series, intervals, num_discords=1,
        backend="batch", checkpoint_path=path,
    )
    with pytest.raises(CheckpointError):
        find_discords(
            series, intervals, num_discords=1,
            backend="kernel", resume_from=path,
        )


def test_validate_backend_accepts_batch():
    kernels.validate_backend("batch")
    assert "batch" in kernels.BACKENDS
    with pytest.raises(ParameterError):
        kernels.validate_backend("gpu")


def test_pipeline_accepts_batch_backend():
    from repro.core.pipeline import GrammarAnomalyDetector

    series = _series(31, length=400)
    kernel = GrammarAnomalyDetector(
        window=24, paa_size=4, alphabet_size=4, backend="kernel"
    )
    batched = GrammarAnomalyDetector(
        window=24, paa_size=4, alphabet_size=4, backend="batch"
    )
    kernel.fit(series)
    batched.fit(series)
    expected = kernel.discords(num_discords=2)
    got = batched.discords(num_discords=2)
    assert [(d.start, d.end, d.score) for d in got.discords] == [
        (d.start, d.end, d.score) for d in expected.discords
    ]
    assert got.distance_calls == expected.distance_calls
