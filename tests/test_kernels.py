"""Equivalence tests for the vectorized distance-kernel layer.

Two families of guarantees:

* **Numeric equivalence** — every kernel in ``repro.timeseries.kernels``
  matches its scalar reference in ``tests/oracles.py`` to 1e-9 on
  random inputs (property-style sweeps over shapes, offsets, and flat
  segments).
* **Accounting equivalence** — RRA, HOTSAX, Haar and brute force
  report the same discords, ranks and ``DistanceCounter.calls`` as the
  per-pair reference searches in ``tests/oracles.py`` on the seed
  fixtures: bit-exact (scores compared as float hex) when the oracle
  uses the kernels' pair arithmetic, and to 1e-9 when it uses the
  scalar reference distances.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rra import _CandidateSet, find_discords, nearest_neighbor_distances
from repro.discord.brute_force import brute_force_discords
from repro.discord.haar import haar_discords, haar_words
from repro.discord.hotsax import _sax_words_per_window, hotsax_discords
from repro.exceptions import ParameterError
from repro.timeseries import kernels
from repro.timeseries.distance import DistanceCounter
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm, znorm_rows
from tests import oracles
from tests.oracles import euclidean, variable_length_distance


def _random_series(rng, length, *, offset=0.0, flat_span=None):
    series = rng.normal(0.0, 1.0, length) + offset
    if flat_span is not None:
        lo, hi = flat_span
        series[lo:hi] = series[lo]  # exactly constant stretch
    return series


class TestWindowStats:
    @pytest.mark.parametrize("window", [2, 5, 31, 100])
    def test_matches_per_window_mean_std(self, rng, window):
        series = _random_series(rng, 300, offset=50.0)
        means, stds = kernels.sliding_window_stats(series, window)
        view = sliding_windows(series, window)
        assert np.allclose(means, view.mean(axis=1), atol=1e-9)
        assert np.allclose(stds, view.std(axis=1), atol=1e-9)

    def test_short_series_empty(self):
        means, stds = kernels.sliding_window_stats(np.zeros(3), 10)
        assert means.size == 0 and stds.size == 0

    @pytest.mark.parametrize("window", [3, 20, 64])
    def test_znorm_windows_match_znorm_rows(self, rng, window):
        series = _random_series(rng, 400, flat_span=(100, 100 + 2 * window))
        batch = kernels.znorm_sliding_windows(series, window)
        reference = znorm_rows(sliding_windows(series, window))
        assert np.allclose(batch, reference, atol=1e-9)


class TestSeriesStats:
    def test_interval_stats_match_numpy(self, rng):
        series = _random_series(rng, 500, offset=100.0)
        stats = kernels.SeriesStats(series)
        for start, end in [(0, 10), (3, 500), (250, 252), (100, 400)]:
            segment = series[start:end]
            assert stats.mean(start, end) == pytest.approx(segment.mean(), abs=1e-9)
            assert stats.std(start, end) == pytest.approx(segment.std(), abs=1e-9)

    def test_znorm_matches_scalar_znorm(self, rng):
        series = _random_series(rng, 300, flat_span=(50, 120))
        stats = kernels.SeriesStats(series)
        for start, end in [(0, 30), (55, 110), (40, 140), (298, 300)]:
            expected = znorm(series[start:end])
            assert np.allclose(stats.znorm(start, end), expected, atol=1e-9)

    def test_bounds_checked(self):
        stats = kernels.SeriesStats(np.arange(10.0))
        with pytest.raises(ParameterError):
            stats.mean(5, 11)
        with pytest.raises(ParameterError):
            stats.znorm(4, 4)

    def test_rejects_2d(self):
        with pytest.raises(ParameterError):
            kernels.SeriesStats(np.zeros((3, 3)))


class TestOneVsAll:
    def test_matches_pairwise_euclidean(self, rng):
        matrix = rng.normal(size=(40, 25))
        query = rng.normal(size=25)
        sq = kernels.one_vs_all_sq_euclidean(query, matrix)
        expected = np.array([euclidean(query, row) ** 2 for row in matrix])
        assert np.allclose(sq, expected, atol=1e-9)

    def test_precomputed_norms_identical(self, rng):
        matrix = rng.normal(size=(10, 8))
        query = rng.normal(size=8)
        plain = kernels.one_vs_all_sq_euclidean(query, matrix)
        primed = kernels.one_vs_all_sq_euclidean(
            query,
            matrix,
            query_sqnorm=float(np.dot(query, query)),
            sqnorms=kernels.row_sqnorms(matrix),
        )
        assert np.array_equal(plain, primed)

    def test_self_distance_clipped_to_zero(self, rng):
        row = rng.normal(size=30)
        sq = kernels.one_vs_all_sq_euclidean(row, np.stack([row, row]))
        assert (sq >= 0.0).all()
        assert np.allclose(sq, 0.0, atol=1e-9)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ParameterError):
            kernels.one_vs_all_sq_euclidean(np.zeros(3), np.zeros((2, 4)))

    def test_cutoff_matches_scalar_early_abandon(self, rng):
        """The searches' early abandon, :func:`kernels.first_below` over
        the square-rooted row, stops at the pair where the scalar
        per-pair loop would break: the first distance below the cutoff."""
        matrix = rng.normal(size=(50, 16))
        for cutoff in (4.0, 5.0, 6.0, 0.0, np.inf):
            query = rng.normal(size=16)
            dists = np.sqrt(kernels.one_vs_all_sq_euclidean(query, matrix))
            scalar = next(
                (j for j, row in enumerate(matrix) if euclidean(query, row) < cutoff), -1
            )
            assert kernels.first_below(dists, cutoff) == scalar


class TestEarlyAbandonFilter:
    def test_first_below(self):
        assert kernels.first_below(np.array([3.0, 2.0, 0.5, 0.1]), 1.0) == 2
        assert kernels.first_below(np.array([3.0, 2.0]), 1.0) == -1
        assert kernels.first_below(np.array([]), 1.0) == -1


class TestSlidingAlignment:
    @pytest.mark.parametrize("short_len,long_len", [(2, 9), (5, 6), (7, 7), (10, 50)])
    def test_profile_matches_offset_loop(self, rng, short_len, long_len):
        short = rng.normal(size=short_len)
        long_ = rng.normal(size=long_len)
        profile = oracles.sliding_alignment_sq_profile(short, long_)
        expected = np.array(
            [
                np.sum((short - long_[o : o + short_len]) ** 2)
                for o in range(long_len - short_len + 1)
            ]
        )
        assert np.allclose(profile, expected, atol=1e-9)

    def test_min_distance_matches_scalar_reference(self, rng):
        for _ in range(25):
            n = int(rng.integers(2, 20))
            m = int(rng.integers(n, 40))
            p = rng.normal(size=n)
            q = rng.normal(size=m)
            expected = variable_length_distance(p, q, normalize_inputs=False)
            got = kernels.aligned_min_distance(
                p, float(np.dot(p, p)), q, kernels.sq_cumsum(q)
            )
            assert got == pytest.approx(expected, abs=1e-9)


class TestCounterBatch:
    def test_batch_accumulates(self):
        counter = DistanceCounter()
        counter.batch(7)
        counter.batch(0)
        counter.batch(3)
        assert counter.calls == 10

    def test_negative_rejected(self):
        with pytest.raises(ParameterError):
            DistanceCounter().batch(-1)


def _candidates_for(series, window=40, paa=4, alpha=4):
    from repro.grammar.intervals import rule_intervals, uncovered_intervals
    from repro.grammar.sequitur import induce_grammar
    from repro.sax.discretize import discretize

    disc = discretize(series, window, paa, alpha)
    grammar = induce_grammar(disc.tokens())
    return rule_intervals(grammar, disc) + uncovered_intervals(grammar, disc)


def _blip_series(length=800, period=50, blip_at=400, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    series = np.sin(2 * np.pi * t / period) + rng.normal(0, 0.02, length)
    series[blip_at : blip_at + 60] += 2.5
    return series


def _signature(discords, calls):
    """Calls plus every discord field, scores as float hex."""
    return calls, [
        (
            d.start, d.end, d.rank, float(d.score).hex(),
            float(d.nn_distance).hex(), d.rule_id, d.source,
        )
        for d in discords
    ]


def _assert_matches_oracle(discords, calls, oracle, kernel_distance):
    """*discords*/*calls* equal the oracle's: bit-exact with the
    kernels' pair arithmetic; scores within 1e-9 with the scalar one."""
    assert _signature(discords, calls) == _signature(
        *oracle(distance=kernel_distance)
    )
    reference, reference_calls = oracle()
    assert reference_calls == calls
    assert [(d.start, d.end, d.rank) for d in discords] == [
        (d.start, d.end, d.rank) for d in reference
    ]
    assert [d.score for d in discords] == pytest.approx(
        [d.score for d in reference], abs=1e-9
    )


def _rra_kernel_distance(series):
    return _CandidateSet(series).pair_distance


class TestBackendCallCountIdentity:
    """Each engine against its per-pair oracle (``tests/oracles.py``)."""

    def test_rra_find_discord(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        counter = DistanceCounter()
        result = find_discords(
            series, candidates, num_discords=1, counter=counter,
            seed=11,
        )
        assert counter.calls > 0
        _assert_matches_oracle(
            [result.best], counter.calls,
            lambda **kw: oracles.rra_oracle(
                series, candidates, seed=11, **kw
            ),
            _rra_kernel_distance(series),
        )

    def test_rra_find_discords_multi_rank(self):
        series = _blip_series()
        candidates = _candidates_for(series)
        result = find_discords(
            series, candidates, num_discords=3, seed=5
        )
        assert len(result.discords) == 3
        _assert_matches_oracle(
            result.discords, result.distance_calls,
            lambda **kw: oracles.rra_oracle(
                series, candidates, num_discords=3,
                seed=5, **kw
            ),
            _rra_kernel_distance(series),
        )

    def test_rra_scores_match_across_backends(self):
        """The fused Eq. 1 kernel scores agree with the scalar reference."""
        series = _blip_series(length=600)
        candidates = _candidates_for(series)
        result = find_discords(
            series, candidates, num_discords=2, seed=2
        )
        reference, _ = oracles.rra_oracle(
            series, candidates, num_discords=2, seed=2
        )
        assert [d.nn_distance for d in result.discords] == pytest.approx(
            [d.nn_distance for d in reference], abs=1e-9
        )

    def test_hotsax(self, sine_bump):
        series = sine_bump.series
        result = hotsax_discords(
            series, 100, num_discords=2, seed=0
        )
        words = _sax_words_per_window(kernels.WindowMatrix(series, 100).normalized, 3, 3)
        _assert_matches_oracle(
            result.discords, result.distance_calls,
            lambda **kw: oracles.bucket_ordered_oracle(
                series, 100, words, num_discords=2,
                seed=0, source="hotsax", **kw
            ),
            oracles.kernel_position_distance(kernels.WindowMatrix(series, 100)),
        )

    def test_haar(self, short_series):
        result = haar_discords(
            short_series, 40, num_discords=2, seed=0
        )
        words = haar_words(short_series, 40)
        _assert_matches_oracle(
            result.discords, result.distance_calls,
            lambda **kw: oracles.bucket_ordered_oracle(
                short_series, 40, words, num_discords=2,
                seed=0, source="haar", **kw
            ),
            oracles.kernel_position_distance(
                kernels.WindowMatrix(short_series, 40)
            ),
        )

    @pytest.mark.parametrize("early_abandon", [False, True])
    def test_brute_force(self, short_series, early_abandon):
        result = brute_force_discords(
            short_series, 40, num_discords=2, early_abandon=early_abandon
        )
        _assert_matches_oracle(
            result.discords, result.distance_calls,
            lambda **kw: oracles.brute_force_oracle(
                short_series, 40, num_discords=2,
                early_abandon=early_abandon, **kw
            ),
            oracles.kernel_position_distance(
                kernels.WindowMatrix(short_series, 40)
            ),
        )

    def test_nearest_neighbor_distances(self):
        series = _blip_series(length=500)
        candidates = _candidates_for(series)
        counter = DistanceCounter()
        profile = nearest_neighbor_distances(series, candidates, counter=counter)
        reference, calls = oracles.nearest_neighbor_oracle(series, candidates)
        assert counter.calls == calls
        assert len(profile) == len(reference)
        for (iv_k, d_k), (iv_s, d_s) in zip(profile, reference):
            assert iv_k == iv_s
            if np.isinf(d_s):
                assert np.isinf(d_k)
            else:
                assert d_k == pytest.approx(d_s, abs=1e-9)

    def test_unknown_backend_rejected_everywhere(self, short_series):
        """No engine takes a ``backend`` keyword any more."""
        engines = [
            lambda **kw: brute_force_discords(short_series, 40, **kw),
            lambda **kw: hotsax_discords(short_series, 40, **kw),
            lambda **kw: haar_discords(short_series, 40, **kw),
            lambda **kw: find_discords(short_series, [], **kw),
            lambda **kw: nearest_neighbor_distances(short_series, [], **kw),
        ]
        for engine in engines:
            with pytest.raises(TypeError):
                engine(backend="kernel")


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
