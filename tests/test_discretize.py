"""Tests for repro.sax.discretize (sliding-window SAX + numerosity reduction)."""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sax.discretize  # noqa: F401 - the module, for monkeypatching
from repro import _cbuild
from repro.core.pipeline import GrammarAnomalyDetector
from repro.exceptions import DiscretizationError, ParameterError
from repro.sax import saxcore
from repro.sax.alphabet import letter_indices
from repro.sax.discretize import (
    Discretization,
    NumerosityReduction,
    SAXWord,
    discretize,
)
from repro.sax.sax import sax_word
from repro.timeseries.paa import paa_batch
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD, znorm_rows
from tests.oracles import reduce_oracle

# ``repro.sax`` re-exports a *function* named ``discretize``, which
# shadows the submodule on attribute access.
discretize_mod = sys.modules["repro.sax.discretize"]

#: ``"on"`` requires the discretize C core, ``"off"`` pins the two-pass
#: path that computes every window with the window-matrix arithmetic.
CORE_GATES = ("on", "off") if _cbuild._find_compiler() is not None else ("off",)


@contextlib.contextmanager
def forced_core(gate: str):
    """Run discretize with the C core required or switched off."""
    old = os.environ.get("REPRO_C_CORE")
    os.environ["REPRO_C_CORE"] = "require" if gate == "on" else "off"
    saxcore.reset_for_testing()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_C_CORE", None)
        else:
            os.environ["REPRO_C_CORE"] = old
        saxcore.reset_for_testing()


def _sine(length=600, period=60, noise=0.0, seed=0):
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    return np.sin(2 * np.pi * t / period) + rng.normal(0.0, noise, length)


class TestDiscretize:
    def test_word_count_matches_windows_without_reduction(self):
        series = _sine(300)
        disc = discretize(series, 50, 4, 4, strategy=NumerosityReduction.NONE)
        assert len(disc) == 300 - 50 + 1
        assert disc.raw_word_count == len(disc)

    def test_offsets_strictly_increasing(self):
        disc = discretize(_sine(), 60, 5, 4)
        offsets = disc.offsets
        assert (np.diff(offsets) > 0).all()

    def test_words_match_direct_sax(self):
        series = _sine(200, noise=0.05)
        disc = discretize(series, 40, 4, 3, strategy=NumerosityReduction.NONE)
        for sax in disc.words[:20]:
            direct = sax_word(series[sax.offset : sax.offset + 40], 4, 3)
            assert sax.word == direct

    def test_exact_reduction_removes_consecutive_duplicates(self):
        disc = discretize(_sine(), 60, 4, 4, strategy=NumerosityReduction.EXACT)
        for a, b in zip(disc.words, disc.words[1:]):
            assert a.word != b.word

    def test_exact_reduction_keeps_first_occurrence(self):
        series = _sine(300)
        none = discretize(series, 50, 4, 4, strategy=NumerosityReduction.NONE)
        exact = discretize(series, 50, 4, 4, strategy=NumerosityReduction.EXACT)
        raw_words = [w.word for w in none.words]
        for sax in exact.words:
            assert raw_words[sax.offset] == sax.word
            if sax.offset > 0:
                assert raw_words[sax.offset - 1] != sax.word

    def test_mindist_reduction_at_least_as_aggressive(self):
        series = _sine(noise=0.05, seed=3)
        exact = discretize(series, 60, 5, 6, strategy=NumerosityReduction.EXACT)
        mind = discretize(series, 60, 5, 6, strategy=NumerosityReduction.MINDIST)
        assert len(mind) <= len(exact)

    def test_reduction_ratio(self):
        series = _sine()
        disc = discretize(series, 60, 4, 4)
        assert 0.0 < disc.reduction_ratio() < 1.0
        none = discretize(series, 60, 4, 4, strategy=NumerosityReduction.NONE)
        assert none.reduction_ratio() == 0.0

    def test_series_too_short(self):
        with pytest.raises(DiscretizationError):
            discretize(np.arange(10.0), 20, 4, 4)

    def test_bad_paa(self):
        with pytest.raises(ParameterError):
            discretize(_sine(), 50, 60, 4)

    def test_bad_window(self):
        with pytest.raises(ParameterError):
            discretize(_sine(), 1, 1, 4)

    def test_bad_alphabet(self):
        with pytest.raises(ParameterError):
            discretize(_sine(), 50, 4, 1)

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            discretize(np.zeros((10, 10)), 4, 2, 3)

    @pytest.mark.parametrize("gate", CORE_GATES)
    @pytest.mark.parametrize("paa_size", [0, -1])
    def test_paa_size_below_one_is_rejected(self, gate, paa_size):
        with forced_core(gate):
            with pytest.raises(ParameterError, match=r"PAA size must be in \[1, 50\]"):
                discretize(_sine(300), 50, paa_size, 4)
            with pytest.raises(ParameterError, match="PAA size"):
                GrammarAnomalyDetector(50, paa_size, 4).fit(_sine(300))

    def test_constant_series_single_word(self):
        disc = discretize(np.full(100, 5.0), 20, 4, 4)
        assert len(disc) == 1
        assert disc.words[0].offset == 0

    @given(
        st.integers(0, 10_000),
        st.integers(10, 40),
        st.integers(2, 6),
        st.integers(3, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_tokens_cover_series(self, seed, window, paa, alpha):
        """First word starts at 0; every offset is a valid window start."""
        series = _sine(200, period=37, noise=0.1, seed=seed)
        disc = discretize(series, window, paa, alpha)
        assert disc.words[0].offset == 0
        assert all(0 <= w.offset <= 200 - window for w in disc.words)


class TestSpanToInterval:
    def test_single_token(self):
        disc = discretize(_sine(300), 50, 4, 4)
        start, end = disc.span_to_interval(0, 0)
        assert start == 0
        assert end == 50

    def test_full_span_clipped_to_series(self):
        disc = discretize(_sine(300), 50, 4, 4)
        last = len(disc) - 1
        start, end = disc.span_to_interval(0, last)
        assert start == 0
        assert end <= 300

    def test_interval_contains_all_spanned_windows(self):
        disc = discretize(_sine(300), 50, 4, 4)
        if len(disc) >= 3:
            start, end = disc.span_to_interval(1, 2)
            assert start == disc.words[1].offset
            assert end >= disc.words[2].offset + 1

    def test_out_of_range(self):
        disc = discretize(_sine(300), 50, 4, 4)
        with pytest.raises(ParameterError):
            disc.span_to_interval(0, len(disc))
        with pytest.raises(ParameterError):
            disc.span_to_interval(-1, 0)
        with pytest.raises(ParameterError):
            disc.span_to_interval(2, 1)


class TestSAXWordType:
    def test_frozen(self):
        word = SAXWord("abc", 3)
        with pytest.raises(AttributeError):
            word.word = "xyz"

    def test_tokens_helper(self):
        disc = discretize(_sine(300), 50, 4, 4)
        assert disc.tokens() == [w.word for w in disc.words]


class TestArrayRepresentation:
    """The arrays are the state; ``words`` is a view built on demand."""

    @pytest.mark.parametrize("strategy", list(NumerosityReduction))
    def test_words_on_demand_equal_the_eager_list(self, strategy):
        series = _sine(500, noise=0.2, seed=4)
        disc = discretize(series, 40, 4, 5, strategy=strategy)
        assert "words" not in vars(disc)
        # The eager construction: one string per window, reduced over
        # the strings, one SAXWord per survivor.
        letters = letter_indices(window_matrix_paa(series, 40, 4), 5)
        raw_words = ["".join("abcde"[i] for i in row) for row in letters.tolist()]
        kept = reduce_oracle(raw_words, strategy, 5, 40)
        assert disc.words == [SAXWord(raw_words[i], i) for i in kept]
        assert vars(disc)["words"] is disc.words

    def test_len_offsets_tokens_follow_the_words(self):
        disc = discretize(_sine(400, noise=0.1, seed=2), 30, 4, 4)
        words = disc.words
        assert len(disc) == len(words) == disc.offsets.size
        assert disc.offsets.dtype == np.int64
        assert disc.offsets.tolist() == [w.offset for w in words]
        assert disc.tokens() == [w.word for w in words]
        assert [disc.vocabulary[i] for i in disc.token_ids] == disc.tokens()

    def test_span_to_interval_reads_offsets(self):
        disc = discretize(_sine(400, noise=0.1, seed=2), 30, 4, 4)
        for first, last in ((0, 0), (1, 3), (0, len(disc) - 1)):
            assert disc.span_to_interval(first, last) == (
                disc.words[first].offset,
                min(disc.words[last].offset + 30, 400),
            )
        del disc.words
        disc.span_to_interval(0, len(disc) - 1)
        assert "words" not in vars(disc)

    def test_equality(self):
        series = _sine(400, noise=0.1, seed=2)
        disc = discretize(series, 30, 4, 4)
        assert disc == discretize(series, 30, 4, 4)
        disc.words  # a built cache does not change equality
        assert disc == discretize(series, 30, 4, 4)
        assert disc != discretize(series, 31, 4, 4)
        assert disc != discretize(_sine(400, noise=0.1, seed=3), 30, 4, 4)
        # Same words under a different interning are equal.
        vocabulary = ["zzzz", *disc.vocabulary]
        reinterned = Discretization(
            offsets=disc.offsets.copy(),
            token_ids=disc.token_ids + 1,
            vocabulary=vocabulary,
            window=30,
            paa_size=4,
            alphabet_size=4,
            series_length=400,
            strategy=NumerosityReduction.EXACT,
            raw_word_count=disc.raw_word_count,
        )
        assert reinterned == disc
        with pytest.raises(TypeError):
            hash(disc)


# -- the window-matrix oracle --------------------------------------------------


def window_matrix_paa(series, window, paa_size, threshold=DEFAULT_FLATNESS_THRESHOLD):
    """Oracle: the (n − W + 1) × W window-matrix arithmetic.

    Slide, z-normalize every window, zero the flat ones (two-pass
    ``std``), PAA — the discretization front half before it moved to
    prefix sums.  Its letters are the ones :func:`discretize` must
    reproduce on both gates.
    """
    windows = sliding_windows(np.asarray(series, dtype=float), window)
    normalized = znorm_rows(windows, threshold)
    flat = windows.std(axis=1) < threshold
    normalized = np.where(flat[:, None], 0.0, normalized)
    return paa_batch(normalized, paa_size)


@st.composite
def _windowed_cases(draw):
    window = draw(st.integers(2, 48))
    divisible = draw(st.booleans())
    if divisible:
        paa_size = draw(st.sampled_from([p for p in range(1, window + 1) if window % p == 0]))
    else:
        choices = [p for p in range(2, window) if window % p]
        paa_size = draw(st.sampled_from(choices)) if choices else window
    n = window + draw(st.integers(0, 160))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.sampled_from([0.0, 1.0, -250.0, 1e3, 1e6, -1e6]))
    scale = 10.0 ** draw(st.floats(-3, 3))
    kind = draw(st.sampled_from(["noise", "walk", "near_flat", "symmetric", "steps"]))
    if kind == "noise":
        shape = rng.normal(size=n)
    elif kind == "walk":
        shape = np.cumsum(rng.normal(size=n))
    elif kind == "near_flat":
        # ±1 alternation has σ = 1 on every even-length window: scaled
        # to the flatness threshold, σ sits on it.
        shape = np.where(np.arange(n) % 2, 1.0, -1.0)
        scale = DEFAULT_FLATNESS_THRESHOLD * draw(st.sampled_from([1.0, 1.0 + 1e-12, 1.0 - 1e-12]))
    elif kind == "symmetric":
        # Blocks mirrored with a sign flip: segments centred on a block
        # boundary have an exact-zero mean, on the even-alphabet breakpoint.
        half = rng.integers(-3, 4, size=draw(st.integers(1, 8))).astype(float)
        block = np.concatenate([half, -half[::-1]])
        shape = np.resize(block, n)
    else:
        shape = np.repeat(rng.integers(-2, 3, size=n), draw(st.integers(1, 6)))[:n].astype(float)
    return offset + scale * shape, window, paa_size


class TestWindowedPaa:
    """Inputs the sliding-window PAA stage refuses, checked through
    ``discretize`` on every available gate: the core path and the
    two-pass path must reject them before computing any window."""

    def test_rejects_non_finite_series(self):
        series = _sine(200)
        series[50] = np.nan
        for gate in CORE_GATES:
            with forced_core(gate):
                with pytest.raises(DiscretizationError, match="non-finite"):
                    discretize(series, 20, 4, 4)

    @pytest.mark.parametrize("window, paa_size", [(1, 1), (20, 0), (20, 21)])
    def test_rejects_bad_shapes(self, window, paa_size):
        for gate in CORE_GATES:
            with forced_core(gate):
                with pytest.raises(ParameterError):
                    discretize(_sine(200), window, paa_size, 4)

    def test_rejects_short_series(self):
        for gate in CORE_GATES:
            with forced_core(gate):
                with pytest.raises(DiscretizationError):
                    discretize(_sine(10), 20, 4, 4)


class TestUniqueRows:
    @pytest.mark.parametrize("paa_size, alphabet_size", [(4, 4), (13, 26), (14, 26), (30, 3)])
    def test_matches_row_wise_unique(self, rng, paa_size, alphabet_size):
        """The packed-key path (and its fallback for words too long to
        pack) equals ``np.unique(axis=0)``: same sorted rows, same ids."""
        rows = rng.integers(0, alphabet_size, size=(500, paa_size))
        rows[250:] = rows[:250]  # plenty of repeats
        uniq, ids = discretize_mod._unique_rows(rows, alphabet_size)
        expected, inverse = np.unique(rows, axis=0, return_inverse=True)
        np.testing.assert_array_equal(uniq, expected)
        np.testing.assert_array_equal(ids, inverse.ravel())
        assert ids.dtype == np.int64


# -- the fused C core against the two-pass path --------------------------------


def _oracle_words(series, window, paa_size, alphabet_size):
    """Every window's word under the window-matrix arithmetic."""
    letters = letter_indices(window_matrix_paa(series, window, paa_size), alphabet_size)
    return ["".join(chr(ord("a") + i) for i in row) for row in letters.tolist()]


def _mirrored_blocks(length):
    """Blocks mirrored with a sign flip, offset by 1e3."""
    block = np.array([3.0, -1.0, 2.0, -2.0, 1.0, -3.0])
    return np.resize(np.concatenate([block, -block[::-1]]), length) + 1e3


def _arrays(disc):
    return (disc.offsets.tolist(), disc.token_ids.tolist(), disc.vocabulary,
            disc.raw_word_count)


needs_core = pytest.mark.skipif("on" not in CORE_GATES, reason="no C compiler on PATH")


class TestFusedCore:
    @pytest.mark.parametrize("gate", CORE_GATES)
    @given(_windowed_cases(), st.sampled_from([2, 3, 4, 5, 6, 9, 10, 26]))
    @settings(max_examples=300, deadline=None)
    def test_property_words_equal_window_matrix_oracle(self, gate, case, alphabet_size):
        series, window, paa_size = case
        with forced_core(gate):
            disc = discretize(
                series, window, paa_size, alphabet_size,
                strategy=NumerosityReduction.NONE,
            )
        assert disc.tokens() == _oracle_words(series, window, paa_size, alphabet_size)
        assert disc.offsets.tolist() == list(range(series.size - window + 1))

    @needs_core
    @pytest.mark.parametrize(
        "series, window, paa_size, alphabet_size",
        [
            # Exact-zero segment means on the even-alphabet breakpoint 0.
            (_mirrored_blocks(400), 36, 6, 4),
            # σ exactly at the flatness threshold on every even-length window.
            (np.where(np.arange(300) % 2, 1.0, -1.0) * DEFAULT_FLATNESS_THRESHOLD,
             20, 4, 3),
        ],
        ids=["zero-segments", "sigma-at-threshold"],
    )
    def test_flagged_rows_are_recomputed(
        self, monkeypatch, series, window, paa_size, alphabet_size
    ):
        real = discretize_mod._two_pass_rows
        recomputed = []

        def spy(series_, window_, paa_size_, rows, threshold):
            out = real(series_, window_, paa_size_, rows, threshold)
            recomputed.append((rows.copy(), out.copy()))
            return out

        with forced_core("on"):
            saxcore.load()  # the parity probe runs before the spy is in place
            monkeypatch.setattr(discretize_mod, "_two_pass_rows", spy)
            disc = discretize(
                series, window, paa_size, alphabet_size,
                strategy=NumerosityReduction.NONE,
            )
        assert len(recomputed) == 1
        rows, values = recomputed[0]
        assert rows.size > 0
        np.testing.assert_array_equal(
            values, window_matrix_paa(series, window, paa_size)[rows]
        )
        assert disc.tokens() == _oracle_words(series, window, paa_size, alphabet_size)

    @pytest.mark.parametrize("gate", CORE_GATES)
    @pytest.mark.parametrize(
        "series, window, paa_size, alphabet_size",
        [
            # Fractional edges; the core flags a third of the windows.
            (_mirrored_blocks(400), 36, 5, 4),
            # The core flags every window.
            (np.where(np.arange(300) % 2, 1.0, -1.0) * DEFAULT_FLATNESS_THRESHOLD,
             20, 3, 3),
        ],
        ids=["zero-segments", "sigma-at-threshold"],
    )
    def test_two_pass_rows_run_in_chunks(
        self, monkeypatch, gate, series, window, paa_size, alphabet_size
    ):
        """Seven rows per chunk: the recomputed rows (every window without
        the core, the flagged ones with it) span many chunks and a partial
        last one, and the words are still the oracle's."""
        monkeypatch.setattr(discretize_mod, "_TWO_PASS_ELEMENTS", 7 * window)
        real = discretize_mod._two_pass_rows
        chunks = []

        def spy(series_, window_, paa_size_, rows, threshold):
            chunks.append(rows.size)
            return real(series_, window_, paa_size_, rows, threshold)

        with forced_core(gate):
            saxcore.load()  # the parity probe runs before the spy is in place
            monkeypatch.setattr(discretize_mod, "_two_pass_rows", spy)
            disc = discretize(
                series, window, paa_size, alphabet_size,
                strategy=NumerosityReduction.NONE,
            )
        assert disc.tokens() == _oracle_words(series, window, paa_size, alphabet_size)
        assert len(chunks) > 2 and max(chunks) == 7

    @needs_core
    @pytest.mark.parametrize("strategy", list(NumerosityReduction))
    @pytest.mark.parametrize(
        "window, paa_size, alphabet_size", [(40, 4, 4), (37, 5, 7), (60, 6, 26), (9, 9, 2)]
    )
    def test_strategies_match_the_numpy_path(
        self, strategy, window, paa_size, alphabet_size
    ):
        series = _sine(1500, period=53, noise=0.3, seed=9) * 1e3 + 1e6
        series[700:820] = series[700]
        results = {}
        for gate in ("on", "off"):
            with forced_core(gate):
                results[gate] = discretize(
                    series, window, paa_size, alphabet_size, strategy=strategy
                )
        assert _arrays(results["on"]) == _arrays(results["off"])
        assert results["on"] == results["off"]

    @needs_core
    def test_overflow_gives_the_same_flat_word(self):
        series = _sine(300, period=29) * 1e160
        results = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for gate in ("on", "off"):
                with forced_core(gate):
                    results[gate] = discretize(series, 40, 4, 4)
        assert _arrays(results["on"]) == _arrays(results["off"])
        assert results["on"].vocabulary == ["cccc"]

    @needs_core
    def test_failed_parity_probe_falls_back(self, monkeypatch):
        series = _sine(800, period=41, noise=0.2, seed=6)
        with forced_core("on"):
            want = discretize(series, 40, 5, 6)
        core = _cbuild.CCore(saxcore._SOURCE, saxcore._bind, lambda lib: False)
        monkeypatch.setattr(saxcore, "load", core.load)
        monkeypatch.setenv("REPRO_C_CORE", "")
        got = discretize(series, 40, 5, 6)
        assert core.load() is None
        assert _arrays(got) == _arrays(want)
        monkeypatch.setenv("REPRO_C_CORE", "require")
        core.reset_for_testing()
        with pytest.raises(_cbuild.CCoreUnavailable, match="parity probe"):
            discretize(series, 40, 5, 6)

    @pytest.mark.parametrize("gate", CORE_GATES)
    def test_words_too_long_to_pack_take_the_core_letters(self, monkeypatch, gate):
        """``A^P >= 2^62`` words cannot be packed into keys: the core still
        computes their letters, and the Python reduction keeps the
        oracle's words under every strategy."""
        series = _sine(400, period=37, noise=0.1)
        window, paa_size, alphabet_size = 40, 14, 26
        assert alphabet_size**paa_size >= 2**62
        oracle = _oracle_words(series, window, paa_size, alphabet_size)
        real = saxcore.letters
        calls = []

        def spy(*args):
            calls.append(args)
            return real(*args)

        with forced_core(gate):
            saxcore.load()  # the parity probe runs before the spy is in place
            monkeypatch.setattr(saxcore, "letters", spy)
            for strategy in NumerosityReduction:
                disc = discretize(
                    series, window, paa_size, alphabet_size, strategy=strategy
                )
                kept = reduce_oracle(oracle, strategy, alphabet_size, window)
                assert disc.offsets.tolist() == kept
                assert disc.tokens() == [oracle[i] for i in kept]
        assert len(calls) == (len(NumerosityReduction) if gate == "on" else 0)
