"""Sliding-window SAX discretization with numerosity reduction.

This is the front half of both algorithms in the paper (Sections 3.1–3.2):

1. slide a window of size ``window`` across the series;
2. z-normalize each window, PAA it to ``paa_size`` segments, map the
   segment means to letters — one SAX *word* per window, remembering the
   window's starting offset;
3. apply *numerosity reduction*: consecutive identical (or, with the
   MINDIST strategy, indistinguishable) words are collapsed to their first
   occurrence.  The survivors, with their offsets, are the token stream
   handed to Sequitur — and the offsets are what later lets grammar rules
   be mapped back onto the raw series.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DiscretizationError, ParameterError
from repro.sax.alphabet import breakpoints_array, letter_indices
from repro.sax.sax import mindist
from repro.timeseries.paa import paa_batch
from repro.timeseries.preprocess import nonfinite_spans
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD, znorm_rows


class NumerosityReduction(enum.Enum):
    """Numerosity-reduction strategy (GrammarViz 2.0 offers the same three).

    NONE
        Keep every window's word.
    EXACT
        Collapse runs of *identical* consecutive words (the paper's
        default, Section 3.2).
    MINDIST
        Collapse a word into the previous one when their SAX MINDIST
        lower bound is zero (i.e. the words are indistinguishable under
        the lower-bounding distance — a slightly more aggressive merge).
    """

    NONE = "none"
    EXACT = "exact"
    MINDIST = "mindist"


@dataclass(frozen=True)
class SAXWord:
    """One surviving SAX word: its string and where its window started."""

    word: str
    offset: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.word}@{self.offset}"


@dataclass
class Discretization:
    """The result of discretizing a series.

    Attributes
    ----------
    words:
        The numerosity-reduced SAX word sequence, in series order.
    window, paa_size, alphabet_size:
        The discretization parameters used.
    series_length:
        Length of the input series (needed to map intervals back).
    strategy:
        The numerosity-reduction strategy that was applied.
    raw_word_count:
        Number of words before numerosity reduction (== number of
        sliding windows).
    token_ids:
        Dense interned id of each surviving word (``int64``, aligned
        with ``words``); ``vocabulary[token_ids[k]] == words[k].word``.
        Grammar induction consumes these directly
        (:func:`repro.grammar.sequitur.induce_grammar_interned`) so the
        word strings never need re-hashing.
    vocabulary:
        The distinct surviving word strings (sorted lexicographically).
    """

    words: list[SAXWord]
    window: int
    paa_size: int
    alphabet_size: int
    series_length: int
    strategy: NumerosityReduction
    raw_word_count: int = 0
    _offsets: np.ndarray = field(default=None, repr=False, compare=False)
    token_ids: np.ndarray = field(default=None, repr=False, compare=False)
    vocabulary: list[str] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.words)

    @property
    def offsets(self) -> np.ndarray:
        """Array of word offsets, cached."""
        if self._offsets is None:
            object.__setattr__(
                self, "_offsets", np.array([w.offset for w in self.words], dtype=int)
            )
        return self._offsets

    def tokens(self) -> list[str]:
        """The plain word strings, in order (Sequitur's input)."""
        if self.token_ids is not None and self.vocabulary is not None:
            vocab = self.vocabulary
            return [vocab[i] for i in self.token_ids.tolist()]
        return [w.word for w in self.words]

    def span_to_interval(self, first_token: int, last_token: int) -> tuple[int, int]:
        """Map a token span [first, last] to a half-open series interval.

        The interval starts at the first token's window offset and ends at
        the end of the last token's *window* — i.e. it covers every series
        point any of the spanned windows covers, clipped to the series.
        """
        if not 0 <= first_token <= last_token < len(self.words):
            raise ParameterError(
                f"token span [{first_token}, {last_token}] out of range "
                f"for {len(self.words)} words"
            )
        start = self.words[first_token].offset
        end = min(self.words[last_token].offset + self.window, self.series_length)
        return start, end

    def reduction_ratio(self) -> float:
        """Fraction of raw words removed by numerosity reduction."""
        if self.raw_word_count == 0:
            return 0.0
        return 1.0 - len(self.words) / self.raw_word_count


def normalized_flat_windows(
    series: np.ndarray,
    window: int,
    *,
    flatness_threshold: float = DEFAULT_FLATNESS_THRESHOLD,
    normalized: np.ndarray = None,
) -> np.ndarray:
    """Z-normalized sliding windows with flat rows zeroed out.

    The ``paa_size``- and alphabet-independent front half of
    :func:`windowed_paa`: slide, z-normalize, zero out flat windows.
    Flat windows carry no shape: discretizing them as exact zeros maps
    them all to the same middle-letter word instead of flickering
    across the central breakpoint on sub-threshold noise.

    Pass *normalized* (a prebuilt ``znorm_rows`` of the same windows at
    the same threshold, e.g. a
    :class:`~repro.timeseries.kernels.WindowMatrix`'s ``normalized``)
    to skip the normalization pass; the flat-row zeroing never mutates
    it.
    """
    windows = sliding_windows(series, window)
    if normalized is None:
        normalized = znorm_rows(windows, flatness_threshold)
    flat_rows = windows.std(axis=1) < flatness_threshold
    if flat_rows.any():
        normalized = np.where(flat_rows[:, None], 0.0, normalized)
    return normalized


def windowed_paa(
    series: np.ndarray,
    window: int,
    paa_size: int,
    *,
    flatness_threshold: float = DEFAULT_FLATNESS_THRESHOLD,
    normalized_flat: np.ndarray = None,
) -> np.ndarray:
    """Per-window PAA coefficients of the z-normalized sliding windows.

    The expensive front half of :func:`discretize` — everything that
    depends only on ``(window, paa_size)`` and not on the alphabet.
    Parameter sweeps compute this once per ``(window, paa_size)`` pair
    and hand it to :func:`discretize` for each alphabet size; the
    memoization context goes further and shares *normalized_flat* (the
    output of :func:`normalized_flat_windows`) across every
    ``paa_size`` of the same ``window``.
    """
    if normalized_flat is None:
        normalized_flat = normalized_flat_windows(
            series, window, flatness_threshold=flatness_threshold
        )
    return paa_batch(normalized_flat, paa_size)


def discretize(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    *,
    strategy: NumerosityReduction = NumerosityReduction.EXACT,
    flatness_threshold: float = DEFAULT_FLATNESS_THRESHOLD,
    paa_values: np.ndarray = None,
) -> Discretization:
    """Discretize *series* into a numerosity-reduced SAX word sequence.

    Parameters
    ----------
    series:
        One-dimensional array of scalar observations.
    window:
        Sliding-window length (the paper's "seed" size W).
    paa_size:
        Letters per word (P).
    alphabet_size:
        Alphabet size (A).
    strategy:
        Numerosity-reduction strategy; EXACT is the paper's choice.
    flatness_threshold:
        Windows whose standard deviation falls below this are treated as
        flat and discretized as the all-middle-symbol word.
    paa_values:
        Optional precomputed output of :func:`windowed_paa` for the same
        ``(series, window, paa_size, flatness_threshold)``.  Parameter
        sweeps pass it to amortize the sliding-window/PAA front half
        across alphabet sizes; shape is validated, contents trusted.

    Raises
    ------
    DiscretizationError
        If the series is shorter than the window, or contains NaN/Inf
        values (which would otherwise silently corrupt every SAX word
        whose window touches them — route dirty data through
        :func:`repro.timeseries.preprocess.quality_gate` first).
    """
    series = np.asarray(series, dtype=float)
    if series.ndim != 1:
        raise ParameterError(f"series must be 1-d, got shape {series.shape}")
    if not np.isfinite(series).all():
        spans = nonfinite_spans(series)
        shown = ", ".join(f"[{s}, {e})" for s, e in spans[:5])
        more = f" (+{len(spans) - 5} more)" if len(spans) > 5 else ""
        raise DiscretizationError(
            f"series contains non-finite values in spans {shown}{more}; "
            f"clean it first (see repro.timeseries.preprocess.quality_gate)"
        )
    if window < 2:
        raise ParameterError(f"window must be at least 2, got {window}")
    if series.size < window:
        raise DiscretizationError(
            f"series of length {series.size} is shorter than window {window}"
        )
    if paa_size > window:
        raise ParameterError(
            f"PAA size {paa_size} exceeds window length {window}"
        )
    # Validate alphabet early (breakpoints() raises ParameterError).
    breakpoints_array(alphabet_size)

    if paa_values is None:
        paa_values = windowed_paa(
            series, window, paa_size, flatness_threshold=flatness_threshold
        )
    else:
        expected = (series.size - window + 1, paa_size)
        if tuple(paa_values.shape) != expected:
            raise ParameterError(
                f"precomputed paa_values has shape {tuple(paa_values.shape)}, "
                f"expected {expected} for window={window}, paa_size={paa_size}"
            )
    letter_idx = letter_indices(paa_values, alphabet_size)

    kept = _kept_indices(letter_idx, strategy)
    kept_rows = letter_idx[kept]
    uniq_rows, inverse = np.unique(kept_rows, axis=0, return_inverse=True)
    token_ids = inverse.astype(np.int64, copy=False).ravel()

    # Word strings are built once per *distinct* surviving row — on real
    # streams that is orders of magnitude fewer joins than one per window.
    alphabet = [chr(ord("a") + i) for i in range(alphabet_size)]
    vocabulary = ["".join(alphabet[i] for i in row) for row in uniq_rows.tolist()]

    words = [
        SAXWord(vocabulary[tid], off)
        for tid, off in zip(token_ids.tolist(), kept.tolist())
    ]
    return Discretization(
        words=words,
        window=window,
        paa_size=paa_size,
        alphabet_size=alphabet_size,
        series_length=series.size,
        strategy=strategy,
        raw_word_count=letter_idx.shape[0],
        _offsets=kept.astype(int, copy=False),
        token_ids=token_ids,
        vocabulary=vocabulary,
    )


def _kept_indices(
    letter_idx: np.ndarray, strategy: NumerosityReduction
) -> np.ndarray:
    """Surviving window indices, computed on integer letter rows.

    Equivalent to :func:`_reduce` over the word strings (each letter
    maps to exactly one index, so row equality == word equality), but
    EXACT reduction vectorizes: a word survives iff its row differs from
    the previous row, and comparing to the previous *kept* word equals
    comparing to the previous *raw* word by induction (a dropped word is
    identical to the last kept one).

    MINDIST keeps a word iff its lower-bound distance to the last kept
    word is positive, which for the SAX distance table means some letter
    pair is at least two apart — collapses are not transitive, so this
    stays a sequential scan (over plain Python ints, not array rows).
    """
    n = letter_idx.shape[0]
    if strategy is NumerosityReduction.NONE or n == 0:
        return np.arange(n, dtype=np.int64)
    if strategy is NumerosityReduction.EXACT:
        changed = np.flatnonzero(np.any(letter_idx[1:] != letter_idx[:-1], axis=1))
        return np.concatenate(
            (np.zeros(1, dtype=np.int64), changed.astype(np.int64, copy=False) + 1)
        )
    if strategy is NumerosityReduction.MINDIST:
        rows = letter_idx.tolist()
        kept = [0]
        last = rows[0]
        for i in range(1, n):
            row = rows[i]
            for a, b in zip(row, last):
                if a - b > 1 or b - a > 1:
                    kept.append(i)
                    last = row
                    break
        return np.asarray(kept, dtype=np.int64)
    raise ParameterError(f"unknown numerosity reduction strategy: {strategy!r}")


def _reduce(
    raw_words: list[str],
    strategy: NumerosityReduction,
    alphabet_size: int,
    window: int,
) -> list[int]:
    """Indices of the words that survive numerosity reduction.

    Reference implementation over word strings, kept for the
    equivalence tests; :func:`discretize` uses :func:`_kept_indices`
    on the integer letter rows instead.
    """
    if strategy is NumerosityReduction.NONE or not raw_words:
        return list(range(len(raw_words)))
    kept = [0]
    if strategy is NumerosityReduction.EXACT:
        for i in range(1, len(raw_words)):
            if raw_words[i] != raw_words[kept[-1]]:
                kept.append(i)
        return kept
    if strategy is NumerosityReduction.MINDIST:
        for i in range(1, len(raw_words)):
            dist = mindist(raw_words[i], raw_words[kept[-1]], alphabet_size, window)
            if dist > 0.0:
                kept.append(i)
        return kept
    raise ParameterError(f"unknown numerosity reduction strategy: {strategy!r}")
