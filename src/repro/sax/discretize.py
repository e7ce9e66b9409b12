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
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DiscretizationError, ParameterError
from repro.sax.alphabet import breakpoints_array, letter_indices
from repro.sax import saxcore
from repro.timeseries.kernels import centred_prefix_sums
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


@dataclass(eq=False)
class Discretization:
    """The result of discretizing a series, as arrays.

    Attributes
    ----------
    offsets:
        Window offset of each surviving word (``int64``, strictly
        increasing) — what maps grammar rules back onto the series.
    token_ids:
        Dense interned id of each surviving word (``int64``, aligned
        with ``offsets``).  Grammar induction consumes these directly
        (:func:`repro.grammar.sequitur.induce_grammar_interned`) so the
        word strings never need re-hashing.
    vocabulary:
        The distinct surviving word strings (sorted lexicographically);
        word ``k`` is ``vocabulary[token_ids[k]]``.
    window, paa_size, alphabet_size:
        The discretization parameters used.
    series_length:
        Length of the input series (needed to map intervals back).
    strategy:
        The numerosity-reduction strategy that was applied.
    raw_word_count:
        Number of words before numerosity reduction (== number of
        sliding windows).

    Two discretizations are equal when their word sequences
    (:attr:`words`) and parameters are.
    """

    offsets: np.ndarray = field(repr=False)
    token_ids: np.ndarray = field(repr=False)
    vocabulary: list[str] = field(repr=False)
    window: int
    paa_size: int
    alphabet_size: int
    series_length: int
    strategy: NumerosityReduction
    raw_word_count: int = 0

    def __len__(self) -> int:
        return len(self.offsets)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Discretization):
            return NotImplemented
        return (
            self._params() == other._params()
            and np.array_equal(self.offsets, other.offsets)
            and self.tokens() == other.tokens()
        )

    __hash__ = None

    def _params(self) -> tuple:
        return (
            self.window,
            self.paa_size,
            self.alphabet_size,
            self.series_length,
            self.strategy,
            self.raw_word_count,
        )

    @functools.cached_property
    def words(self) -> list[SAXWord]:
        """The surviving words as :class:`SAXWord` objects, built on first use.

        The pipeline itself reads only the arrays; this view is for
        callers that want one object per word.
        """
        return [
            SAXWord(word, offset)
            for word, offset in zip(self.tokens(), self.offsets.tolist())
        ]

    def tokens(self) -> list[str]:
        """The plain word strings, in order (Sequitur's input)."""
        return list(map(self.vocabulary.__getitem__, self.token_ids.tolist()))

    def span_to_interval(self, first_token: int, last_token: int) -> tuple[int, int]:
        """Map a token span [first, last] to a half-open series interval.

        The interval starts at the first token's window offset and ends at
        the end of the last token's *window* — i.e. it covers every series
        point any of the spanned windows covers, clipped to the series.
        """
        if not 0 <= first_token <= last_token < len(self.offsets):
            raise ParameterError(
                f"token span [{first_token}, {last_token}] out of range "
                f"for {len(self.offsets)} words"
            )
        start = int(self.offsets[first_token])
        end = min(int(self.offsets[last_token]) + self.window, self.series_length)
        return start, end

    def reduction_ratio(self) -> float:
        """Fraction of raw words removed by numerosity reduction."""
        if self.raw_word_count == 0:
            return 0.0
        return 1.0 - len(self.offsets) / self.raw_word_count


#: Elements of the window matrix one :func:`_two_pass_rows` call builds
#: at most: rows are recomputed in chunks of ``_TWO_PASS_ELEMENTS //
#: window`` so that a core-less run (or a series whose every window is
#: near a decision) never holds the whole (n − W + 1) × W matrix.
_TWO_PASS_ELEMENTS = 2**20


def _two_pass_rows(
    series: np.ndarray,
    window: int,
    paa_size: int,
    rows: np.ndarray,
    flatness_threshold: float,
) -> np.ndarray:
    """The window-matrix arithmetic, on the selected windows only.

    Slide, z-normalize with :func:`znorm_rows`, zero flat rows (two-pass
    ``std``), then :func:`paa_batch` — the same operations, in the same
    order, that the full window matrix would run on these rows.
    """
    windows = sliding_windows(series, window)[rows]
    normalized = znorm_rows(windows, flatness_threshold)
    normalized[windows.std(axis=1) < flatness_threshold] = 0.0
    return paa_batch(normalized, paa_size)


def _checked_series(series: np.ndarray) -> np.ndarray:
    """*series* as a finite 1-d float array, or a precise error."""
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
    return series


def discretize(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    *,
    strategy: NumerosityReduction = NumerosityReduction.EXACT,
    flatness_threshold: float = DEFAULT_FLATNESS_THRESHOLD,
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

    The C core of :mod:`repro.sax.saxcore` computes the letters from
    prefix sums and flags the windows its near-decision guard cannot
    vouch for (DESIGN.md §15); those are recomputed with
    :func:`_two_pass_rows`, the window-matrix arithmetic.  With
    ``REPRO_C_CORE=off``, no compiler or a failed parity probe, every
    window is computed that way.  Words that pack into an int64
    (``alphabet_size ** paa_size < 2**62``) are also reduced in the core.

    Raises
    ------
    ParameterError
        If the series is not one-dimensional, the window is shorter than
        2, ``paa_size`` is outside ``[1, window]``, the alphabet size is
        unsupported or the strategy unknown.
    DiscretizationError
        If the series is shorter than the window, or contains NaN/Inf
        values (which would otherwise silently corrupt every SAX word
        whose window touches them — route dirty data through
        :func:`repro.timeseries.preprocess.quality_gate` first).
    """
    series = _checked_series(series)
    if window < 2:
        raise ParameterError(f"window must be at least 2, got {window}")
    if series.size < window:
        raise DiscretizationError(
            f"series of length {series.size} is shorter than window {window}"
        )
    if not 1 <= paa_size <= window:
        raise ParameterError(
            f"PAA size must be in [1, {window}], got {paa_size}"
        )
    # Validate alphabet early (breakpoints() raises ParameterError).
    breakpoints_array(alphabet_size)
    if not isinstance(strategy, NumerosityReduction):
        raise ParameterError(
            f"unknown numerosity reduction strategy: {strategy!r}"
        )

    lib = saxcore.load()
    letters = _letters(
        lib, series, window, paa_size, alphabet_size, flatness_threshold
    )
    if lib is not None and alphabet_size**paa_size < 2**62:
        kept, keys = saxcore.reduce(lib, letters, alphabet_size, strategy.value)
        uniq_keys, token_ids = np.unique(keys, return_inverse=True)
        place = alphabet_size ** np.arange(paa_size - 1, -1, -1, dtype=np.int64)
        uniq_rows = uniq_keys[:, None] // place % alphabet_size
        token_ids = token_ids.astype(np.int64, copy=False).ravel()
    else:
        kept = _kept_indices(letters, strategy)
        uniq_rows, token_ids = _unique_rows(letters[kept], alphabet_size)

    # Word strings are built once per *distinct* surviving row — on real
    # streams that is orders of magnitude fewer joins than one per window.
    alphabet = [chr(ord("a") + i) for i in range(alphabet_size)]
    vocabulary = ["".join(alphabet[i] for i in row) for row in uniq_rows.tolist()]
    return Discretization(
        offsets=kept,
        token_ids=token_ids,
        vocabulary=vocabulary,
        window=window,
        paa_size=paa_size,
        alphabet_size=alphabet_size,
        series_length=series.size,
        strategy=strategy,
        raw_word_count=series.size - window + 1,
    )


def _letters(
    lib,
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    flatness_threshold: float,
) -> np.ndarray:
    """Every window's letter indices, a ``(n − W + 1, P)`` ``uint8`` array.

    With the core (*lib*), from the centred prefix sums, with the windows
    its guard flags against this alphabet's breakpoints recomputed by
    :func:`_two_pass_rows`; without it (*lib* None), every window by
    :func:`_two_pass_rows`.  Either way in chunks of at most
    ``_TWO_PASS_ELEMENTS`` window-matrix elements.
    """
    if lib is not None:
        letters, rows = saxcore.letters(
            lib, centred_prefix_sums(series), window, paa_size,
            breakpoints_array(alphabet_size), flatness_threshold,
        )
    else:
        rows = np.arange(series.size - window + 1)
        letters = np.empty((rows.size, paa_size), dtype=np.uint8)
    step = max(1, _TWO_PASS_ELEMENTS // window)
    for start in range(0, rows.size, step):
        chunk = rows[start : start + step]
        letters[chunk] = letter_indices(
            _two_pass_rows(series, window, paa_size, chunk, flatness_threshold),
            alphabet_size,
        )
    return letters


def _unique_rows(
    rows: np.ndarray, alphabet_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0, return_inverse=True)`` for letter rows.

    When a word fits in an int64 as a base-``alphabet_size`` number,
    each row becomes one integer key whose order is the rows'
    lexicographic order, and a 1-d ``np.unique`` replaces the much
    slower row-wise one.  Returns the distinct rows (sorted) and each
    row's dense id (``int64``).
    """
    if alphabet_size ** rows.shape[1] < 2**62:
        place = alphabet_size ** np.arange(rows.shape[1] - 1, -1, -1, dtype=np.int64)
        keys = rows.astype(np.int64, copy=False) @ place
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        return rows[first], inverse.astype(np.int64, copy=False).ravel()
    uniq_rows, inverse = np.unique(rows, axis=0, return_inverse=True)
    return uniq_rows, inverse.astype(np.int64, copy=False).ravel()


def _kept_indices(
    letter_idx: np.ndarray, strategy: NumerosityReduction
) -> np.ndarray:
    """Surviving window indices, computed on integer letter rows.

    Equivalent to reducing the word strings (``reduce_oracle`` in
    ``tests/oracles.py``): each letter maps to exactly one index, so row
    equality == word equality.  But
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

