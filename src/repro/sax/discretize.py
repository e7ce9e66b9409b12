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
from repro.sax.alphabet import (
    MAX_ALPHABET_SIZE,
    MIN_ALPHABET_SIZE,
    breakpoints,
    breakpoints_array,
    letter_indices,
)
from repro.sax import saxcore
from repro.sax.sax import mindist
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


#: Every SAX breakpoint of every supported alphabet, sorted.  The
#: near-decision guard of :func:`windowed_paa` checks PAA values against
#: this union, so the PAA matrix stays alphabet-free and can be shared
#: by every alphabet size.
_ALL_BREAKPOINTS = np.array(
    sorted(
        {
            cut
            for a in range(MIN_ALPHABET_SIZE, MAX_ALPHABET_SIZE + 1)
            for cut in breakpoints(a)
        }
    )
)

#: The guard's prefilter grid: ``_GRID_CELLS`` cells of width
#: ``_GRID_STEP`` (a power of two, so cell indices round only in the
#: ``+ 2`` shift) tile [-2, 2], which holds every breakpoint.  A cell is
#: flagged when it or a neighbour holds a breakpoint, so a value in an
#: unflagged cell is at least one cell width from every breakpoint.
_GRID_CELLS = 2**14
_GRID_STEP = 4.0 / _GRID_CELLS
_GRID_FLAGGED = np.zeros(_GRID_CELLS, dtype=bool)
_GRID_FLAGGED[
    np.clip(
        np.floor((_ALL_BREAKPOINTS + 2.0) / _GRID_STEP).astype(np.intp)[:, None]
        + np.array([-1, 0, 1]),
        0,
        _GRID_CELLS - 1,
    )
] = True

#: Unit roundoff of float64.
_U = np.finfo(float).eps / 2


def windowed_paa(
    series: np.ndarray,
    window: int,
    paa_size: int,
    *,
    flatness_threshold: float = DEFAULT_FLATNESS_THRESHOLD,
) -> np.ndarray:
    """Per-window PAA coefficients of the z-normalized sliding windows.

    The NumPy front half of :func:`discretize` — everything that
    depends only on ``(window, paa_size)`` and not on the alphabet.
    Parameter sweeps compute this once per ``(window, paa_size)`` pair
    and hand it to :func:`discretize` for each alphabet size; otherwise
    :func:`discretize` runs the same arithmetic in its C core when it
    can (:func:`_core_words`).

    Works in O(n·P) from prefix sums of the centred series, never
    building the (n − W + 1) × W window matrix: each window's mean and
    standard deviation come from ``cumsum(x)`` and ``cumsum(x²)``, each
    segment's raw mean from ``cumsum(x)`` (boundary samples weighted
    fractionally when ``window % paa_size != 0``), and the coefficient
    is ``(segment mean − window mean) / σ``.  Flat windows (σ below
    *flatness_threshold*) are exact zeros: they carry no shape, and
    discretizing them as zeros maps them all to the same middle-letter
    word instead of flickering across the central breakpoint on
    sub-threshold noise.

    The letters are those of the two-pass window-matrix arithmetic
    (slide, z-normalize, PAA): a *near-decision guard* recomputes, with
    that arithmetic, every row whose σ is within its error estimate of
    the flatness threshold or whose coefficients are within theirs of
    any SAX breakpoint (see :func:`_near_decision_rows` and DESIGN.md
    §15).
    """
    series = _checked_series(series)
    if window < 2:
        raise ParameterError(f"window must be at least 2, got {window}")
    if paa_size < 1 or paa_size > window:
        raise ParameterError(
            f"PAA size must be in [1, {window}], got {paa_size}"
        )
    if series.size < window:
        raise DiscretizationError(
            f"series of length {series.size} is shorter than window {window}"
        )
    k = series.size - window + 1
    centre, x, c, c2 = centred_prefix_sums(series)

    mu = (c[window:] - c[:k]) / window
    s2 = c2[window:] - c2[:k]
    var = np.maximum(s2 / window - mu * mu, 0.0)
    sigma = np.sqrt(var)
    flat = ~(sigma >= flatness_threshold)  # NaN (overflow) counts as flat

    # Segment j of window i covers [i + j·W/P, i + (j+1)·W/P).  With
    # j·W/P = q_j + r_j/P, the fractional prefix sum F(t) = c[⌊t⌋] +
    # (t − ⌊t⌋)·x[⌊t⌋] at the segment edges turns every segment sum into
    # one difference.  Rows are segments here (shape (P, k)), so each
    # step below is a contiguous vector operation.
    q, r = np.divmod(np.arange(paa_size + 1) * window, paa_size)
    edges = np.empty((paa_size + 1, k))
    for j in range(paa_size + 1):
        edges[j] = c[q[j] : q[j] + k]
        if r[j]:
            edges[j] += (r[j] / paa_size) * x[q[j] : q[j] + k]
    coeffs = (edges[1:] - edges[:-1]) * (paa_size / window)
    coeffs -= mu
    shapeless = flat | (sigma == 0.0)
    coeffs /= np.where(shapeless, 1.0, sigma)
    coeffs[:, shapeless] = 0.0

    stats = _WindowStats(
        window, centre, mu, var, sigma, s2, c[:k], c2[window:]
    )
    rows = _near_decision_rows(coeffs, stats, flatness_threshold)
    values = coeffs.T.copy()
    if rows.size:
        values[rows] = _two_pass_rows(
            series, window, paa_size, rows, flatness_threshold
        )
    return values


@dataclass(frozen=True)
class _WindowStats:
    """Per-window prefix-sum statistics the guard's error estimate uses.

    ``c_start`` is the centred prefix sum at each window's first sample
    and ``c2_end`` the prefix sum of squares at its end.
    """

    window: int
    centre: float
    mu: np.ndarray
    var: np.ndarray
    sigma: np.ndarray
    s2: np.ndarray
    c_start: np.ndarray
    c2_end: np.ndarray


def _near_decision_rows(
    coeffs: np.ndarray, stats: _WindowStats, flatness_threshold: float
) -> np.ndarray:
    """Windows whose letters the prefix-sum arithmetic cannot vouch for.

    *coeffs* is the (P, k) coefficient matrix.  A window is returned
    when its σ² is within twice its variance error ``e_var`` of the
    flatness threshold², or when one of its coefficients ``z`` lies
    within ``2·(e_num/σ + |z|·(e_var/(2σ²) + u(W + 3)))`` of a SAX
    breakpoint of any alphabet.  ``e_num`` bounds the error of a
    coefficient's numerator and ``e_var`` that of the variance, each
    summed over the prefix-sum and the two-pass arithmetic, to first
    order in the unit roundoff ``u``; the factor 2 covers the dropped
    second-order terms.  With ``M = √(Σ x_j²)`` over the window (≥ every
    ``|x_j|`` in it), ``C = |c_i| + W·M`` (≥ every prefix sum the window
    spans), ``R = |centre| + M`` (≥ every raw sample) and ``Q`` the
    prefix sum of squares at the window's end::

        e_num = 12u(C + M) + uW(R + 2M)
        e_var = 4u(Q + |μ|C) + u(W + 3)σ² + (uWR)²

    DESIGN.md §15 derives both.
    """
    u = _U
    window = stats.window
    m = np.sqrt(stats.s2)
    c_max = np.abs(stats.c_start) + window * m
    r_max = abs(stats.centre) + m
    e_var = (
        4 * u * (stats.c2_end + np.abs(stats.mu) * c_max)
        + u * (window + 3) * stats.var
        + (u * window * r_max) ** 2
    )
    near_flat = ~(np.abs(stats.var - flatness_threshold**2) > 2 * e_var)
    near_flat |= stats.sigma == 0.0

    e_num = 12 * u * (c_max + m) + u * window * (r_max + 2 * m)
    with np.errstate(divide="ignore", invalid="ignore"):
        offset_tol = 2 * e_num / stats.sigma
        slope_tol = 2 * (e_var / (2 * stats.var) + u * (window + 3))
    checked = ~(stats.sigma < flatness_threshold) & ~near_flat
    # Prefilter on the grid: a value in an unflagged cell is at least a
    # cell from every breakpoint.  Unit-variance windows have |z| ≤ √P
    # (Cauchy–Schwarz), so rows whose tolerance stays under half a cell
    # at that bound need only their flagged values checked exactly.
    wide = ~(offset_tol + slope_tol * np.sqrt(coeffs.shape[0]) < _GRID_STEP / 2)
    cells = ((coeffs + 2.0) * (1.0 / _GRID_STEP)).astype(np.intp)
    np.clip(cells, 0, _GRID_CELLS - 1, out=cells)
    suspect = _GRID_FLAGGED[cells]
    suspect |= wide
    suspect &= checked
    seg_idx, row_idx = np.nonzero(suspect)
    z = coeffs[seg_idx, row_idx]
    cuts = _ALL_BREAKPOINTS
    idx = np.searchsorted(cuts, z)
    gap = np.minimum(
        np.abs(z - cuts[np.maximum(idx - 1, 0)]),
        np.abs(cuts[np.minimum(idx, cuts.size - 1)] - z),
    )
    near_cut = np.zeros(coeffs.shape[1], dtype=bool)
    tol = offset_tol[row_idx] + slope_tol[row_idx] * np.abs(z)
    near_cut[row_idx[~(gap > tol)]] = True
    return np.flatnonzero(near_flat | near_cut)


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

    When a word packs into an int64
    (``alphabet_size ** paa_size < 2**62``), the work runs in the C core
    of :mod:`repro.sax.saxcore`; otherwise, or with ``REPRO_C_CORE=off``
    or no compiler, on NumPy.  Both give the same words (DESIGN.md §15).

    Raises
    ------
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
    if paa_size > window:
        raise ParameterError(
            f"PAA size {paa_size} exceeds window length {window}"
        )
    # Validate alphabet early (breakpoints() raises ParameterError).
    breakpoints_array(alphabet_size)
    if not isinstance(strategy, NumerosityReduction):
        raise ParameterError(
            f"unknown numerosity reduction strategy: {strategy!r}"
        )

    lib = None
    if alphabet_size**paa_size < 2**62:
        lib = saxcore.load()
    if lib is not None:
        kept, token_ids, uniq_rows = _core_words(
            lib, series, window, paa_size, alphabet_size, strategy,
            flatness_threshold,
        )
    else:
        kept, token_ids, uniq_rows = _numpy_words(
            series, window, paa_size, alphabet_size, strategy,
            flatness_threshold,
        )

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


def _numpy_words(
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    strategy: NumerosityReduction,
    flatness_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(kept, token_ids, distinct rows)`` on the NumPy path.

    :func:`windowed_paa`, the letters of every window,
    :func:`_kept_indices` and :func:`_unique_rows`.
    """
    paa_values = windowed_paa(
        series, window, paa_size, flatness_threshold=flatness_threshold
    )
    letter_idx = letter_indices(paa_values, alphabet_size)
    kept = _kept_indices(letter_idx, strategy)
    uniq_rows, token_ids = _unique_rows(letter_idx[kept], alphabet_size)
    return kept, token_ids, uniq_rows


def _core_words(
    lib,
    series: np.ndarray,
    window: int,
    paa_size: int,
    alphabet_size: int,
    strategy: NumerosityReduction,
    flatness_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`_numpy_words` in the C core (:mod:`repro.sax.saxcore`).

    The core computes every window's letters from the centred prefix
    sums with :func:`windowed_paa`'s arithmetic and flags the windows
    its near-decision guard cannot vouch for against this alphabet's
    breakpoints; those are recomputed here with :func:`_two_pass_rows`
    before the core reduces the letters to kept offsets and word keys.
    Requires ``alphabet_size ** paa_size < 2**62``.
    """
    letters, rows = saxcore.letters(
        lib, centred_prefix_sums(series), window, paa_size,
        breakpoints_array(alphabet_size), flatness_threshold,
    )
    if rows.size:
        letters[rows] = letter_indices(
            _two_pass_rows(series, window, paa_size, rows, flatness_threshold),
            alphabet_size,
        )
    kept, keys = saxcore.reduce(lib, letters, alphabet_size, strategy.value)
    uniq_keys, token_ids = np.unique(keys, return_inverse=True)
    place = alphabet_size ** np.arange(paa_size - 1, -1, -1, dtype=np.int64)
    uniq_rows = uniq_keys[:, None] // place % alphabet_size
    return kept, token_ids.astype(np.int64, copy=False).ravel(), uniq_rows


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
