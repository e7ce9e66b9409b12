"""Reference implementations the tests check the engines against.

Most of this module is per-pair reference searches, the oracles for the
discord engines.  The engines in ``src/`` evaluate their inner loops in
vectorized blocks and replay the per-pair early-abandon decisions on the
block results.  The searches here are the plain loops those engines
replay: one pair at a time, one logical distance call per visited pair,
the abandoned pair included.  Tests run both on the same input and
compare discords, ranks and call counts.

Every search oracle takes its pair distance as a parameter.  The default
is one of the scalar reference distances defined here (:func:`euclidean`
for fixed-length windows, :func:`variable_length_distance` for Eq. 1),
which agree with the kernels in :mod:`repro.timeseries.kernels` to
about 1e-12; passing the kernels' own pair arithmetic makes the
comparison bit-exact and checks the loop order alone.
:func:`sliding_alignment_sq_profile` is the per-offset profile whose
clamped minimum :func:`repro.timeseries.kernels.aligned_min_distance`
computes.

:func:`rule_intervals_oracle` is the per-occurrence projection of grammar
rules onto the series that the array projection
:func:`repro.grammar.intervals.rule_intervals` must reproduce, and
:func:`uncovered_intervals_oracle` the walk over R0's right-hand side
that :func:`repro.grammar.intervals.uncovered_intervals` vectorises.

:func:`approximation_distance_oracle` is the per-window loop that
:func:`repro.core.parameter_grid.approximation_distance` vectorises, and
:func:`grid_point_oracle` scores one parameter-grid cell with its own
detector, which ``ParameterGridStudy.sweep`` replaces with an ensemble
member scored after the fact.

:func:`reduce_oracle` is numerosity reduction over the word strings,
which :func:`repro.sax.discretize._kept_indices` and the discretize
core's ``sax_reduce`` run on integer letter rows.

:func:`outer_order_oracle`, :func:`search_fingerprint_oracle` and
:func:`bin_series_oracle` are the per-object and per-bin loops that RRA's
outer order, :func:`repro.resilience.checkpoint.search_fingerprint` and
the report's sparkline binning replace with reads of a table's columns.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import defaultdict
from typing import Callable, Optional, Sequence

import numpy as np

from repro.core.anomaly import Discord
from repro.core.parameter_grid import GridPoint, _hit
from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rule_density import find_density_anomalies
from repro.discord.inner_order import TailOrder, inner_key
from repro.exceptions import ParameterError, ReproError
from repro.grammar.grammar import START_RULE_ID
from repro.grammar.intervals import RuleInterval
from repro.resilience.checkpoint import series_digest
from repro.sax.discretize import NumerosityReduction
from repro.sax.sax import mindist
from repro.timeseries import kernels
from repro.timeseries.paa import paa
from repro.timeseries.windows import sliding_windows
from repro.timeseries.znorm import znorm


def euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Plain Euclidean distance between two equal-length vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ParameterError(
            f"euclidean requires equal shapes, got {a.shape} vs {b.shape}"
        )
    return float(np.sqrt(np.sum((a - b) ** 2)))


def normalized_euclidean(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance divided by the square root of the length.

    This is the paper's Eq. (1):
    ``Dist(p, q) = sqrt( sum (p_i - q_i)^2 / Length(p) )``.
    Both inputs must have the same length.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        raise ParameterError("normalized_euclidean requires non-empty input")
    return euclidean(a, b) / float(np.sqrt(a.size))


def variable_length_distance(
    p: np.ndarray,
    q: np.ndarray,
    *,
    normalize_inputs: bool = True,
) -> float:
    """Eq. 1 between possibly unequal subsequences, offset by offset.

    The shorter subsequence slides along the longer one, each alignment
    is scored with :func:`normalized_euclidean`, and the minimum is
    returned (DESIGN.md §5).  With *normalize_inputs* both subsequences
    are z-normalized first (the paper always compares z-normalized
    shapes).
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.size == 0 or q.size == 0:
        raise ParameterError("variable_length_distance requires non-empty inputs")
    if normalize_inputs:
        p = znorm(p)
        q = znorm(q)
    if p.size == q.size:
        return normalized_euclidean(p, q)
    short, long_ = (p, q) if p.size < q.size else (q, p)
    n = short.size
    best = float("inf")
    for offset in range(long_.size - n + 1):
        dist = normalized_euclidean(short, long_[offset : offset + n])
        if dist < best:
            best = dist
    return best


def sliding_alignment_sq_profile(short: np.ndarray, long_: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of *short* against every alignment of *long_*.

    Entry ``o`` is ``‖short − long_[o : o + n]‖²``, clamped at zero,
    with the cross terms from :func:`numpy.correlate` and the window
    energies from :func:`repro.timeseries.kernels.sq_cumsum`: the
    arithmetic of :func:`repro.timeseries.kernels.aligned_min_distance`
    before its minimum.
    """
    short = np.asarray(short, dtype=float)
    long_ = np.asarray(long_, dtype=float)
    n = short.size
    long_sq_cumsum = kernels.sq_cumsum(long_)
    window_energy = long_sq_cumsum[n:] - long_sq_cumsum[:-n]
    cross = np.correlate(long_, short, mode="valid")
    sq = float(np.dot(short, short)) + window_energy - 2.0 * cross
    return np.clip(sq, 0.0, None)


#: Fixed-length pair distance over window positions ``(p, q)``.
PositionDistance = Callable[[int, int], float]


def scalar_position_distance(normalized: np.ndarray) -> PositionDistance:
    """Plain Euclidean distance between two rows of *normalized*."""
    return lambda p, q: euclidean(normalized[p], normalized[q])


def kernel_position_distance(windows: kernels.WindowMatrix) -> PositionDistance:
    """The fixed-length engines' arithmetic, one distance row per query.

    Each row is the one matrix-vector product the brute-force engine
    computes for that candidate, so its entries are the exact floats
    every fixed-length engine sees for the pair.
    """
    normalized, sqnorms = windows.normalized, windows.sqnorms
    rows: dict[int, np.ndarray] = {}

    def distance(p: int, q: int) -> float:
        row = rows.get(p)
        if row is None:
            row = np.sqrt(
                kernels.one_vs_all_sq_euclidean(
                    normalized[p], normalized,
                    query_sqnorm=sqnorms[p], sqnorms=sqnorms,
                )
            )
            rows[p] = row
        return float(row[q])

    return distance


def _fixed_discord(pos: int, dist: float, window: int, rank: int, source: str):
    return Discord(
        start=pos, end=pos + window, score=dist, rank=rank,
        nn_distance=dist, rule_id=None, source=source,
    )


def _fixed_rank_loop(search, window: int, num_discords: int, source: str):
    """Top-k by repeated search with window-sized exclusion."""
    discords: list[Discord] = []
    calls = 0
    exclude: list[tuple[int, int]] = []
    for rank in range(num_discords):
        best_dist, best_pos, rank_calls = search(exclude)
        calls += rank_calls
        if best_pos is None:
            break
        discords.append(_fixed_discord(best_pos, best_dist, window, rank, source))
        exclude.append((best_pos - window + 1, best_pos + window))
    return discords, calls


def brute_force_oracle(
    series: np.ndarray,
    window: int,
    *,
    num_discords: int = 1,
    early_abandon: bool = True,
    distance: Optional[PositionDistance] = None,
) -> tuple[list[Discord], int]:
    """Exhaustive per-pair search; returns ``(discords, calls)``."""
    windows = kernels.WindowMatrix(np.asarray(series, dtype=float), window)
    if distance is None:
        distance = scalar_position_distance(windows.normalized)
    k = windows.normalized.shape[0]

    def search(exclude):
        best_dist, best_pos, calls = -1.0, None, 0
        for p in range(k):
            if any(lo <= p < hi for lo, hi in exclude):
                continue
            nearest = math.inf
            abandoned = False
            for q in range(k):
                if abs(p - q) <= window:
                    continue
                calls += 1
                dist = distance(p, q)
                if early_abandon and dist < best_dist:
                    abandoned = True
                    break
                nearest = min(nearest, dist)
            if not abandoned and math.isfinite(nearest) and nearest > best_dist:
                best_dist, best_pos = nearest, p
        return best_dist, best_pos, calls

    return _fixed_rank_loop(search, window, num_discords, "brute_force")


def bucket_ordered_oracle(
    series: np.ndarray,
    window: int,
    words: Sequence[str],
    *,
    num_discords: int = 1,
    seed: int,
    source: str,
    distance: Optional[PositionDistance] = None,
) -> tuple[list[Discord], int]:
    """HOTSAX-style per-pair search over bucket keys *words*.

    Outer loop: windows in ascending bucket size, then position.  Inner
    loop: same-bucket windows first, then every other window in the
    drained :class:`~repro.discord.inner_order.TailOrder` of the outer
    position's key, always abandoning on a distance below the best so
    far.  Returns ``(discords, calls)``.
    """
    windows = kernels.WindowMatrix(np.asarray(series, dtype=float), window)
    if distance is None:
        distance = scalar_position_distance(windows.normalized)
    k = windows.normalized.shape[0]
    buckets: dict[str, list[int]] = defaultdict(list)
    for pos, word in enumerate(words):
        buckets[word].append(pos)
    outer = sorted(range(k), key=lambda p: (len(buckets[words[p]]), p))

    def search(exclude):
        best_dist, best_pos, calls = -1.0, None, 0
        rank = len(exclude)
        clear = [p for p in outer if not any(lo <= p < hi for lo, hi in exclude)]
        for position, p in enumerate(clear):
            same = [q for q in buckets[words[p]] if q != p]
            key = inner_key(seed, rank, position)
            order = same + list(TailOrder(k, buckets[words[p]], key))
            nearest = math.inf
            abandoned = False
            for q in order:
                if abs(p - q) <= window:
                    continue
                calls += 1
                dist = distance(p, q)
                if dist < best_dist:
                    abandoned = True
                    break
                nearest = min(nearest, dist)
            if not abandoned and math.isfinite(nearest) and nearest > best_dist:
                best_dist, best_pos = nearest, p
        return best_dist, best_pos, calls

    return _fixed_rank_loop(search, window, num_discords, source)


#: Variable-length pair distance over candidate intervals.
IntervalDistance = Callable[[RuleInterval, RuleInterval], float]


def is_non_self_match(p: RuleInterval, q: RuleInterval) -> bool:
    """Paper line 7: |p0 - q0| > Length(p), i.e. no trivial self match."""
    return abs(p.start - q.start) > p.length


def scalar_interval_distance(series: np.ndarray) -> IntervalDistance:
    """Eq. 1 through the per-offset scalar reference."""
    stats = kernels.SeriesStats(np.asarray(series, dtype=float))
    return lambda p, q: variable_length_distance(
        stats.znorm(p.start, p.end),
        stats.znorm(q.start, q.end),
        normalize_inputs=False,
    )


def rra_oracle(
    series: np.ndarray,
    intervals: Sequence[RuleInterval],
    *,
    num_discords: int = 1,
    seed: int,
    distance: Optional[IntervalDistance] = None,
) -> tuple[list[Discord], int]:
    """Per-pair RRA (paper Algorithm 1) with iterative extraction.

    Outer loop: candidates by ascending rule usage, then position.
    Inner loop: a rule candidate visits its own rule's occurrences
    first, then every other-rule candidate and gap in the drained
    :class:`~repro.discord.inner_order.TailOrder` of the outer
    position's key; a gap visits every candidate in that order.
    Returns ``(discords, calls)``.
    """
    series = np.asarray(series, dtype=float)
    if distance is None:
        distance = scalar_interval_distance(series)
    valid = [iv for iv in intervals if iv.end <= series.size and iv.length >= 2]
    discords: list[Discord] = []
    calls = 0
    exclude: list[tuple[int, int]] = []
    for rank in range(num_discords):
        candidates = [
            iv for iv in valid
            if not any(iv.start < hi and lo < iv.end for lo, hi in exclude)
        ]
        outer = sorted(candidates, key=lambda iv: (iv.usage, iv.start, iv.end))
        best_dist, best = 0.0, None
        for position, p in enumerate(outer):
            group = [
                j for j, iv in enumerate(candidates)
                if p.rule_id >= 0 and iv.rule_id == p.rule_id
            ]
            tail = TailOrder(len(candidates), group, inner_key(seed, rank, position))
            order = [candidates[j] for j in group + list(tail)]
            nearest = math.inf
            abandoned = False
            for q in order:
                if not is_non_self_match(p, q):
                    continue
                calls += 1
                dist = distance(p, q)
                if dist < best_dist:
                    abandoned = True
                    break
                nearest = min(nearest, dist)
            if not abandoned and nearest < math.inf and nearest > best_dist:
                best_dist, best = nearest, p
        if best is None:
            break
        discords.append(
            Discord(
                start=best.start, end=best.end, score=best_dist, rank=rank,
                nn_distance=best_dist, rule_id=best.rule_id, source="rra",
            )
        )
        exclude.append((best.start, best.end))
    return discords, calls


def nearest_neighbor_oracle(
    series: np.ndarray,
    intervals: Sequence[RuleInterval],
    *,
    distance: Optional[IntervalDistance] = None,
) -> tuple[list[tuple[RuleInterval, float]], int]:
    """Nearest non-self-match distance of every candidate, pair by pair."""
    series = np.asarray(series, dtype=float)
    if distance is None:
        distance = scalar_interval_distance(series)
    candidates = [
        iv for iv in intervals if iv.end <= series.size and iv.length >= 2
    ]
    profile = []
    calls = 0
    for p in candidates:
        nearest = math.inf
        for q in candidates:
            if not is_non_self_match(p, q):
                continue
            calls += 1
            nearest = min(nearest, distance(p, q))
        profile.append((p, nearest))
    return profile, calls


def reduce_oracle(
    raw_words: list[str],
    strategy: NumerosityReduction,
    alphabet_size: int,
    window: int,
) -> list[int]:
    """Indices of the words that survive numerosity reduction.

    EXACT keeps a word that differs from the last kept one, MINDIST one
    whose SAX MINDIST to the last kept one is positive, NONE every word.
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
    raise ValueError(f"unknown numerosity reduction strategy: {strategy!r}")


def rule_intervals_oracle(
    grammar, discretization, *, include_start_rule: bool = False
) -> list[RuleInterval]:
    """One :class:`RuleInterval` per rule occurrence, then a key sort.

    Occurrence ``[i, j]`` maps to ``[offset_i, min(offset_j + W, n))``;
    each object validates itself, so a malformed interval raises
    ``ValueError`` for the first bad occurrence in rule-id order.
    """
    offs = discretization.offsets.tolist()
    window = discretization.window
    series_length = discretization.series_length
    intervals = []
    for rule in grammar:
        if rule.rule_id == START_RULE_ID and not include_start_rule:
            continue
        for occ in rule.occurrences:
            end = min(offs[occ.end] + window, series_length)
            intervals.append(
                RuleInterval(rule.rule_id, offs[occ.start], end, usage=rule.usage)
            )
    intervals.sort(key=lambda iv: (iv.start, iv.end, iv.rule_id))
    return intervals


def uncovered_intervals_oracle(grammar, discretization) -> list[RuleInterval]:
    """One gap per maximal run of terminals in R0's right-hand side.

    Walks R0's items, advancing the token position by 1 per terminal
    and by the rule's expansion length per reference, and maps each run
    through :meth:`~repro.sax.discretize.Discretization.span_to_interval`.
    """
    gaps: list[RuleInterval] = []
    token_pos = 0
    run_start: Optional[int] = None
    for item in grammar.start_rule.rhs:
        if isinstance(item, int):
            if run_start is not None:
                start, end = discretization.span_to_interval(run_start, token_pos - 1)
                gaps.append(RuleInterval(-1, start, end, usage=0))
                run_start = None
            token_pos += grammar.rules[item].expansion_length
        else:
            if run_start is None:
                run_start = token_pos
            token_pos += 1
    if run_start is not None:
        start, end = discretization.span_to_interval(run_start, token_pos - 1)
        gaps.append(RuleInterval(-1, start, end, usage=0))
    return gaps


def approximation_distance_oracle(
    series: np.ndarray, window: int, paa_size: int, *, sample_stride: int = 1
) -> float:
    """Mean PAA reconstruction error, one window at a time, summed in order."""
    windows = sliding_windows(series, window)[::sample_stride]
    stretch = np.minimum((np.arange(window) * paa_size) // window, paa_size - 1)
    total = 0.0
    for row in windows:
        normalized = znorm(row)
        reconstructed = paa(normalized, paa_size)[stretch]
        total += float(np.sqrt(np.sum((normalized - reconstructed) ** 2)))
    return total / windows.shape[0]


def grid_point_oracle(
    series: np.ndarray,
    true_anomaly: tuple[int, int],
    window: int,
    paa_size: int,
    alphabet_size: int,
    *,
    min_overlap: float = 0.5,
) -> Optional[GridPoint]:
    """One grid cell from its own detector; None for a skipped cell.

    Fits ``GrammarAnomalyDetector(window, paa_size, alphabet_size)``,
    asks it for the top density anomaly (with and without edge
    exclusion) and the top RRA discord, and scores each against the
    truth.
    """
    if paa_size > window or window >= series.size:
        return None
    detector = GrammarAnomalyDetector(window, paa_size, alphabet_size)
    try:
        fitted = detector.fit(series)
        rra = detector.discords(num_discords=1)
    except ReproError:
        return None

    def hit(found) -> bool:
        return _hit([(a.start, a.end) for a in found], *true_anomaly, min_overlap)

    return GridPoint(
        window=window,
        paa_size=paa_size,
        alphabet_size=alphabet_size,
        approximation_distance=approximation_distance_oracle(
            series, window, paa_size, sample_stride=max(1, window // 4)
        ),
        grammar_size=fitted.grammar.grammar_size(),
        density_hit=hit(
            find_density_anomalies(fitted.density, max_anomalies=1, edge_exclusion=0)
        ),
        rra_hit=hit(rra.discords),
        density_hit_enhanced=hit(detector.density_anomalies(max_anomalies=1)),
    )


def outer_order_oracle(candidates: Sequence[RuleInterval]) -> list[int]:
    """RRA's outer order as positions into *candidates*: the stable sort
    on ``(usage, start, end)``, ties in list order."""
    return sorted(
        range(len(candidates)),
        key=[(iv.usage, iv.start, iv.end) for iv in candidates].__getitem__,
    )


def search_fingerprint_oracle(
    series: np.ndarray, intervals: Sequence[RuleInterval], params: dict
) -> str:
    """The search fingerprint with one ``update`` per interval object."""
    digest = hashlib.sha256()
    digest.update(series_digest(series).encode())
    for iv in intervals:
        digest.update(f"{iv.rule_id},{iv.start},{iv.end},{iv.usage};".encode())
    digest.update(json.dumps(params, sort_keys=True).encode())
    return digest.hexdigest()


def bin_series_oracle(values: np.ndarray, width: int) -> np.ndarray:
    """*width* bin means, one ``slice.mean()`` per bin; an empty bin takes
    the value at its left edge."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return np.zeros(width)
    edges = np.linspace(0, values.size, width + 1).astype(int)
    return np.array(
        [
            values[lo:hi].mean() if hi > lo else values[min(lo, values.size - 1)]
            for lo, hi in zip(edges[:-1], edges[1:])
        ]
    )
