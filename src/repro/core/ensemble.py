"""Ensemble grammar induction: parameter-free, robust anomaly detection.

The paper's biggest practical weakness is sensitivity to the
(window, PAA, alphabet) discretization choice: a single unlucky triple
can miss an anomaly that most neighbouring parameterizations find.
Following Gao, Lin & Brif (arXiv 2001.11102), this module runs a *grid*
of discretizations — the ensemble members — through the existing
pipeline, normalizes each member's rule-density curve into anomaly
evidence, aggregates the evidence into one calibrated score curve, and
merges the members' RRA discord candidates into ranked ensemble
discords with per-member provenance.

Determinism contract
--------------------
The aggregate score curve and the ranked ensemble discords are
**bit-identical** for any ``n_workers`` and any cold/warm result-cache
state:

* every member is evaluated by the unmodified single-parameterization
  pipeline (itself bit-identical across cache states);
* members are combined in *canonical grid order* (the order of the
  grid list), never in completion order;
* the ``mean`` aggregator sums each column in ascending value order,
  so even a hypothetical member permutation cannot shift a single ulp;
* cached member entries store the raw density curve (integers) and the
  exact discords, so a warm member contributes the same bits as a cold
  one.

Degraded-member contract
------------------------
A member that cannot contribute never takes the ensemble down:

* geometrically impossible members (window longer than the series, PAA
  larger than the window) are recorded as ``"invalid"`` and skipped;
* a member whose pipeline raises a :class:`~repro.exceptions.ReproError`
  is recorded as ``"error"`` with the exception text; any other
  exception is a bug, raised as :class:`~repro.exceptions.GridCellError`
  naming the member's triple;
* under a :class:`~repro.resilience.budget.SearchBudget`, a member
  whose discord search was truncated is ``"truncated"`` and members the
  budget never reached are ``"skipped"``.

The aggregate is computed over the contributing members only; any
``error``/``truncated``/``skipped`` member sets ``degraded=True`` on
the result, and the full per-member ledger is always attached.
Truncated members are never written to the result cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from repro.cache import ResultCache, ensemble_member_key
from repro.cache.results import discords_from_json, discords_to_json
from repro.core import AGGREGATIONS, NORMALIZATIONS
from repro.core.anomaly import Anomaly, Discord
from repro.core.pipeline import GrammarAnomalyDetector
from repro.exceptions import GridCellError, ParameterError, ReproError
from repro.observability.metrics import ensure_metrics
from repro.parallel.pool import effective_workers
from repro.resilience.budget import SearchBudget

__all__ = [
    "AGGREGATIONS",
    "NORMALIZATIONS",
    "VOTE_THRESHOLD",
    "EnsembleDetector",
    "EnsembleDiscord",
    "EnsembleMember",
    "EnsembleResult",
    "MemberOutcome",
    "aggregate_score_digest",
    "aggregate_scores",
    "default_grid",
    "ensemble_grid",
    "evaluate_member",
    "normalize_density",
    "run_members",
]

#: A member "votes" for a point when its normalized anomaly score
#: exceeds this threshold (the ``vote`` aggregator's cutoff).
VOTE_THRESHOLD = 0.5

#: Member statuses that contribute evidence to the aggregate.
_CONTRIBUTING = ("ok", "cached")

#: Member statuses that mark the ensemble result as degraded.
_DEGRADING = ("error", "truncated", "skipped")


@dataclass(frozen=True)
class EnsembleMember:
    """One discretization parameterization of the ensemble grid."""

    window: int
    paa_size: int
    alphabet_size: int

    def __post_init__(self) -> None:
        if self.window < 2 or self.paa_size < 1 or self.alphabet_size < 2:
            raise ParameterError(
                f"malformed ensemble member ({self.window}, "
                f"{self.paa_size}, {self.alphabet_size})"
            )

    @property
    def triple(self) -> tuple[int, int, int]:
        return (self.window, self.paa_size, self.alphabet_size)


def ensemble_grid(
    windows: Sequence[int],
    paa_sizes: Sequence[int],
    alphabet_sizes: Sequence[int],
) -> list[EnsembleMember]:
    """Cartesian member grid in canonical (window, paa, alphabet) order.

    Structurally impossible cells (``paa_size > window``) are dropped
    here; cells that are only invalid *for a particular series* (window
    not shorter than the series) are kept and classified at fit time.
    """
    members = [
        EnsembleMember(int(w), int(p), int(a))
        for w in windows
        for p in paa_sizes
        for a in alphabet_sizes
        if int(p) <= int(w)
    ]
    if not members:
        raise ParameterError("ensemble grid is empty (every cell has paa > window)")
    return members


def default_grid(series_length: int) -> list[EnsembleMember]:
    """Parameter-free default grid derived from the series length.

    Three windows on a geometric ladder between roughly 1/20 and 1/6 of
    the series (floored at 16 points), crossed with two PAA sizes and
    two alphabet sizes — 12 members whose induced grammars look at the
    series at genuinely different granularities.  Deterministic in the
    length alone.
    """
    if series_length < 32:
        raise ParameterError(
            f"series too short for an ensemble (need >= 32 points, "
            f"got {series_length})"
        )
    lo = max(16, series_length // 20)
    hi = max(lo + 1, series_length // 6)
    hi = min(hi, series_length - 1)
    mid = int(round((lo * hi) ** 0.5))
    windows = sorted({lo, mid, hi})
    return ensemble_grid(windows, (4, 6), (3, 5))


# -- normalization and aggregation ----------------------------------------


def normalize_density(density: np.ndarray, method: str) -> np.ndarray:
    """Turn one member's rule-density curve into anomaly evidence.

    Low density = poorly compressed = anomalous, so both normalizers
    *invert* the curve into a float score in ``[0, 1]`` where higher is
    more anomalous:

    ``minmax``
        ``(max - d) / (max - min)``; a constant curve carries no
        evidence and maps to all zeros.
    ``rank``
        The fraction of points with strictly greater density —
        depends only on the ordering of the curve, so it is invariant
        under any positive affine transform of the densities and
        robust to members whose absolute density scales differ wildly
        (short windows produce many more rule intervals than long
        ones).  Ties share a score; a constant curve maps to zeros.
    """
    if method not in NORMALIZATIONS:
        raise ParameterError(
            f"normalization must be one of {NORMALIZATIONS}, got {method!r}"
        )
    density = np.asarray(density, dtype=float)
    if density.size == 0:
        return np.zeros(0)
    if method == "minmax":
        lo = float(density.min())
        hi = float(density.max())
        if hi <= lo:
            return np.zeros(density.size)
        return (hi - density) / (hi - lo)
    ordered = np.sort(density)
    greater = density.size - np.searchsorted(ordered, density, side="right")
    return greater / max(1, density.size - 1)


def aggregate_scores(stack: np.ndarray, method: str) -> np.ndarray:
    """Combine an ``(n_members, n_points)`` score stack into one curve.

    ``mean``
        Per-point arithmetic mean; each column is summed in ascending
        value order so the result is bit-invariant under member
        permutation (float addition is not associative; a canonical
        summation order removes the only source of non-determinism).
    ``median``
        Per-point median — robust to a minority of wild members.
    ``vote``
        Fraction of members whose score exceeds
        :data:`VOTE_THRESHOLD`; exact (small-integer / member-count)
        arithmetic, hence trivially permutation-invariant.
    """
    if method not in AGGREGATIONS:
        raise ParameterError(
            f"aggregation must be one of {AGGREGATIONS}, got {method!r}"
        )
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 2 or stack.shape[0] == 0:
        raise ParameterError(
            f"need a non-empty 2-d score stack, got shape {stack.shape}"
        )
    if method == "mean":
        return np.sort(stack, axis=0).sum(axis=0) / stack.shape[0]
    if method == "median":
        return np.median(stack, axis=0)
    return (stack > VOTE_THRESHOLD).sum(axis=0) / stack.shape[0]


def aggregate_score_digest(scores: np.ndarray) -> str:
    """SHA-256 of the aggregate curve's little-endian float64 bytes.

    The golden ensemble suite pins this digest, so any single-ulp drift
    in any member, normalizer, or aggregator fails the regression test.
    """
    data = np.ascontiguousarray(np.asarray(scores, dtype="<f8"))
    return hashlib.sha256(data.tobytes()).hexdigest()


def _medoid_interval(votes: Sequence[tuple]) -> tuple[int, int]:
    """The vote interval the other votes corroborate most.

    Similarity is the repo-wide overlap measure — shared length over
    the *shorter* interval (the same criterion ``merge_overlap`` and
    the hit tests use) — summed against every other vote.  Votes are
    ``(member_index, W, P, A, rank, start, end, nn_distance)`` tuples
    in canonical member order; ties resolve to the earliest vote, and
    the similarity sums run in that fixed order, so the choice is
    bit-deterministic.  With one vote, that vote's interval is the
    answer.
    """
    if len(votes) == 1:
        return int(votes[0][5]), int(votes[0][6])
    best = (-1.0, 0, 0)
    for vote in votes:
        s_i, e_i = vote[5], vote[6]
        total = 0.0
        for other in votes:
            if other is vote:
                continue
            s_j, e_j = other[5], other[6]
            inter = max(0, min(e_i, e_j) - max(s_i, s_j))
            shorter = min(e_i - s_i, e_j - s_j)
            if shorter > 0:
                total += inter / shorter
        if total > best[0]:
            best = (total, int(s_i), int(e_i))
    return best[1], best[2]


# -- member evaluation ----------------------------------------------------


@dataclass
class MemberOutcome:
    """What one ensemble member produced (or why it could not).

    ``status`` is one of ``"ok"`` (evaluated live), ``"cached"``
    (answered from the result cache — same bits as a live run),
    ``"invalid"`` (geometrically impossible for this series),
    ``"error"`` (the pipeline raised; see ``error``), ``"truncated"``
    (the budget tripped mid-search) or ``"skipped"`` (the budget
    tripped before this member started).
    """

    member: EnsembleMember
    status: str
    density: Optional[np.ndarray] = field(default=None, repr=False)
    discords: list[Discord] = field(default_factory=list)
    grammar_size: int = 0
    distance_calls: int = 0
    error: Optional[str] = None
    from_cache: bool = False

    @property
    def contributing(self) -> bool:
        return self.status in _CONTRIBUTING

    def ledger_entry(self) -> dict:
        entry = {
            "window": self.member.window,
            "paa_size": self.member.paa_size,
            "alphabet_size": self.member.alphabet_size,
            "status": self.status,
            "distance_calls": int(self.distance_calls),
            "from_cache": bool(self.from_cache),
        }
        if self.error is not None:
            entry["error"] = self.error
        return entry


def evaluate_member(
    series: np.ndarray,
    member: EnsembleMember,
    *,
    num_discords: int,
    seed: int = 0,
    metrics=None,
    budget: Optional[SearchBudget] = None,
) -> MemberOutcome:
    """Run one member through the single-parameterization pipeline.

    Shared verbatim by the serial member loop and the pool workers, so
    a member's arithmetic cannot depend on where it executes.  Geometry
    problems come back ``"invalid"`` and a
    :class:`~repro.exceptions.ReproError` comes back ``"error"``; any
    other exception is re-raised as a
    :class:`~repro.exceptions.GridCellError` that names the triple.
    """
    series = np.asarray(series, dtype=float)
    if member.window >= series.size or member.paa_size > member.window:
        return MemberOutcome(member, "invalid")
    try:
        detector = GrammarAnomalyDetector(
            member.window,
            member.paa_size,
            member.alphabet_size,
            seed=seed,
            metrics=metrics,
        )
        fitted = detector.fit(series)
        rra = detector.discords(num_discords=num_discords, budget=budget)
    except ReproError as exc:
        return MemberOutcome(
            member, "error", error=f"{type(exc).__name__}: {exc}"
        )
    except Exception as exc:
        raise GridCellError.from_exception(member.triple, exc) from exc
    if not rra.complete:
        return MemberOutcome(
            member,
            "truncated",
            distance_calls=int(rra.distance_calls),
        )
    return MemberOutcome(
        member,
        "ok",
        density=fitted.density,
        discords=list(rra.discords),
        grammar_size=int(fitted.grammar.grammar_size()),
        distance_calls=int(rra.distance_calls),
    )


def _member_payload(outcome: MemberOutcome) -> dict:
    """JSON-able cache entry for a completed (``"ok"``) member."""
    return {
        "window": outcome.member.window,
        "paa_size": outcome.member.paa_size,
        "alphabet_size": outcome.member.alphabet_size,
        "density": [int(v) for v in outcome.density],
        "discords": discords_to_json(outcome.discords),
        "grammar_size": int(outcome.grammar_size),
        "distance_calls": int(outcome.distance_calls),
    }


def _member_from_payload(member: EnsembleMember, payload: dict) -> MemberOutcome:
    """Rebuild a member outcome from its cache entry, bit-exactly.

    Densities are integers and discord scores survive a JSON round trip
    losslessly (Python serializes floats via ``repr``), so a cached
    member contributes the same bits as the live run that stored it.
    """
    return MemberOutcome(
        member,
        "cached",
        density=np.asarray(payload["density"], dtype=np.int64),
        discords=discords_from_json(payload["discords"]),
        grammar_size=int(payload["grammar_size"]),
        distance_calls=int(payload["distance_calls"]),
        from_cache=True,
    )


def run_members(
    series: np.ndarray,
    members: Sequence[EnsembleMember],
    *,
    num_discords: int,
    seed: int = 0,
    n_workers: int = 1,
    cache: Optional[ResultCache] = None,
    budget: Optional[SearchBudget] = None,
    metrics=None,
) -> list[MemberOutcome]:
    """Evaluate *members* over *series*: one outcome each, in member order.

    The parent side of every member run, shared by
    :meth:`EnsembleDetector.fit` and
    :meth:`~repro.core.parameter_grid.ParameterGridStudy.sweep`.
    Members impossible for this series come back ``"invalid"``; *cache*
    hits are resolved before any dispatch; the rest run serially or one
    pool task each
    (:func:`~repro.parallel.engine.parallel_ensemble_members`), and
    every ``"ok"`` outcome is stored in *cache*.
    """
    series = np.asarray(series, dtype=float)
    metrics = ensure_metrics(metrics)
    n_workers = effective_workers(n_workers)
    outcomes: dict[int, MemberOutcome] = {}
    pending: list[tuple[int, EnsembleMember]] = []
    keys: dict[int, str] = {}
    for idx, member in enumerate(members):
        if member.window >= series.size or member.paa_size > member.window:
            outcomes[idx] = MemberOutcome(member, "invalid")
            continue
        if cache is not None:
            keys[idx] = ensemble_member_key(
                series,
                window=member.window,
                paa_size=member.paa_size,
                alphabet_size=member.alphabet_size,
                params={"num_discords": int(num_discords), "seed": int(seed)},
            )
            payload = cache.get(keys[idx])
            if payload is not None:
                outcomes[idx] = _member_from_payload(member, payload)
                continue
        pending.append((idx, member))
    if pending:
        with metrics.span(
            "ensemble.members", pending=len(pending), n_workers=n_workers
        ):
            if n_workers > 1 and len(pending) > 1:
                from repro.parallel.engine import parallel_ensemble_members

                evaluated = parallel_ensemble_members(
                    series,
                    pending,
                    num_discords=num_discords,
                    seed=seed,
                    budget=budget,
                    n_workers=n_workers,
                )
            else:
                evaluated = _run_serial(
                    series, pending, num_discords, seed, budget, metrics
                )
        for idx, outcome in evaluated.items():
            outcomes[idx] = outcome
            if outcome.status == "ok" and idx in keys:
                cache.put(keys[idx], _member_payload(outcome))
    return [outcomes[idx] for idx in range(len(members))]


def _run_serial(
    series: np.ndarray,
    pending: list[tuple[int, EnsembleMember]],
    num_discords: int,
    seed: int,
    budget: Optional[SearchBudget],
    metrics,
) -> dict[int, MemberOutcome]:
    outcomes: dict[int, MemberOutcome] = {}
    total_calls = 0
    for idx, member in pending:
        if budget is not None and budget.interrupted(total_calls) is not None:
            outcomes[idx] = MemberOutcome(member, "skipped")
            continue
        with metrics.span(
            "ensemble.member",
            window=member.window,
            paa_size=member.paa_size,
            alphabet_size=member.alphabet_size,
        ):
            outcome = evaluate_member(
                series,
                member,
                num_discords=num_discords,
                seed=seed,
                metrics=metrics,
                budget=budget,
            )
        total_calls += outcome.distance_calls
        outcomes[idx] = outcome
    return outcomes


# -- results --------------------------------------------------------------


@dataclass(frozen=True)
class EnsembleDiscord(Anomaly):
    """A merged ensemble discord with per-member provenance.

    ``support`` counts the distinct members whose RRA search proposed
    an overlapping interval; ``votes`` carries one
    ``(member_index, window, paa_size, alphabet_size, rank, start, end,
    nn_distance)`` tuple per proposing member (in canonical member
    order).  ``score`` is the mean aggregate anomaly score over the
    representative interval, so the two evidence streams — density
    consensus and discord votes — meet in the ranking.
    """

    support: int = 1
    votes: tuple = ()
    source: str = "ensemble"


@dataclass
class EnsembleResult:
    """Everything one :meth:`EnsembleDetector.fit` computed.

    Attributes
    ----------
    scores:
        The calibrated aggregate anomaly-score curve (series length,
        float, higher = more anomalous).
    members:
        One :class:`MemberOutcome` per grid member, canonical order.
    discords:
        Ranked merged ensemble discords, strongest first.
    degraded:
        True when any member was lost to an error or a budget (the
        aggregate covers the surviving members only).
    normalization, aggregation:
        The knobs the curve was built with.
    """

    scores: np.ndarray = field(repr=False)
    members: list[MemberOutcome] = field(default_factory=list)
    discords: list[EnsembleDiscord] = field(default_factory=list)
    degraded: bool = False
    normalization: str = "minmax"
    aggregation: str = "mean"

    @property
    def best(self) -> Optional[EnsembleDiscord]:
        return self.discords[0] if self.discords else None

    @property
    def contributing(self) -> int:
        """How many members actually fed the aggregate."""
        return sum(1 for m in self.members if m.contributing)

    def member_counts(self) -> dict[str, int]:
        """Ledger summary: members per status."""
        counts: dict[str, int] = {}
        for outcome in self.members:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        return counts

    def ledger(self) -> list[dict]:
        """The per-member ledger (canonical order, JSON-able)."""
        return [outcome.ledger_entry() for outcome in self.members]

    def score_digest(self) -> str:
        """SHA-256 of the aggregate curve (golden-suite anchor)."""
        return aggregate_score_digest(self.scores)


# -- the detector ---------------------------------------------------------


class EnsembleDetector:
    """Parameter-free anomaly detection over a discretization ensemble.

    Parameters
    ----------
    grid:
        The ensemble members: an iterable of ``(window, paa_size,
        alphabet_size)`` triples or :class:`EnsembleMember` objects.
        ``None`` (the default) derives :func:`default_grid` from the
        series length at fit time — the parameter-free mode.
    normalization:
        Per-member density normalizer, ``"minmax"`` or ``"rank"``
        (see :func:`normalize_density`).
    aggregation:
        Cross-member combiner, ``"mean"``, ``"median"`` or ``"vote"``
        (see :func:`aggregate_scores`).
    num_discords:
        Discords requested from each member's RRA search (the merge
        pool; the merged ranking can be longer or shorter).
    merge_overlap:
        Two member discords merge when they share at least this
        fraction of the shorter interval (0.5 by default, the Table-1
        overlap convention).
    seed:
        Forwarded to every member's pipeline.
    n_workers:
        Worker processes for the *member* fan-out (each member's inner
        search stays serial).  Any value yields a bit-identical
        aggregate: members are merged in canonical grid order.
    metrics:
        Optional :class:`~repro.observability.MetricsRegistry`; member
        spans, ensemble counters, and the aggregation event land here.
    cache:
        Optional persistent :class:`~repro.cache.ResultCache` (or a
        directory path).  Completed members are stored individually, so
        a warm ensemble run — or one whose grid merely overlaps an
        earlier run's — answers those members from disk, bit-identically.
        Truncated members are never stored.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core.ensemble import EnsembleDetector
    >>> t = np.arange(3000)
    >>> series = np.sin(2 * np.pi * t / 150)
    >>> series[1500:1590] = -series[1500:1590]
    >>> result = EnsembleDetector().fit(series)
    >>> 1400 <= result.best.start <= 1590
    True
    """

    def __init__(
        self,
        grid: Optional[Iterable] = None,
        *,
        normalization: str = "minmax",
        aggregation: str = "mean",
        num_discords: int = 3,
        merge_overlap: float = 0.5,
        seed: int = 0,
        n_workers: int = 1,
        metrics=None,
        cache=None,
    ) -> None:
        if normalization not in NORMALIZATIONS:
            raise ParameterError(
                f"normalization must be one of {NORMALIZATIONS}, "
                f"got {normalization!r}"
            )
        if aggregation not in AGGREGATIONS:
            raise ParameterError(
                f"aggregation must be one of {AGGREGATIONS}, "
                f"got {aggregation!r}"
            )
        if num_discords < 1:
            raise ParameterError(
                f"num_discords must be >= 1, got {num_discords}"
            )
        if not 0.0 < merge_overlap <= 1.0:
            raise ParameterError(
                f"merge_overlap must be in (0, 1], got {merge_overlap}"
            )
        self.grid = None if grid is None else self._normalize_grid(grid)
        self.normalization = normalization
        self.aggregation = aggregation
        self.num_discords = num_discords
        self.merge_overlap = merge_overlap
        self.seed = seed
        self.n_workers = effective_workers(n_workers)
        self.metrics = ensure_metrics(metrics)
        if cache is not None and not isinstance(cache, ResultCache):
            cache = ResultCache(cache)
        self.cache = cache
        if self.metrics.enabled and self.cache is not None:
            self.cache.bind_metrics(self.metrics)
        self._result: Optional[EnsembleResult] = None

    @staticmethod
    def _normalize_grid(grid: Iterable) -> list[EnsembleMember]:
        members = [
            m if isinstance(m, EnsembleMember) else EnsembleMember(*map(int, m))
            for m in grid
        ]
        if not members:
            raise ParameterError("ensemble grid must contain at least one member")
        return members

    @property
    def result(self) -> EnsembleResult:
        if self._result is None:
            raise ParameterError("call fit(series) before querying the ensemble")
        return self._result

    # -- fitting --------------------------------------------------------

    def fit(
        self,
        series: np.ndarray,
        *,
        budget: Optional[SearchBudget] = None,
    ) -> EnsembleResult:
        """Evaluate every member and aggregate their evidence.

        With a *budget*, truncation is member-grained: the budget is
        checked before each member (and threaded into each member's
        discord search), members it cuts off are recorded as
        ``"truncated"``/``"skipped"``, and the partial ensemble comes
        back ``degraded=True`` over the members that finished.
        """
        metrics = self.metrics
        series = np.asarray(series, dtype=float)
        members = self.grid if self.grid is not None else default_grid(series.size)
        ordered = run_members(
            series,
            members,
            num_discords=self.num_discords,
            seed=self.seed,
            n_workers=self.n_workers,
            cache=self.cache,
            budget=budget,
            metrics=metrics,
        )
        if all(outcome.status == "invalid" for outcome in ordered):
            raise ParameterError(
                f"no valid ensemble member for a series of "
                f"{series.size} points (grid windows: "
                f"{sorted({m.window for m in members})})"
            )
        result = self._aggregate(series, ordered)
        if metrics.enabled:
            counts = result.member_counts()
            metrics.counter("ensemble.members").inc(len(ordered))
            metrics.counter("ensemble.members_contributing").inc(
                result.contributing
            )
            metrics.counter("ensemble.members_cached").inc(
                counts.get("cached", 0)
            )
            metrics.counter("ensemble.members_dropped").inc(
                sum(counts.get(status, 0) for status in _DEGRADING)
            )
            if result.scores.size:
                metrics.gauge("ensemble.score_max").set(
                    float(result.scores.max())
                )
            metrics.event(
                "ensemble.aggregated",
                normalization=self.normalization,
                aggregation=self.aggregation,
                members=len(ordered),
                contributing=result.contributing,
                discords=len(result.discords),
                degraded=result.degraded,
            )
        self._result = result
        return result

    # -- aggregation ----------------------------------------------------

    def _aggregate(
        self, series: np.ndarray, ordered: list[MemberOutcome]
    ) -> EnsembleResult:
        contributing = [
            (idx, outcome)
            for idx, outcome in enumerate(ordered)
            if outcome.contributing
        ]
        if contributing:
            stack = np.stack(
                [
                    normalize_density(outcome.density, self.normalization)
                    for _, outcome in contributing
                ]
            )
            scores = aggregate_scores(stack, self.aggregation)
        else:
            scores = np.zeros(series.size)
        discords = self._merge_discords(contributing, scores)
        degraded = any(o.status in _DEGRADING for o in ordered)
        return EnsembleResult(
            scores=scores,
            members=ordered,
            discords=discords,
            degraded=degraded,
            normalization=self.normalization,
            aggregation=self.aggregation,
        )

    def _merge_discords(
        self,
        contributing: list[tuple[int, MemberOutcome]],
        scores: np.ndarray,
    ) -> list[EnsembleDiscord]:
        """Group overlapping member discords into ranked ensemble discords.

        Candidates are visited in canonical member order (then member
        rank order); a candidate joins the first existing group whose
        anchor interval shares >= ``merge_overlap`` of the shorter
        interval, else opens a new group anchored at the first-seen
        interval.  Each group is *reported* at its consensus interval
        (median vote start/end), and groups are ranked by member
        support, then mean aggregate score over the consensus interval,
        then position — all deterministic quantities.
        """
        groups: list[dict] = []
        for member_index, outcome in contributing:
            member = outcome.member
            for d in outcome.discords:
                vote = (
                    member_index,
                    member.window,
                    member.paa_size,
                    member.alphabet_size,
                    int(d.rank),
                    int(d.start),
                    int(d.end),
                    float(d.nn_distance),
                )
                placed = False
                for group in groups:
                    shorter = min(
                        group["end"] - group["start"], d.end - d.start
                    )
                    shared = max(
                        0, min(group["end"], d.end) - max(group["start"], d.start)
                    )
                    if shorter > 0 and shared / shorter >= self.merge_overlap:
                        group["votes"].append(vote)
                        group["members"].add(member_index)
                        placed = True
                        break
                if not placed:
                    groups.append(
                        {
                            "start": int(d.start),
                            "end": int(d.end),
                            "votes": [vote],
                            "members": {member_index},
                        }
                    )
        ranked = []
        for group in groups:
            # The reported interval is the group's MEDOID vote — the
            # member discord the other votes corroborate most — not the
            # first-seen interval the grouping anchored on, so one
            # member with an off-centre or wildly long discord can join
            # a group without dragging the reported bounds.
            start, end = _medoid_interval(group["votes"])
            window_scores = scores[start:end]
            score = float(window_scores.mean()) if window_scores.size else 0.0
            ranked.append((-len(group["members"]), -score, start, end, group))
        ranked.sort(key=lambda item: item[:4])
        return [
            EnsembleDiscord(
                start=start,
                end=end,
                score=-neg_score,
                rank=rank,
                support=-neg_support,
                votes=tuple(group["votes"]),
            )
            for rank, (neg_support, neg_score, start, end, group) in enumerate(ranked)
        ]
