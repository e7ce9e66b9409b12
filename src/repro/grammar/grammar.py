"""The compressor-agnostic grammar data model.

A :class:`Grammar` is what either induction algorithm (Sequitur, Re-Pair)
returns: rule 0 is the start rule whose right-hand side derives the whole
input token sequence; every other rule encodes a repeated pattern.  Each
rule knows every position (token span) at which it occurs in the input —
the information the paper's rule density curve and RRA candidates are
built from.
"""

from __future__ import annotations

import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from repro.exceptions import GrammarError

#: Right-hand sides mix terminal tokens (str) and rule references (int).
RHSItem = Union[str, int]

START_RULE_ID = 0


@dataclass(frozen=True)
class RuleOccurrence:
    """One occurrence of a rule in the input token sequence.

    ``start`` and ``end`` are *inclusive* token indices: the occurrence
    expands to ``tokens[start : end + 1]``.
    """

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise GrammarError(f"malformed occurrence [{self.start}, {self.end}]")

    @property
    def token_length(self) -> int:
        """Number of input tokens this occurrence spans."""
        return self.end - self.start + 1


_NEW_OCC = RuleOccurrence.__new__
_SET = object.__setattr__


@dataclass
class GrammarRule:
    """One grammar rule.

    Attributes
    ----------
    rule_id:
        0 for the start rule; positive for induced rules (``R1``, ...).
    rhs:
        Right-hand side: a sequence of terminal tokens (str) and rule
        references (int rule ids).
    expansion:
        The rule fully expanded to terminal tokens.
    occurrences:
        Every occurrence of this rule in the input, as token spans.  For
        the start rule this is the single span covering the whole input.
    level:
        Depth of the rule in the hierarchy: 1 + max level of referenced
        rules; terminal-only rules have level 1, the start rule's level
        is informational.
    """

    rule_id: int
    rhs: list[RHSItem]
    expansion: list[str] = field(default_factory=list)
    occurrences: list[RuleOccurrence] = field(default_factory=list)
    level: int = 1

    @property
    def name(self) -> str:
        """Display name, ``R0`` / ``R1`` / ..."""
        return f"R{self.rule_id}"

    @property
    def usage(self) -> int:
        """How many times the rule occurs in the input (its frequency)."""
        return len(self.occurrences)

    @property
    def expansion_length(self) -> int:
        """Terminal length of one occurrence."""
        return len(self.expansion)

    def rhs_display(self) -> str:
        """Human-readable right-hand side, e.g. ``'R2 cba'``."""
        return " ".join(f"R{x}" if isinstance(x, int) else str(x) for x in self.rhs)

    def expansion_display(self) -> str:
        """Human-readable expansion, e.g. ``'abc abc cba'``."""
        return " ".join(self.expansion)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GrammarRule({self.name} -> {self.rhs_display()!r}, usage={self.usage})"


@dataclass(frozen=True)
class FrozenRules:
    """A Sequitur grammar as flat ``int64`` arrays (the freeze).

    Rules are numbered ``0 .. n - 1`` from R0.  Rule ``p``'s right-hand
    side is ``body[body_off[p] : body_off[p + 1]]``, where terminal id
    ``t`` is code ``2t`` and a reference to rule ``q`` is ``2q + 1``;
    its occurrences start at the token positions
    ``starts[starts_off[p] : starts_off[p + 1]]`` (ascending) and span
    ``lengths[p]`` tokens each; ``levels[p]`` is its hierarchy level.
    """

    body: np.ndarray
    body_off: np.ndarray
    levels: np.ndarray
    lengths: np.ndarray
    starts: np.ndarray
    starts_off: np.ndarray

    @classmethod
    def from_lists(cls, bodies, levels, lengths, starts) -> "FrozenRules":
        """Pack per-rule lists (bodies and starts as lists of lists)."""

        def flat(parts):
            off = np.zeros(len(parts) + 1, dtype=np.int64)
            np.cumsum([len(part) for part in parts], out=off[1:])
            values = [value for part in parts for value in part]
            return np.array(values, dtype=np.int64), off

        body, body_off = flat(bodies)
        starts, starts_off = flat(starts)
        return cls(
            body, body_off, np.array(levels, dtype=np.int64),
            np.array(lengths, dtype=np.int64), starts, starts_off,
        )


class _FrozenRuleMap(Mapping):
    """``Grammar.rules`` of a frozen grammar: rule id -> :class:`GrammarRule`.

    Each rule object is built from the freeze arrays on its first
    lookup and cached; ``len``, ``in`` and iteration over the ids build
    nothing.  It holds the grammar's arrays, not the grammar, so the two
    form no reference cycle.
    """

    __slots__ = ("_frozen", "_token_ids", "_vocabulary", "_tokens", "_built")

    def __init__(self, frozen: FrozenRules, token_ids, vocabulary, tokens) -> None:
        self._frozen = frozen
        self._token_ids = token_ids
        self._vocabulary = vocabulary
        self._tokens = tokens
        self._built: list = [None] * (frozen.body_off.size - 1)

    def _index(self, key) -> int:
        try:
            pid = operator.index(key)
        except TypeError:
            return -1
        return pid if 0 <= pid < len(self._built) else -1

    def __contains__(self, key) -> bool:
        return self._index(key) >= 0

    def __getitem__(self, key) -> GrammarRule:
        pid = self._index(key)
        if pid < 0:
            raise KeyError(key)
        rule = self._built[pid]
        if rule is None:
            rule = self._built[pid] = self._build(pid)
        return rule

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self._built)))

    def __len__(self) -> int:
        return len(self._built)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{len(self)} frozen rules>"

    def _build(self, pid: int) -> GrammarRule:
        """Rule *pid* as an object."""
        frozen, vocab = self._frozen, self._vocabulary
        body = frozen.body[frozen.body_off[pid] : frozen.body_off[pid + 1]]
        rule = GrammarRule(
            rule_id=pid,
            rhs=[c >> 1 if c & 1 else vocab[c >> 1] for c in body.tolist()],
            level=int(frozen.levels[pid]),
        )
        starts = frozen.starts[
            frozen.starts_off[pid] : frozen.starts_off[pid + 1]
        ].tolist()
        length = int(frozen.lengths[pid])
        if starts:
            s0 = starts[0]
            if self._tokens is not None:
                rule.expansion = self._tokens[s0 : s0 + length]
            else:
                ids = self._token_ids[s0 : s0 + length].tolist()
                rule.expansion = list(map(vocab.__getitem__, ids))
        occs = []
        last = length - 1
        ap = occs.append
        for s in starts:
            # RuleOccurrence.__new__ + setattr skips the dataclass
            # __init__ and its validation: the spans come from the freeze.
            occ = _NEW_OCC(RuleOccurrence)
            _SET(occ, "start", s)
            _SET(occ, "end", s + last)
            ap(occ)
        rule.occurrences = occs
        return rule


class Grammar:
    """A context-free grammar produced by an induction algorithm.

    Built from rule objects (``Grammar(tokens, rules, algorithm)``: Re-Pair,
    the legacy reference and hand-built grammars) or from Sequitur's
    freeze arrays (:meth:`from_frozen`).  A frozen grammar keeps the
    arrays in :attr:`frozen` and builds :attr:`tokens` and each
    :class:`GrammarRule` (with its ``rhs``, ``expansion`` and
    occurrences) only on first access; :meth:`occurrence_table`,
    :meth:`start_body`, ``len`` and :meth:`grammar_size` read the arrays.
    Two grammars are equal when their tokens, rules and algorithm are.
    """

    def __init__(
        self,
        tokens: list[str],
        rules: dict[int, GrammarRule],
        algorithm: str = "sequitur",
    ) -> None:
        if START_RULE_ID not in rules:
            raise GrammarError("grammar is missing the start rule R0")
        self._tokens = tokens
        self._rules = rules
        self.algorithm = algorithm
        #: The freeze arrays (:class:`FrozenRules`), or None for a
        #: grammar built from rule objects.
        self.frozen: Optional[FrozenRules] = None
        self._token_ids: Optional[np.ndarray] = None
        self._vocabulary: Optional[list[str]] = None

    @classmethod
    def from_frozen(
        cls,
        frozen: FrozenRules,
        token_ids: np.ndarray,
        vocabulary: list[str],
        *,
        tokens: Optional[list[str]] = None,
        algorithm: str = "sequitur",
    ) -> "Grammar":
        """A grammar over the freeze arrays; *token_ids* index *vocabulary*.

        *tokens*, when the caller already holds the decoded token list,
        is kept instead of being rebuilt on first access.
        """
        self = cls.__new__(cls)
        self._tokens = tokens
        self._rules = None
        self.algorithm = algorithm
        self.frozen = frozen
        self._token_ids = token_ids
        self._vocabulary = vocabulary
        return self

    @property
    def tokens(self) -> list[str]:
        """The input token sequence."""
        if self._tokens is None:
            self._tokens = list(
                map(self._vocabulary.__getitem__, self._token_ids.tolist())
            )
        return self._tokens

    @property
    def rules(self) -> Mapping[int, GrammarRule]:
        """Rule id -> :class:`GrammarRule` (a read-only lazy mapping on a
        frozen grammar)."""
        if self._rules is None:
            self._rules = _FrozenRuleMap(
                self.frozen, self._token_ids, self._vocabulary, self._tokens
            )
        return self._rules

    @property
    def token_count(self) -> int:
        """Number of input tokens."""
        if self._token_ids is not None:
            return len(self._token_ids)
        return len(self._tokens)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.algorithm == other.algorithm
            and self.tokens == other.tokens
            and dict(self.rules) == dict(other.rules)
        )

    __hash__ = None

    @property
    def start_rule(self) -> GrammarRule:
        return self.rules[START_RULE_ID]

    def non_start_rules(self) -> list[GrammarRule]:
        """All rules except R0, ordered by rule id."""
        return [self.rules[rid] for rid in sorted(self.rules) if rid != START_RULE_ID]

    def __len__(self) -> int:
        """Number of rules, start rule included."""
        if self.frozen is not None:
            return self.frozen.body_off.size - 1
        return len(self._rules)

    def __iter__(self) -> Iterator[GrammarRule]:
        return iter(self.rules[rid] for rid in sorted(self.rules))

    def occurrence_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(rule_ids, first, last)``: every occurrence of every rule.

        ``int64`` arrays, one row per occurrence: rows in rule-id order,
        each rule's occurrences in stored order; ``first`` and ``last``
        are inclusive token indices.  Read from :attr:`frozen` when the
        grammar has it, else from the rule objects.
        """
        frozen = self.frozen
        if frozen is not None:
            counts = np.diff(frozen.starts_off)
            rule_ids = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
            return rule_ids, frozen.starts, frozen.starts + (frozen.lengths[rule_ids] - 1)
        rules = list(self)
        counts = [len(rule.occurrences) for rule in rules]
        total = sum(counts)
        occs = [occ for rule in rules for occ in rule.occurrences]
        rule_ids = np.repeat(
            np.array([rule.rule_id for rule in rules], dtype=np.int64), counts
        )
        first = np.fromiter([occ.start for occ in occs], np.int64, total)
        last = np.fromiter([occ.end for occ in occs], np.int64, total)
        return rule_ids, first, last

    def start_body(self) -> tuple[np.ndarray, np.ndarray]:
        """``(terminal, span)`` over R0's right-hand side.

        Per item: whether it is a terminal token (``bool``), and how many
        input tokens it derives (``int64``: 1 for a terminal, the
        referenced rule's expansion length otherwise).
        """
        frozen = self.frozen
        if frozen is not None:
            codes = frozen.body[frozen.body_off[0] : frozen.body_off[1]]
            terminal = (codes & 1) == 0
            span = np.ones(codes.size, dtype=np.int64)
            span[~terminal] = frozen.lengths[codes[~terminal] >> 1]
            return terminal, span
        rhs = self.start_rule.rhs
        terminal = np.array([not isinstance(item, int) for item in rhs], dtype=bool)
        span = np.array(
            [
                self.rules[item].expansion_length if isinstance(item, int) else 1
                for item in rhs
            ],
            dtype=np.int64,
        )
        return terminal, span

    def expand_rule(self, rule_id: int) -> list[str]:
        """Expand a rule (by id) to its terminal token sequence."""
        if rule_id not in self.rules:
            raise GrammarError(f"no such rule: R{rule_id}")
        return list(self.rules[rule_id].expansion)

    def grammar_size(self) -> int:
        """Total number of symbols on all right-hand sides.

        This is the standard grammar-based-compression size measure; it is
        the quantity shown on the y-axis of the paper's Figure 10.
        """
        if self.frozen is not None:
            return int(self.frozen.body_off[-1])
        return sum(len(rule.rhs) for rule in self.rules.values())

    def compression_ratio(self) -> float:
        """Input token count divided by grammar size (>1 = compressed)."""
        size = self.grammar_size()
        if size == 0:
            return 0.0
        return self.token_count / size

    def verify(self) -> None:
        """Check structural invariants; raise :class:`GrammarError` if broken.

        * the start rule expands to the input token sequence;
        * every rule's recorded expansion matches recursive RHS expansion;
        * every occurrence span reproduces the rule's expansion;
        * every non-start rule is used at least once.
        """
        for rule in self.rules.values():
            recomputed = self._expand_rhs(rule.rhs, set())
            if recomputed != rule.expansion:
                raise GrammarError(
                    f"{rule.name}: stored expansion differs from RHS expansion"
                )
            for occ in rule.occurrences:
                if occ.end >= len(self.tokens):
                    raise GrammarError(
                        f"{rule.name}: occurrence {occ} exceeds input length"
                    )
                window = self.tokens[occ.start : occ.end + 1]
                if window != rule.expansion:
                    raise GrammarError(
                        f"{rule.name}: occurrence at {occ.start} does not match "
                        f"its expansion"
                    )
        if self.start_rule.expansion != self.tokens:
            raise GrammarError("start rule does not expand to the input")
        for rule in self.non_start_rules():
            if rule.usage < 1:
                raise GrammarError(f"{rule.name} is never used")

    def _expand_rhs(self, rhs: Sequence[RHSItem], seen: set[int]) -> list[str]:
        out: list[str] = []
        for item in rhs:
            if isinstance(item, int):
                if item in seen:
                    raise GrammarError(f"cycle through R{item}")
                sub = self.rules.get(item)
                if sub is None:
                    raise GrammarError(f"dangling rule reference R{item}")
                out.extend(self._expand_rhs(sub.rhs, seen | {item}))
            else:
                out.append(item)
        return out

    def rules_by_usage(self) -> list[GrammarRule]:
        """Non-start rules sorted by ascending usage (rarest first)."""
        return sorted(self.non_start_rules(), key=lambda r: (r.usage, r.rule_id))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Grammar(algorithm={self.algorithm!r}, rules={len(self.rules)}, "
            f"tokens={len(self.tokens)}, size={self.grammar_size()})"
        )


def compute_levels(rules: dict[int, GrammarRule]) -> None:
    """Fill in each rule's hierarchy level in place.

    Level = 1 for terminal-only rules, else 1 + max level of referenced
    rules.  The start rule gets a level too (1 + max over its references).
    """
    memo: dict[int, int] = {}

    def level_of(rule_id: int, stack: frozenset[int]) -> int:
        if rule_id in memo:
            return memo[rule_id]
        if rule_id in stack:
            raise GrammarError(f"cycle through R{rule_id}")
        rule = rules[rule_id]
        sub_levels = [
            level_of(item, stack | {rule_id})
            for item in rule.rhs
            if isinstance(item, int)
        ]
        memo[rule_id] = 1 + max(sub_levels, default=0)
        return memo[rule_id]

    for rid in rules:
        rules[rid].level = level_of(rid, frozenset())
