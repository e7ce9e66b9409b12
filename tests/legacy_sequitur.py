"""Reference Sequitur: the original object-based implementation.

This is the pre-optimization induction engine, kept verbatim as the
ground truth for the interned fast path in
:mod:`repro.grammar.sequitur`.  The equivalence tests assert that the
fast engines (C core and pure-Python array engine) produce grammars
``==`` to this one on arbitrary inputs.

Do not optimize this module — its value is that it stays simple and
obviously faithful to Nevill-Manning & Witten's design: each rule owns
a circular, guard-closed doubly-linked symbol list, and a global digram
index maps symbol-pair keys to the left symbol of their unique
occurrence.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.grammar.grammar import (
    Grammar,
    GrammarRule,
    RuleOccurrence,
    START_RULE_ID,
    compute_levels,
)


class _Rule:
    """Internal Sequitur rule: a circular, guard-closed symbol list."""

    __slots__ = ("ctx", "serial", "refcount", "guard")

    def __init__(self, ctx: "_Sequitur") -> None:
        self.ctx = ctx
        self.serial = ctx.next_serial()
        self.refcount = 0
        self.guard = _Symbol(ctx, guard_of=self)
        self.guard.next = self.guard
        self.guard.prev = self.guard
        ctx.rules[self.serial] = self

    def first(self) -> "_Symbol":
        return self.guard.next

    def last(self) -> "_Symbol":
        return self.guard.prev

    def reuse(self) -> None:
        self.refcount += 1

    def deuse(self) -> None:
        self.refcount -= 1

    def symbols(self) -> Iterable["_Symbol"]:
        """Iterate the body symbols, guard excluded."""
        sym = self.first()
        while not sym.is_guard:
            yield sym
            sym = sym.next

    def drop(self) -> None:
        """Remove this rule from the registry (after inlining)."""
        del self.ctx.rules[self.serial]


class _Symbol:
    """A node in a rule body: terminal, non-terminal, or guard."""

    __slots__ = ("ctx", "token", "rule", "is_guard", "owner", "prev", "next")

    def __init__(
        self,
        ctx: "_Sequitur",
        *,
        token: Optional[str] = None,
        rule: Optional[_Rule] = None,
        guard_of: Optional[_Rule] = None,
    ) -> None:
        self.ctx = ctx
        self.token = token
        self.rule = rule
        self.is_guard = guard_of is not None
        self.owner = guard_of
        self.prev: Optional[_Symbol] = None
        self.next: Optional[_Symbol] = None
        if rule is not None:
            rule.reuse()

    # -- identity -----------------------------------------------------

    @property
    def is_nonterminal(self) -> bool:
        return self.rule is not None and not self.is_guard

    def key(self):
        """Hashable identity used in digram keys."""
        if self.is_nonterminal:
            return ("R", self.rule.serial)
        return ("t", self.token)

    def digram_key(self):
        """Key of the digram (self, self.next)."""
        return (self.key(), self.next.key())

    # -- linking ------------------------------------------------------

    @staticmethod
    def join(left: "_Symbol", right: "_Symbol") -> None:
        """Link *left* -> *right*, maintaining the digram index.

        If *left* previously had a right neighbour, the old digram is
        removed from the index.  The two inner conditionals re-index the
        first pair of an overlapping triple (e.g. in ``...aaa...`` only
        the second ``aa`` is indexed; when it disappears, the first one
        must be remembered again) — this is the classic fix from the
        reference implementation.
        """
        ctx = left.ctx
        if left.next is not None:
            left.delete_digram()
            if (
                right.prev is not None
                and right.next is not None
                and not right.is_guard
                and not right.prev.is_guard
                and not right.next.is_guard
                and right.key() == right.prev.key()
                and right.key() == right.next.key()
            ):
                ctx.index[right.digram_key()] = right
            if (
                left.prev is not None
                and left.next is not None
                and not left.is_guard
                and not left.prev.is_guard
                and not left.next.is_guard
                and left.key() == left.next.key()
                and left.key() == left.prev.key()
            ):
                ctx.index[left.prev.digram_key()] = left.prev
        left.next = right
        right.prev = left

    def insert_after(self, symbol: "_Symbol") -> None:
        """Insert *symbol* immediately after self."""
        _Symbol.join(symbol, self.next)
        _Symbol.join(self, symbol)

    def delete_digram(self) -> None:
        """Remove the digram (self, self.next) from the index if present."""
        if self.is_guard or self.next is None or self.next.is_guard:
            return
        key = self.digram_key()
        if self.ctx.index.get(key) is self:
            del self.ctx.index[key]

    def unlink(self) -> None:
        """Remove self from its list with full bookkeeping.

        Mirrors the reference destructor: unlink, drop the (self, next)
        digram from the index, and decrement a referenced rule's use
        count.
        """
        _Symbol.join(self.prev, self.next)
        if not self.is_guard:
            self.delete_digram()
            if self.is_nonterminal:
                self.rule.deuse()

    # -- the Sequitur invariants ---------------------------------------

    def check(self) -> bool:
        """Enforce digram uniqueness on the digram (self, self.next).

        Returns True when a match was found and processed (the grammar
        changed), False when the digram was merely indexed.
        """
        if self.is_guard or self.next is None or self.next.is_guard:
            return False
        key = self.digram_key()
        found = self.ctx.index.get(key)
        if found is None:
            self.ctx.index[key] = self
            return False
        if found.next is not self:  # overlapping digrams (aaa) are ignored
            self._process_match(found)
        return True

    def _process_match(self, match: "_Symbol") -> None:
        """Digram (self, self.next) == digram at *match*: factor it out."""
        ctx = self.ctx
        if match.prev.is_guard and match.next.next.is_guard:
            # The match is the complete body of an existing rule: reuse it.
            rule = match.prev.owner
            self._substitute(rule)
        else:
            rule = _Rule(ctx)
            rule.last().insert_after(self.copy())
            rule.last().insert_after(self.next.copy())
            match._substitute(rule)
            self._substitute(rule)
            ctx.index[rule.first().digram_key()] = rule.first()
        # Rule utility: inline a rule that is now used only once.
        first = rule.first()
        if first.is_nonterminal and first.rule.refcount == 1:
            first.expand()

    def copy(self) -> "_Symbol":
        """A fresh symbol with the same value (bumps rule refcount)."""
        if self.is_nonterminal:
            return _Symbol(self.ctx, rule=self.rule)
        return _Symbol(self.ctx, token=self.token)

    def _substitute(self, rule: _Rule) -> None:
        """Replace the digram (self, self.next) by a reference to *rule*."""
        prev = self.prev
        prev.next.unlink()
        prev.next.unlink()
        prev.insert_after(_Symbol(self.ctx, rule=rule))
        if not prev.check():
            prev.next.check()

    def expand(self) -> None:
        """Inline the once-used rule this non-terminal refers to."""
        rule = self.rule
        left = self.prev
        right = self.next
        first = rule.first()
        last = rule.last()
        self.delete_digram()
        _Symbol.join(left, first)
        _Symbol.join(last, right)
        self.ctx.index[last.digram_key()] = last
        rule.drop()


class _Sequitur:
    """Mutable induction state: rule registry and digram index."""

    def __init__(self) -> None:
        self.rules: dict[int, _Rule] = {}
        self.index: dict[tuple, _Symbol] = {}
        self._serial = 0
        self.start = _Rule(self)

    def next_serial(self) -> int:
        serial = self._serial
        self._serial += 1
        return serial

    def push_token(self, token: str) -> None:
        """Append one input token and restore the invariants."""
        self.start.last().insert_after(_Symbol(self, token=token))
        last = self.start.last()
        if last.prev is not None and not last.prev.is_guard:
            last.prev.check()


def induce_grammar_legacy(tokens: Sequence[str]) -> Grammar:
    """Reference induction: original engine, original freeze."""
    state = _Sequitur()
    token_list = [str(t) for t in tokens]
    for token in token_list:
        state.push_token(token)
    return _freeze(state, token_list)


def _freeze(state: _Sequitur, tokens: list[str]) -> Grammar:
    """Convert mutable induction state into the immutable data model."""
    from repro.grammar.sequitur import _fill_expansions, _fill_occurrences

    id_map: dict[int, int] = {state.start.serial: START_RULE_ID}
    order: list[_Rule] = [state.start]

    # Assign public ids in pre-order of first reference from R0.
    stack = [state.start]
    visited = {state.start.serial}
    while stack:
        rule = stack.pop(0)
        for sym in rule.symbols():
            if sym.is_nonterminal and sym.rule.serial not in visited:
                visited.add(sym.rule.serial)
                id_map[sym.rule.serial] = len(order)
                order.append(sym.rule)
                stack.append(sym.rule)

    rules: dict[int, GrammarRule] = {}
    for internal in order:
        public_id = id_map[internal.serial]
        rhs: list = []
        for sym in internal.symbols():
            if sym.is_nonterminal:
                rhs.append(id_map[sym.rule.serial])
            else:
                rhs.append(sym.token)
        rules[public_id] = GrammarRule(rule_id=public_id, rhs=rhs)

    _fill_expansions(rules)
    _fill_occurrences(rules, len(tokens))
    compute_levels(rules)
    grammar = Grammar(tokens=tokens, rules=rules, algorithm="sequitur")
    return grammar
