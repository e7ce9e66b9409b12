"""Incremental Sequitur: a live grammar that grows token by token.

Sequitur is inherently online — the offline :func:`induce_grammar` just
feeds tokens in a loop.  This wrapper keeps the mutable induction state
alive between pushes so a stream consumer can interleave tokens and
grammar queries.  Snapshots (full :class:`Grammar` objects with
expansions/occurrences) cost O(grammar + derivation) and are intended
for periodic, not per-token, use.

The live state is the interned array engine from
:mod:`repro.grammar.sequitur` (:class:`_FastSequitur`): tokens are
interned to dense int ids as they arrive, and the digram machinery runs
over packed integer keys.  Snapshots go through the same freeze path as
the offline engine, so a snapshot equals ``induce_grammar`` over the
same prefix — bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.grammar.grammar import Grammar
from repro.grammar.sequitur import _FastSequitur, _freeze_python


class IncrementalSequitur:
    """A Sequitur state that accepts tokens one at a time.

    Examples
    --------
    >>> inc = IncrementalSequitur()
    >>> for token in "ab ab cd ab".split():
    ...     inc.push(token)
    >>> grammar = inc.snapshot()
    >>> grammar.start_rule.expansion
    ['ab', 'ab', 'cd', 'ab']
    """

    def __init__(self) -> None:
        self._state = _FastSequitur()
        self._intern: dict[str, int] = {}
        self._vocab: list[str] = []
        self._tokens: list[str] = []
        self._ids: list[int] = []

    def push(self, token: str) -> None:
        """Append one token and restore the Sequitur invariants."""
        token = str(token)
        self._tokens.append(token)
        code = self._intern.get(token)
        if code is None:
            code = self._intern[token] = 2 * len(self._vocab)
            self._vocab.append(token)
        self._ids.append(code >> 1)
        self._state.push_code(code)

    def push_many(self, tokens) -> None:
        """Append a batch of tokens."""
        for token in tokens:
            self.push(token)

    @property
    def token_count(self) -> int:
        """Tokens consumed so far."""
        return len(self._tokens)

    @property
    def rule_count(self) -> int:
        """Live rules (start rule included) without snapshotting."""
        return sum(1 for g in self._state.guards if g != -1)

    def tokens(self) -> list[str]:
        """The tokens consumed so far (a copy)."""
        return list(self._tokens)

    def uncovered_token_runs(self) -> list[tuple[int, int]]:
        """Maximal terminal runs in the live start rule, as token spans.

        This is the streaming detector's primary signal — computed
        directly from the live array state (no snapshot needed): a
        terminal still sitting in R0 after the stream has moved on is a
        token the grammar could not compress.

        Returns inclusive ``(first_token_index, last_token_index)``
        pairs.  Cost: O(|R0 body| + total expansion of its rule refs),
        using cached expansion lengths where possible.
        """
        state = self._state
        code, nxt = state.code, state.nxt
        runs: list[tuple[int, int]] = []
        position = 0
        run_start: int | None = None
        length_cache: dict[int, int] = {}
        i = nxt[state.guards[0]]
        while code[i] >= 0:
            c = code[i]
            if c & 1:
                if run_start is not None:
                    runs.append((run_start, position - 1))
                    run_start = None
                position += self._expansion_length(c >> 1, length_cache)
            else:
                if run_start is None:
                    run_start = position
                position += 1
            i = nxt[i]
        if run_start is not None:
            runs.append((run_start, position - 1))
        return runs

    def _expansion_length(self, serial: int, cache: dict[int, int]) -> int:
        cached = cache.get(serial)
        if cached is not None:
            return cached
        state = self._state
        code, nxt = state.code, state.nxt
        total = 0
        i = nxt[state.guards[serial]]
        while code[i] >= 0:
            c = code[i]
            if c & 1:
                total += self._expansion_length(c >> 1, cache)
            else:
                total += 1
            i = nxt[i]
        cache[serial] = total
        return total

    def snapshot(self) -> Grammar:
        """Freeze the live state into an immutable :class:`Grammar`.

        The live state is not consumed — pushing may continue afterwards.
        """
        return Grammar.from_frozen(
            _freeze_python(self._state, len(self._tokens)),
            np.array(self._ids, dtype=np.int64),
            list(self._vocab),
            tokens=list(self._tokens),
        )
