"""Sequitur: linear-time incremental grammar induction.

Implements Nevill-Manning & Witten's Sequitur algorithm (the paper's
grammar-induction procedure, Section 3.3) over arbitrary hashable string
tokens — in our pipeline, numerosity-reduced SAX words.

Sequitur maintains two invariants at all times:

* **digram uniqueness** — no pair of adjacent symbols occurs more than
  once in the grammar; a repeated digram is replaced by a non-terminal;
* **rule utility** — every rule is used at least twice; a rule whose use
  count drops to one is inlined and deleted.

This module runs the induction over *interned integer tokens*: input
tokens are mapped to dense ids once, and the invariant machinery works
on parallel ``code``/``prv``/``nxt`` arrays with a digram index keyed by
packed integer pairs instead of tuple-of-tuple string keys.  Two
bit-identical engines implement that design:

* a C core (:mod:`repro.grammar.ccore`), compiled on first use from
  ``_sequitur_core.c`` when a system compiler is available;
* :class:`_FastSequitur`, the pure-Python array engine, used as the
  fallback when the C core cannot be built or is disabled via
  ``REPRO_C_CORE=off``.

Both produce grammars equal to the original object-based implementation
preserved in ``tests/legacy_sequitur.py``; the equivalence tests and the
golden grammar fingerprints enforce this.

Symbol encoding shared by both engines: terminal token id ``t`` is code
``2t`` (even), a reference to rule serial ``s`` is ``2s + 1`` (odd), and
the guard node of rule serial ``s`` carries ``-s - 1`` (negative).  A
digram ``(a, b)`` is indexed under the packed key
``code(a) << 42 | code(b)``.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Sequence

import numpy as np

from repro.exceptions import GrammarError
from repro.grammar import ccore
from repro.grammar.grammar import (
    FrozenRules,
    Grammar,
    GrammarRule,
    RuleOccurrence,
    START_RULE_ID,
)

_KSHIFT = 42


class _FastSequitur:
    """Array-based Sequitur over interned integer token codes.

    Nodes live in three parallel lists (``code``/``prv``/``nxt``); ``-1``
    means "none".  ``guards[serial]`` is the guard node of the rule with
    that serial (``-1`` once the rule has been inlined), and
    ``refcount[serial]`` its use count.  The layout and the order of
    every index/refcount update mirror the reference implementation in
    ``tests/legacy_sequitur.py`` exactly, so both engines build the same
    rules in the same serial order.
    """

    __slots__ = ("code", "prv", "nxt", "guards", "refcount", "index")

    def __init__(self) -> None:
        self.code = [-1]  # node 0 = guard of the start rule (serial 0)
        self.prv = [0]
        self.nxt = [0]
        self.guards = [0]  # serial -> guard node id (-1 = dropped)
        self.refcount = [0]  # serial -> use count
        self.index: dict[int, int] = {}

    def _join(self, left: int, right: int) -> None:
        """Link *left* -> *right* with full digram-index bookkeeping."""
        code, prv, nxt, index = self.code, self.prv, self.nxt, self.index
        if nxt[left] != -1:
            lc = code[left]
            ln = nxt[left]
            if lc >= 0 and code[ln] >= 0:
                key = lc << _KSHIFT | code[ln]
                if index.get(key) == left:
                    del index[key]
            # Re-index the first pair of an overlapping triple (the
            # classic ``aaa`` fix from the reference implementation).
            rc = code[right]
            if rc >= 0:
                rp, rn = prv[right], nxt[right]
                if rp != -1 and rn != -1 and code[rp] == rc and code[rn] == rc:
                    index[rc << _KSHIFT | rc] = right
            if lc >= 0:
                lp = prv[left]
                if lp != -1 and ln != -1 and code[ln] == lc and code[lp] == lc:
                    index[lc << _KSHIFT | lc] = lp
        nxt[left] = right
        prv[right] = left

    def _check(self, i: int) -> bool:
        """Enforce digram uniqueness on the digram starting at node *i*."""
        code, nxt = self.code, self.nxt
        ci = code[i]
        if ci < 0:
            return False
        n = nxt[i]
        if n == -1 or code[n] < 0:
            return False
        key = ci << _KSHIFT | code[n]
        found = self.index.setdefault(key, i)
        if found == i:
            return False
        if nxt[found] != i:  # overlapping digrams (aaa) are ignored
            self._process_match(i, found)
        return True

    def _process_match(self, i: int, match: int) -> None:
        """Digram at *i* equals digram at *match*: factor it out."""
        code, prv, nxt = self.code, self.prv, self.nxt
        refcount, guards = self.refcount, self.guards
        if code[prv[match]] < 0 and code[nxt[nxt[match]]] < 0:
            # The match is the complete body of an existing rule: reuse it.
            serial = -code[prv[match]] - 1
            self._substitute(i, serial)
        else:
            serial = len(guards)
            guard = len(code)
            code.append(-serial - 1)
            prv.append(guard)
            nxt.append(guard)
            guards.append(guard)
            refcount.append(0)
            ca = code[i]
            cb = code[nxt[i]]
            a = guard + 1
            code.append(ca)
            prv.append(guard)
            nxt.append(guard)
            if ca & 1:
                refcount[ca >> 1] += 1
            b = a + 1
            code.append(cb)
            prv.append(a)
            nxt.append(guard)
            if cb & 1:
                refcount[cb >> 1] += 1
            nxt[guard] = a
            nxt[a] = b
            prv[guard] = b
            self._substitute(match, serial)
            self._substitute(i, serial)
            self.index[ca << _KSHIFT | cb] = a
        # Rule utility: inline a rule that is now used only once.
        first = nxt[guards[serial]]
        fc = code[first]
        if fc & 1 and fc >= 0 and refcount[fc >> 1] == 1:
            self._expand(first)

    def _substitute(self, i: int, serial: int) -> None:
        """Replace the digram starting at node *i* by a rule reference."""
        code, prv, nxt, index = self.code, self.prv, self.nxt, self.index
        p = prv[i]
        # Unlink the two digram symbols — (nxt[p], nxt[nxt[p]]) — with
        # the same bookkeeping order as the reference ``unlink``.
        for _ in (0, 1):
            d = nxt[p]
            dn = nxt[d]
            pc = code[p]
            if pc >= 0 and code[d] >= 0:
                key = pc << _KSHIFT | code[d]
                if index.get(key) == p:
                    del index[key]
            dc = code[dn]
            if dc >= 0:
                dp, dnn = prv[dn], nxt[dn]
                if dp != -1 and dnn != -1 and code[dp] == dc and code[dnn] == dc:
                    index[dc << _KSHIFT | dc] = dn
            if pc >= 0:
                pp = prv[p]
                if pp != -1 and code[d] == pc and code[pp] == pc:
                    index[pc << _KSHIFT | pc] = prv[p]
            nxt[p] = dn
            prv[dn] = p
            dc2 = code[d]
            if dc2 >= 0:
                if dn != -1 and code[dn] >= 0:
                    key = dc2 << _KSHIFT | code[dn]
                    if index.get(key) == d:
                        del index[key]
                if dc2 & 1:
                    self.refcount[dc2 >> 1] -= 1
        node = len(code)
        code.append(2 * serial + 1)
        prv.append(-1)
        nxt.append(-1)
        self.refcount[serial] += 1
        self._join(node, nxt[p])
        self._join(p, node)
        if not self._check(p):
            self._check(nxt[p])

    def _expand(self, i: int) -> None:
        """Inline the once-used rule referenced by node *i*."""
        code, prv, nxt, index = self.code, self.prv, self.nxt, self.index
        serial = code[i] >> 1
        guard = self.guards[serial]
        left, right = prv[i], nxt[i]
        first, last = nxt[guard], prv[guard]
        ci = code[i]
        if right != -1 and code[right] >= 0:
            key = ci << _KSHIFT | code[right]
            if index.get(key) == i:
                del index[key]
        self._join(left, first)
        self._join(last, right)
        ln = nxt[last]
        if code[ln] >= 0:
            index[code[last] << _KSHIFT | code[ln]] = last
        self.guards[serial] = -1
        self.refcount[serial] = 0

    def push_code(self, c: int) -> None:
        """Append one pre-doubled terminal code and restore invariants."""
        self.push_many((c,))

    def push_many(self, codes) -> None:
        """Consume pre-doubled terminal codes (``2 * token_id`` each)."""
        code, prv, nxt = self.code, self.prv, self.nxt
        setdefault = self.index.setdefault
        process = self._process_match
        guard = self.guards[0]
        for c in codes:
            node = len(code)
            last = prv[guard]
            code.append(c)
            prv.append(last)
            nxt.append(guard)
            nxt[last] = node
            prv[guard] = node
            lc = code[last]
            if lc < 0:
                continue
            key = lc << _KSHIFT | c
            found = setdefault(key, last)
            if found != last and nxt[found] != last:
                process(last, found)


# ---------------------------------------------------------------------
# Freeze: array state -> FrozenRules
# ---------------------------------------------------------------------


def _freeze_python(fs: _FastSequitur, n_tokens: int) -> FrozenRules:
    """The freeze arrays of the pure-Python engine's state.

    The same :class:`FrozenRules` the C core's freeze produces: rules
    renumbered BFS-first from R0, each body a list of codes where
    terminal id ``t`` is ``2t`` and public rule id ``p`` is ``2p + 1``,
    and each rule's sorted occurrence start positions.
    """
    code, nxt, guards = fs.code, fs.nxt, fs.guards

    # BFS id assignment in order of first reference from R0 (matches the
    # legacy freeze's queue order).
    id_map = {0: START_RULE_ID}
    queue = [0]
    qi = 0
    bodies: list[list[int]] = []
    while qi < len(queue):
        serial = queue[qi]
        qi += 1
        guard = guards[serial]
        body: list[int] = []
        i = nxt[guard]
        while code[i] >= 0:
            c = code[i]
            if c & 1:
                s = c >> 1
                pid = id_map.get(s)
                if pid is None:
                    pid = id_map[s] = len(id_map)
                    queue.append(s)
                body.append(2 * pid + 1)
            else:
                body.append(c)
            i = nxt[i]
        bodies.append(body)

    n_rules = len(queue)

    # Hierarchy levels: iterative post-order DP (same values as
    # ``compute_levels`` on the finished grammar).
    levels = [0] * n_rules
    for root in range(n_rules):
        if levels[root]:
            continue
        stack = [root]
        while stack:
            top = stack[-1]
            if levels[top]:
                stack.pop()
                continue
            best = 0
            ready = True
            for c in bodies[top]:
                if c & 1:
                    lv = levels[c >> 1]
                    if not lv:
                        stack.append(c >> 1)
                        ready = False
                    elif lv > best:
                        best = lv
            if ready:
                levels[top] = best + 1
                stack.pop()

    order = sorted(range(n_rules), key=levels.__getitem__)

    # Expansion lengths + child refs, children before parents.
    lengths = [0] * n_rules
    rhs_refs: list = [None] * n_rules
    for pid in order:
        total = 0
        refs = []
        for c in bodies[pid]:
            if c & 1:
                refs.append((total, c >> 1))
                total += lengths[c >> 1]
            else:
                total += 1
        lengths[pid] = total
        rhs_refs[pid] = refs

    # Occurrence starts: parents (higher level) propagate to children.
    starts: list[list[int]] = [[] for _ in range(n_rules)]
    if n_tokens:
        starts[START_RULE_ID].append(0)
    for pid in reversed(order):
        mine = starts[pid]
        mine.sort()
        for offset, child in rhs_refs[pid]:
            cs = starts[child]
            if offset:
                for s in mine:
                    cs.append(s + offset)
            else:
                cs += mine

    return FrozenRules.from_lists(bodies, levels, lengths, starts)


def _freeze_c(lib, codes: np.ndarray, n_tokens: int) -> FrozenRules:
    """Run push + freeze prep inside the C core; copy out the arrays."""
    h = lib.seq_new()
    if not h or lib.seq_oom(h):
        if h:
            lib.seq_free(h)
        raise MemoryError("seq_new failed")
    try:
        rc = lib.seq_push(h, codes.ctypes.data_as(ctypes.c_void_p), codes.size)
        if rc != 0:
            raise MemoryError("seq_push failed")
        fz = lib.seq_freeze_prep(h, n_tokens)
        if not fz:
            raise MemoryError("seq_freeze_prep failed")
        try:
            if lib.seq_frozen_oom(fz):
                raise MemoryError("seq_freeze_prep out of memory")
            n_rules = lib.seq_frozen_n_rules(fz)
            nb = lib.seq_frozen_body_total(fz)
            ns = lib.seq_frozen_starts_total(fz)

            def copy(pointer, size):
                # The core allocates at least one element per array.
                return np.ctypeslib.as_array(pointer, shape=(max(size, 1),))[:size].copy()

            return FrozenRules(
                body=copy(lib.seq_frozen_body_flat(fz), nb),
                body_off=copy(lib.seq_frozen_body_off(fz), n_rules + 1),
                levels=copy(lib.seq_frozen_levels(fz), n_rules),
                lengths=copy(lib.seq_frozen_lengths(fz), n_rules),
                starts=copy(lib.seq_frozen_starts_flat(fz), ns),
                starts_off=copy(lib.seq_frozen_starts_off(fz), n_rules + 1),
            )
        finally:
            lib.seq_frozen_free(fz)
    finally:
        lib.seq_free(h)


def _induce_interned(
    ids: np.ndarray, vocab: list, tokens: Optional[list]
) -> Grammar:
    """Dispatch interned induction to the C core or the Python engine."""
    codes = ids * 2
    frozen = None
    lib = ccore.load()
    if lib is not None:
        try:
            frozen = _freeze_c(lib, codes, ids.size)
        except MemoryError:
            pass  # allocation failure inside the core: retry in Python
    if frozen is None:
        fs = _FastSequitur()
        fs.push_many(codes.tolist())
        frozen = _freeze_python(fs, ids.size)
    return Grammar.from_frozen(frozen, ids, vocab, tokens=tokens)


def intern_tokens(tokens: Sequence[str]) -> tuple[np.ndarray, list[str]]:
    """Map tokens to dense int ids: ``(ids, vocabulary)``.

    ``vocabulary[ids[k]] == tokens[k]`` for every position.  The
    vocabulary order (lexicographic, from :func:`numpy.unique`) is
    irrelevant to induction: grammars depend only on the equality
    structure of the sequence, not on which id a token received.
    """
    if not len(tokens):
        return np.empty(0, dtype=np.int64), []
    arr = np.asarray(tokens)
    uniq, inverse = np.unique(arr, return_inverse=True)
    return inverse.astype(np.int64, copy=False).ravel(), uniq.tolist()


def induce_grammar(tokens: Sequence[str]) -> Grammar:
    """Run Sequitur over *tokens* and return the resulting grammar.

    Parameters
    ----------
    tokens:
        The input sequence; each element is treated as an atomic terminal
        (e.g. a SAX word).  Non-string elements are coerced with ``str``.

    Returns
    -------
    Grammar
        Rules renumbered in order of first appearance in a pre-order walk
        from R0, with expansions, occurrence spans, and hierarchy levels
        filled in.
    """
    token_list = [str(t) for t in tokens]
    ids, vocab = intern_tokens(token_list)
    return _induce_interned(ids, vocab, token_list)


def induce_grammar_interned(
    token_ids: Sequence[int] | np.ndarray,
    vocabulary: Sequence[str],
    tokens: Optional[list[str]] = None,
) -> Grammar:
    """Induce from pre-interned tokens, skipping the interning pass.

    The SAX front end (:func:`repro.sax.discretize.discretize`) already
    produces dense ``token_ids`` plus a ``vocabulary``; feeding them here
    avoids re-hashing every word string.

    Parameters
    ----------
    token_ids:
        Dense int ids, each indexing *vocabulary*.
    vocabulary:
        Distinct token strings; ``vocabulary[token_ids[k]]`` is the
        *k*-th input token.
    tokens:
        Optional pre-built token-string list (must equal the decoded
        sequence); supplied by callers that already hold it.  Without
        it the grammar decodes ``grammar.tokens`` on first access.
    """
    ids = np.ascontiguousarray(token_ids, dtype=np.int64)
    return _induce_interned(ids, list(vocabulary), tokens)


# ---------------------------------------------------------------------
# Shared helpers for derived engines (repair, legacy reference)
# ---------------------------------------------------------------------


def _fill_expansions(rules: dict[int, GrammarRule]) -> None:
    """Compute every rule's terminal expansion (memoized, iterative)."""
    memo: dict[int, list[str]] = {}

    def expand(rule_id: int, stack: frozenset[int]) -> list[str]:
        if rule_id in memo:
            return memo[rule_id]
        if rule_id in stack:
            raise GrammarError(f"cycle through R{rule_id}")
        out: list[str] = []
        for item in rules[rule_id].rhs:
            if isinstance(item, int):
                out.extend(expand(item, stack | {rule_id}))
            else:
                out.append(item)
        memo[rule_id] = out
        return out

    for rid in rules:
        rules[rid].expansion = list(expand(rid, frozenset()))


def _fill_occurrences(rules: dict[int, GrammarRule], token_count: int) -> None:
    """Enumerate every rule occurrence by walking the derivation tree.

    An explicit stack keeps this safe for deep grammars.  Every
    non-terminal encountered during the expansion of R0 corresponds to
    exactly one concrete occurrence of its rule in the input.
    """
    if token_count > 0:
        rules[START_RULE_ID].occurrences.append(
            RuleOccurrence(0, token_count - 1)
        )
    # Each stack entry: (rule_id, rhs position, absolute token position).
    stack: list[list] = [[START_RULE_ID, 0, 0]]
    while stack:
        frame = stack[-1]
        rule_id, rhs_pos, token_pos = frame
        rhs = rules[rule_id].rhs
        if rhs_pos >= len(rhs):
            stack.pop()
            if stack:
                stack[-1][2] = token_pos
            continue
        frame[1] += 1
        item = rhs[rhs_pos]
        if isinstance(item, int):
            sub = rules[item]
            length = len(sub.expansion)
            sub.occurrences.append(
                RuleOccurrence(token_pos, token_pos + length - 1)
            )
            stack.append([item, 0, token_pos])
        else:
            frame[2] = token_pos + 1
