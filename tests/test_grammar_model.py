"""Tests for repro.grammar.grammar (the data model itself)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import GrammarError
from repro.grammar.grammar import (
    Grammar,
    GrammarRule,
    RuleOccurrence,
    START_RULE_ID,
    compute_levels,
)
from repro.grammar.sequitur import induce_grammar, induce_grammar_interned
from tests.legacy_sequitur import induce_grammar_legacy
from tests.test_grammar_fastpath import ENGINES


def _toy_grammar() -> Grammar:
    """R0 -> R1 x R1 ; R1 -> a b  over input 'a b x a b'."""
    tokens = ["a", "b", "x", "a", "b"]
    rules = {
        0: GrammarRule(rule_id=0, rhs=[1, "x", 1], expansion=list(tokens),
                       occurrences=[RuleOccurrence(0, 4)]),
        1: GrammarRule(rule_id=1, rhs=["a", "b"], expansion=["a", "b"],
                       occurrences=[RuleOccurrence(0, 1), RuleOccurrence(3, 4)]),
    }
    compute_levels(rules)
    return Grammar(tokens=tokens, rules=rules)


class TestRuleOccurrence:
    def test_token_length(self):
        assert RuleOccurrence(2, 5).token_length == 4

    def test_rejects_malformed(self):
        with pytest.raises(GrammarError):
            RuleOccurrence(3, 2)
        with pytest.raises(GrammarError):
            RuleOccurrence(-1, 2)


class TestGrammarRule:
    def test_name(self):
        assert GrammarRule(rule_id=7, rhs=[]).name == "R7"

    def test_usage(self):
        rule = _toy_grammar().rules[1]
        assert rule.usage == 2

    def test_displays(self):
        rule = _toy_grammar().rules[0]
        assert rule.rhs_display() == "R1 x R1"
        assert rule.expansion_display() == "a b x a b"


class TestGrammar:
    def test_verify_ok(self):
        _toy_grammar().verify()

    def test_grammar_size(self):
        assert _toy_grammar().grammar_size() == 5  # 3 + 2

    def test_compression_ratio(self):
        assert _toy_grammar().compression_ratio() == pytest.approx(1.0)

    def test_expand_rule(self):
        grammar = _toy_grammar()
        assert grammar.expand_rule(1) == ["a", "b"]
        with pytest.raises(GrammarError):
            grammar.expand_rule(99)

    def test_iteration_order(self):
        ids = [r.rule_id for r in _toy_grammar()]
        assert ids == sorted(ids)

    def test_rules_by_usage(self):
        grammar = induce_grammar(list("ababcdcdcdcd"))
        usages = [r.usage for r in grammar.rules_by_usage()]
        assert usages == sorted(usages)

    def test_verify_catches_dangling_reference(self):
        grammar = _toy_grammar()
        grammar.rules[0].rhs = [1, "x", 2]
        with pytest.raises(GrammarError):
            grammar.verify()

    def test_verify_catches_unused_rule(self):
        grammar = _toy_grammar()
        grammar.rules[2] = GrammarRule(rule_id=2, rhs=["q"], expansion=["q"])
        with pytest.raises(GrammarError):
            grammar.verify()

    def test_verify_catches_occurrence_mismatch(self):
        grammar = _toy_grammar()
        grammar.rules[1].occurrences.append(RuleOccurrence(1, 2))
        with pytest.raises(GrammarError):
            grammar.verify()

    def test_verify_catches_out_of_range_occurrence(self):
        grammar = _toy_grammar()
        grammar.rules[1].occurrences.append(RuleOccurrence(4, 5))
        with pytest.raises(GrammarError):
            grammar.verify()


class TestComputeLevels:
    def test_toy_levels(self):
        grammar = _toy_grammar()
        assert grammar.rules[1].level == 1
        assert grammar.rules[0].level == 2

    def test_deep_hierarchy(self):
        grammar = induce_grammar(list("abcabc" * 8))
        levels = {r.rule_id: r.level for r in grammar}
        assert levels[START_RULE_ID] == max(levels.values())

    def test_detects_cycles(self):
        rules = {
            0: GrammarRule(rule_id=0, rhs=[1]),
            1: GrammarRule(rule_id=1, rhs=[2]),
            2: GrammarRule(rule_id=2, rhs=[1]),
        }
        with pytest.raises(GrammarError):
            compute_levels(rules)


class TestFrozenGrammar:
    """A Sequitur grammar keeps its freeze arrays and builds objects lazily;
    every view equals that of the same grammar rebuilt from rule objects."""

    @staticmethod
    def _pair(engine):
        from repro.sax.discretize import discretize
        from tests.test_grammar_fastpath import forced_engine
        from tests.test_intervals import _periodic_with_blip

        disc = discretize(_periodic_with_blip(), 40, 4, 4)
        with forced_engine(engine):
            frozen = induce_grammar_interned(disc.token_ids, disc.vocabulary)
        objects = induce_grammar_legacy(disc.tokens())
        return disc, frozen, objects

    @pytest.mark.parametrize("engine", ENGINES)
    def test_views_equal_the_object_grammar(self, engine):
        disc, frozen, objects = self._pair(engine)
        assert frozen.frozen is not None and objects.frozen is None
        assert len(frozen) == len(objects)
        assert frozen.grammar_size() == objects.grammar_size()
        assert frozen.compression_ratio() == objects.compression_ratio()
        assert frozen._rules is None
        for got, want in zip(frozen.occurrence_table(), objects.occurrence_table()):
            assert got.dtype == want.dtype == np.int64
            np.testing.assert_array_equal(got, want)
        for got, want in zip(frozen.start_body(), objects.start_body()):
            np.testing.assert_array_equal(got, want)
        assert frozen._rules is None and frozen._tokens is None
        assert frozen.non_start_rules() == objects.non_start_rules()
        assert dict(frozen.rules) == objects.rules
        assert frozen.tokens == objects.tokens == disc.tokens()
        assert frozen == objects
        frozen.verify()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_motifs_and_postprocess_equal_the_object_grammar(self, engine):
        from repro.core.motifs import find_motifs
        from repro.grammar.postprocess import prune_rules, rule_periodicity

        disc, frozen, objects = self._pair(engine)
        for analysis in (find_motifs, prune_rules, rule_periodicity):
            assert analysis(frozen, disc) == analysis(objects, disc)

    def test_rules_are_built_one_at_a_time(self):
        grammar = induce_grammar(list("abcabdabcabd"))
        rules = grammar.rules
        assert 1 in rules and 0 in rules and len(grammar) not in rules
        assert "1" not in rules and 1.5 not in rules
        assert rules._built.count(None) == len(rules)
        rule = rules[1]
        assert rules[1] is rule
        assert rules._built.count(None) == len(rules) - 1
        with pytest.raises(KeyError):
            rules[len(rules)]
        assert list(rules) == list(range(len(rules)))

    def test_pickle_round_trip(self):
        import pickle

        grammar = induce_grammar(list("abcabdabcabd"))
        grammar.rules[1]
        restored = pickle.loads(pickle.dumps(grammar))
        assert restored.frozen is not None
        assert restored == grammar
