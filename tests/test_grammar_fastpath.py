"""Equivalence and golden-fingerprint tests for the grammar fast path.

The interned-token Sequitur engine (C core or pure-Python array
fallback), the vectorized numerosity reduction, and the bincount-based
density accumulation all promise **bit-identical** outputs to the
preserved reference implementations.  This suite pins that promise:

* Hypothesis property tests check ``induce_grammar`` against the
  object-based :func:`tests.legacy_sequitur.induce_grammar_legacy` on
  random token sequences, separately for each available engine, and
  the streaming :class:`~repro.streaming.online_sequitur.
  IncrementalSequitur` against offline induction at every checked
  prefix.
* The vectorized :func:`repro.sax.discretize._kept_indices` is checked
  against the scalar word-string :func:`tests.oracles.reduce_oracle`
  for all three numerosity strategies.
* The vectorized density-minima run extraction is checked against a
  per-point reference scan.
* Golden grammar fingerprints (rule count, token count, interval count,
  density checksum, top discords) for two seeded bundled datasets are
  pinned in ``tests/golden/grammar_fingerprints.json``.

Regenerate the fingerprints after an *intentional* change with::

    PYTHONPATH=src python tests/test_grammar_fastpath.py --regen
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import GrammarAnomalyDetector
from repro.core.rule_density import (
    density_minima_intervals,
    density_statistics,
    rule_density_curve,
)
from repro.datasets import synthetic_ecg
from repro.datasets.synthetic import sine_with_anomaly
from repro.grammar import ccore
from repro.grammar.intervals import RuleInterval, RuleIntervalList
from repro.grammar.sequitur import induce_grammar
from repro.sax.discretize import NumerosityReduction, _kept_indices
from repro.streaming.online_sequitur import IncrementalSequitur
from tests.legacy_sequitur import induce_grammar_legacy
from tests.oracles import reduce_oracle

GOLDEN_PATH = Path(__file__).parent / "golden" / "grammar_fingerprints.json"
GOLDEN_FORMAT = "repro-grammar-fingerprints/1"

# ---------------------------------------------------------------------
# Engine forcing
# ---------------------------------------------------------------------

_C_AVAILABLE = ccore.load() is not None
ENGINES = ("python", "c") if _C_AVAILABLE else ("python",)


@contextlib.contextmanager
def forced_engine(name: str):
    """Run induction on a specific engine, restoring the gate after."""
    old = os.environ.get("REPRO_C_CORE")
    os.environ["REPRO_C_CORE"] = "off" if name == "python" else "require"
    ccore.reset_for_testing()
    try:
        yield
    finally:
        if old is None:
            os.environ.pop("REPRO_C_CORE", None)
        else:
            os.environ["REPRO_C_CORE"] = old
        ccore.reset_for_testing()


# ---------------------------------------------------------------------
# Interned engines vs the legacy object engine
# ---------------------------------------------------------------------

# Single- and multi-character tokens, few distinct values so random
# sequences actually repeat (repeats are what exercise rule formation,
# rule reuse, and rule deletion).
token_seqs = st.lists(
    st.sampled_from(["a", "b", "c", "d", "ab", "ba"]), max_size=150
)


class TestEngineEquivalence:
    @pytest.mark.parametrize("engine", ENGINES)
    @given(tokens=token_seqs)
    @settings(max_examples=60, deadline=None)
    def test_matches_legacy(self, engine, tokens):
        with forced_engine(engine):
            fast = induce_grammar(tokens)
        legacy = induce_grammar_legacy(tokens)
        assert fast == legacy
        fast.verify()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_pathological_runs(self, engine):
        """Long same-token runs stress overlapping-digram handling."""
        for tokens in (["a"] * 64, ["a", "b"] * 40 + ["a"] * 30):
            with forced_engine(engine):
                fast = induce_grammar(tokens)
            assert fast == induce_grammar_legacy(tokens)

    @pytest.mark.skipif(not _C_AVAILABLE, reason="no system C compiler")
    def test_c_and_python_agree(self):
        rng = np.random.default_rng(11)
        tokens = [("a", "b", "c")[i] for i in rng.integers(0, 3, 500).tolist()]
        with forced_engine("c"):
            via_c = induce_grammar(tokens)
        with forced_engine("python"):
            via_py = induce_grammar(tokens)
        assert via_c == via_py


class TestStreamingEquivalence:
    @given(tokens=token_seqs)
    @settings(max_examples=30, deadline=None)
    def test_snapshot_matches_offline(self, tokens):
        inc = IncrementalSequitur()
        for i, tok in enumerate(tokens, 1):
            inc.push(tok)
            if i % 17 == 0 or i == len(tokens):
                assert inc.snapshot() == induce_grammar(tokens[:i])


# ---------------------------------------------------------------------
# Vectorized numerosity reduction vs the scalar word-string reference
# ---------------------------------------------------------------------

_ALPHABET_SIZE = 6
_LETTERS = [chr(ord("a") + i) for i in range(_ALPHABET_SIZE)]


@st.composite
def letter_matrices(draw):
    width = draw(st.integers(min_value=2, max_value=6))
    nrows = draw(st.integers(min_value=0, max_value=40))
    # Letters drawn from a 3-value band so consecutive rows collide
    # (EXACT) and sit within MINDIST-zero range of each other often.
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=2),
                min_size=width,
                max_size=width,
            ),
            min_size=nrows,
            max_size=nrows,
        )
    )
    base = draw(st.integers(min_value=0, max_value=_ALPHABET_SIZE - 3))
    return np.asarray(rows, dtype=np.int64).reshape(nrows, width) + base


class TestNumerosityReduction:
    @given(letter_idx=letter_matrices())
    @settings(max_examples=80, deadline=None)
    def test_kept_indices_match_reduce(self, letter_idx):
        raw_words = [
            "".join(_LETTERS[i] for i in row) for row in letter_idx.tolist()
        ]
        for strategy in NumerosityReduction:
            fast = _kept_indices(letter_idx, strategy).tolist()
            reference = reduce_oracle(raw_words, strategy, _ALPHABET_SIZE, 16)
            assert fast == reference, strategy


# ---------------------------------------------------------------------
# Density accumulation edge cases + run extraction reference
# ---------------------------------------------------------------------


class TestDensityEdgeCases:
    def test_empty_intervals_all_zero_curve(self):
        for empty in ([], RuleIntervalList()):
            curve = rule_density_curve(empty, 64)
            assert curve.dtype == np.int64
            assert curve.shape == (64,)
            assert not curve.any()

    def test_empty_intervals_zero_length_series(self):
        assert rule_density_curve([], 0).size == 0

    def test_out_of_range_intervals_ignored(self):
        intervals = [RuleInterval(1, 100, 110, usage=1)]
        assert not rule_density_curve(intervals, 50).any()

    def test_density_statistics_empty_curve(self):
        stats = density_statistics(np.array([]))
        assert stats == {"min": 0.0, "max": 0.0, "mean": 0.0, "std": 0.0}

    def test_matches_per_interval_reference(self):
        rng = np.random.default_rng(5)
        starts = rng.integers(0, 900, size=300)
        intervals = RuleIntervalList(
            RuleInterval(int(i % 7) + 1, int(s), int(s) + int(ln), usage=1)
            for i, (s, ln) in enumerate(
                zip(starts.tolist(), rng.integers(5, 220, size=300).tolist())
            )
        )
        curve = rule_density_curve(intervals, 1000)
        reference = np.zeros(1000, dtype=np.int64)
        for iv in intervals:
            reference[iv.start : min(iv.end, 1000)] += 1
        assert np.array_equal(curve, reference)
        # second call reuses the cached endpoint arrays — same curve
        assert np.array_equal(rule_density_curve(intervals, 1000), curve)


class TestMinimaExtraction:
    @given(
        curve_vals=st.lists(st.integers(min_value=0, max_value=4), max_size=60),
        min_length=st.integers(min_value=1, max_value=4),
        threshold=st.one_of(st.none(), st.integers(min_value=0, max_value=4)),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_scan_reference(self, curve_vals, min_length, threshold):
        curve = np.asarray(curve_vals, dtype=np.int64)
        got = density_minima_intervals(
            curve, threshold=threshold, min_length=min_length
        )
        if curve.size == 0:
            assert got == []
            return
        cutoff = float(curve.min()) if threshold is None else threshold
        expected, run_start = [], None
        for i, value in enumerate(curve_vals):
            if value <= cutoff:
                if run_start is None:
                    run_start = i
            elif run_start is not None:
                if i - run_start >= min_length:
                    expected.append((run_start, i))
                run_start = None
        if run_start is not None and len(curve_vals) - run_start >= min_length:
            expected.append((run_start, len(curve_vals)))
        assert got == expected


# ---------------------------------------------------------------------
# Golden grammar fingerprints
# ---------------------------------------------------------------------

DATASETS = {
    "sine": dict(kind="sine", length=1200, period=100, seed=7),
    "ecg": dict(kind="ecg", num_beats=8, anomaly_beats=(5,), seed=3),
}


def _load_dataset(name: str):
    spec = DATASETS[name]
    if spec["kind"] == "sine":
        return sine_with_anomaly(
            length=spec["length"], period=spec["period"], seed=spec["seed"]
        )
    return synthetic_ecg(
        num_beats=spec["num_beats"],
        anomaly_beats=spec["anomaly_beats"],
        seed=spec["seed"],
    )


def grammar_fingerprint(name: str) -> dict:
    """The grammar front half plus top discords, as a comparable dict."""
    dataset = _load_dataset(name)
    detector = GrammarAnomalyDetector(
        window=dataset.window,
        paa_size=dataset.paa_size,
        alphabet_size=dataset.alphabet_size,
    )
    result = detector.fit(dataset.series)
    density = np.ascontiguousarray(result.density, dtype=np.int64)
    discords = detector.discords(num_discords=2).discords
    return {
        "rules": len(result.grammar),
        "tokens": len(result.discretization),
        "raw_words": result.discretization.raw_word_count,
        "intervals": len(result.intervals),
        "gaps": len(result.gaps),
        "density_checksum": hashlib.sha256(density.tobytes()).hexdigest()[:16],
        "discords": [
            [d.start, d.end, round(float(d.score), 10)] for d in discords
        ],
    }


def _compute_all() -> dict:
    entries = {name: grammar_fingerprint(name) for name in sorted(DATASETS)}
    return {"format": GOLDEN_FORMAT, "fingerprints": entries}


class TestGoldenFingerprints:
    @pytest.fixture(scope="class")
    def golden(self):
        assert GOLDEN_PATH.exists(), (
            "missing golden fingerprints; regenerate with "
            "PYTHONPATH=src python tests/test_grammar_fastpath.py --regen"
        )
        data = json.loads(GOLDEN_PATH.read_text())
        assert data["format"] == GOLDEN_FORMAT
        return data["fingerprints"]

    @pytest.mark.parametrize("name", sorted(DATASETS))
    def test_serial_matches_golden(self, golden, name):
        assert grammar_fingerprint(name) == golden[name]


def _regen() -> None:
    GOLDEN_PATH.write_text(json.dumps(_compute_all(), indent=2) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
