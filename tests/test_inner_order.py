"""The lazy random tail of the discord searches' inner loops.

:mod:`repro.discord.inner_order` draws each outer candidate's tail from
its own SplitMix64 substream, with Lemire's exact bounded draws and a
forward sparse Fisher–Yates over the positions outside the candidate's
group; the RRA core (``_eq1_core.c``) draws the same tails in C.  These
tests check that a drained tail is exactly the non-group positions, that
its permutations are uniform, that its bounded draws reject exactly
where Lemire's method rejects, that the core and the Python twin agree,
and that searches give the same answers and telemetry on either path.
"""

from __future__ import annotations

import ctypes
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from repro import _cbuild
from repro.core.rra import find_discords
from repro.discord import inner_order
from repro.discord.haar import haar_discords
from repro.discord.hotsax import hotsax_discords
from repro.discord.inner_order import (
    GAMMA,
    MASK64,
    TailOrder,
    check_seed,
    draw_below,
    inner_key,
)
from repro.exceptions import ParameterError
from repro.observability.metrics import MetricsRegistry
from repro.timeseries import eq1core
from tests.test_rra import _blip_series, _candidates_for, c_core_gate, needs_core


def _unmix64(z: int) -> int:
    """The inverse of :func:`~repro.discord.inner_order.mix64`."""
    z ^= z >> 31 ^ z >> 62
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z ^= z >> 27 ^ z >> 54
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    return z ^ z >> 30 ^ z >> 60


def _state_drawing(x: int) -> int:
    """The stream state whose next raw draw is *x*."""
    return (_unmix64(x) - GAMMA) & MASK64


def _reference_tail(n, group, key):
    """The tail by a dense forward Fisher–Yates over the non-group
    positions, one :func:`draw_below` per step."""
    rest = sorted(set(range(n)) - set(group))
    state = key
    for i in range(len(rest)):
        j, state = draw_below(state, len(rest) - i)
        rest[i], rest[i + j] = rest[i + j], rest[i]
    return rest


def _core_tables():
    return eq1core.Eq1Tables(eq1core.load())


@st.composite
def _tails(draw):
    """``(n, group, key)``: up to 300 positions and a sorted group."""
    n = draw(st.integers(0, 300))
    members = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n)) if n else set()
    seed = draw(st.integers(0, MASK64))
    key = inner_key(seed, draw(st.integers(0, 5)), draw(st.integers(0, 2**20)))
    return n, sorted(members), key


class TestTailOrder:
    @given(_tails())
    @settings(max_examples=200, deadline=None)
    def test_drained_tail_is_every_non_group_position_once(self, case):
        n, group, key = case
        drained = list(TailOrder(n, group, key))
        assert sorted(drained) == sorted(set(range(n)) - set(group))

    @given(_tails(), st.lists(st.integers(0, 40), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_blocks_are_the_dense_fisher_yates(self, case, blocks):
        """Taken in blocks of any sizes, the sparse tail is the dense
        Fisher–Yates over the non-group positions."""
        n, group, key = case
        tail = TailOrder(n, group, key)
        taken = [p for size in blocks for p in tail.take(size).tolist()]
        assert taken + list(tail) == _reference_tail(n, group, key)

    def test_a_rejected_draw_inside_a_block(self):
        """A block whose third raw draw is rejected redraws it and goes on
        from the stream after the redraw, as :func:`draw_below` does."""
        n = 1001  # third step's bound: 999, odd
        bound = n - 2
        threshold = (1 << 64) % bound
        x = ((threshold - 1) * pow(bound, -1, 1 << 64)) & MASK64
        key = (_state_drawing(x) - 2 * GAMMA) & MASK64
        _, after = draw_below((key + 2 * GAMMA) & MASK64, bound)
        assert after != (key + 3 * GAMMA) & MASK64  # the third draw took two
        assert TailOrder(n, [], key).take(50).tolist() == _reference_tail(n, [], key)[:50]

    @pytest.mark.parametrize(
        "n, group",
        [(1, []), (2, []), (3, []), (4, []), (5, []), (7, [0, 3, 6]), (9, [1, 2, 8])],
        ids=lambda case: f"{case}" if isinstance(case, int) else f"group{len(case)}",
    )
    def test_permutations_are_uniform(self, n, group):
        """Over a fixed set of keys, every order of the m = n - |group|
        tail positions (m <= 5) is drawn about equally often (chi-square
        over all m! orders)."""
        m = n - len(group)
        counts = Counter(
            tuple(TailOrder(n, group, inner_key(2015, 1, k))) for k in range(200 * math.factorial(m))
        )
        assert len(counts) == math.factorial(m)
        if m > 1:
            assert chisquare(list(counts.values())).pvalue > 1e-3, counts

    def test_first_position_is_the_first_draw_past_the_group(self):
        """Step 0 takes the slot of one draw in [0, m) and maps it past
        the group: virtual index v is the v-th non-group position."""
        group, key = [3, 5], inner_key(0, 0, 0)
        v, _ = draw_below(key, 10**6 - len(group))
        want = [p for p in range(v + 3) if p not in group][v]
        assert next(iter(TailOrder(10**6, group, key))) == want

    def test_tails_of_other_keys_differ(self):
        orders = {tuple(TailOrder(50, [], inner_key(0, r, k))) for r in range(3) for k in range(30)}
        assert len(orders) == 90


class TestBoundedDraw:
    #: Odd bounds one below and one above 2**32 and 2**63, and near 2**64.
    BOUNDS = (2**32 - 1, 2**32 + 1, 2**63 - 1, 2**63 + 1, 3 * 2**62 + 1, 2**64 - 1)

    @staticmethod
    def _draw_with_first(x: int, n: int) -> tuple[int, int, int]:
        """``(value, draws, start)``: a draw from the state whose first
        raw draw is *x*, and how many raw draws it took."""
        start = _state_drawing(x)
        value, state = draw_below(start, n)
        return value, ((state - start) * pow(GAMMA, -1, 1 << 64)) & MASK64, start

    @pytest.mark.parametrize("n", BOUNDS)
    def test_rejects_exactly_below_two_to_the_64_mod_n(self, n):
        """A raw draw x is kept iff the low word of x * n is at least
        ``2**64 mod n``, and then the draw is the high word."""
        threshold = (1 << 64) % n
        inverse = pow(n, -1, 1 << 64)
        for low in {0, threshold - 1, threshold, threshold + 1, n - 1, n}:
            x = (low * inverse) & MASK64
            value, draws, start = self._draw_with_first(x, n)
            if low < threshold:
                assert draws >= 2
                assert value == draw_below((start + GAMMA) & MASK64, n)[0]
            else:
                assert (draws, value) == (1, x * n >> 64)
            assert 0 <= value < n

    def test_unbiased_above_two_to_the_63(self):
        """At n = 3 * 2**62 a modulo draw puts half its values below
        2**62 and an unrejected multiply half of them at 0 mod 3; the
        exact draw puts a third in each."""
        n, state, values = 3 * 2**62, inner_key(1, 2, 3), []
        for _ in range(6000):
            value, state = draw_below(state, n)
            values.append(value)
        below = sum(v < 2**62 for v in values)
        residues = Counter(v % 3 for v in values)
        assert abs(below - 2000) < 200, below
        assert all(abs(residues[r] - 2000) < 200 for r in range(3)), residues

    def test_seed_must_fit_64_bits(self):
        assert check_seed(np.uint64(MASK64)) == MASK64
        for bad in (-1, 2**64, 1.5, "0"):
            with pytest.raises(ParameterError):
                check_seed(bad)


@needs_core
class TestCoreTwin:
    @given(_tails(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_core_tail_equals_python_tail(self, case, data):
        """The core's tail, cut after any prefix, is the Python twin's."""
        n, group, key = case
        want = list(TailOrder(n, group, key))
        take = data.draw(st.integers(0, len(want)), label="take")
        tables = _core_tables()
        assert tables.tail(n, np.asarray(group), key, take).tolist() == want[:take]
        # A second tail from the same scratch starts clean.
        assert tables.tail(n, np.asarray(group), key, len(want)).tolist() == want

    @given(st.integers(0, MASK64), st.integers(0, 2**40), st.integers(0, 2**40))
    @settings(max_examples=100, deadline=None)
    def test_core_key_equals_python_key(self, seed, rank, k):
        assert eq1core.load().eq1_key(seed, rank, k) == inner_key(seed, rank, k)

    @pytest.mark.parametrize("n", (1, 2, 1000) + TestBoundedDraw.BOUNDS)
    def test_core_draw_equals_python_draw(self, n):
        """From the boundary states of :class:`TestBoundedDraw` and from
        a run of 64 draws, the core's draw and state are the twin's."""
        lib = eq1core.load()
        threshold, state = (1 << 64) % n, ctypes.c_uint64()
        inverse = pow(n, -1, 1 << 64) if n % 2 else 1
        starts = [_state_drawing((low * inverse) & MASK64) for low in (threshold - 1, threshold)]
        for start in starts + [inner_key(9, 9, n)]:
            want_state = state.value = start
            for _ in range(64 if start not in starts else 1):
                want, want_state = draw_below(want_state, n)
                assert lib.eq1_draw(ctypes.addressof(state), n) == want
                assert state.value == want_state

    def test_probe_rejects_a_tail_that_differs(self, monkeypatch):
        """A core whose tails are not the twin's fails its probe, so RRA
        falls back to Python instead of giving other call counts."""
        lib = eq1core.load()
        twin = inner_order.TailOrder.__iter__
        monkeypatch.setattr(
            inner_order.TailOrder, "__iter__", lambda tail: reversed(list(twin(tail)))
        )
        assert not eq1core._probe(lib)

    def test_probe_rejects_a_modulo_draw(self, tmp_path, monkeypatch):
        """A core whose bounded draw is a modulo compiles and runs, and
        its probe fails."""
        source = eq1core._SOURCE.read_text()
        draw = "if ((uint64_t)product < n) {"
        assert source.count(draw) == 1
        mutant = tmp_path / "_eq1_core.c"
        mutant.write_text(
            source.replace(
                draw, "product = (unsigned __int128)(mix64(*state) % n) << 64;\n    if (0) {"
            )
        )
        monkeypatch.setenv("REPRO_C_CORE_BUILD_DIR", str(tmp_path / "build"))
        monkeypatch.setenv("REPRO_C_CORE", "require")
        lib = _cbuild.CCore(mutant, eq1core._bind).load()
        assert not eq1core._probe(lib)


class TestSearchesOnEitherPath:
    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_core_on_and_off_give_same_discords_calls_and_telemetry(self, seed):
        series = _blip_series(length=1500)
        candidates = _candidates_for(series)

        def run():
            metrics = MetricsRegistry()
            result = find_discords(
                series, candidates, num_discords=3, seed=seed, metrics=metrics,
            )
            counters = {
                k: v for k, v in metrics.snapshot()["counters"].items()
                if k.startswith("search.") and "evaluated" not in k
            }
            events = [e["attrs"] for e in metrics.events if e["name"] == "search.rank_complete"]
            return (
                [(d.start, d.end, d.score.hex()) for d in result.discords],
                result.distance_calls, counters,
                metrics.snapshot()["histograms"]["search.abandon_depth"], events,
            )

        if _cbuild._gate() != "off" and _cbuild._find_compiler() is not None:
            with c_core_gate("require"):
                on = run()
        else:
            on = None
        with c_core_gate("off"):
            off = run()
        assert off[0]
        assert on is None or on == off

    @pytest.mark.parametrize("search", [find_discords, hotsax_discords, haar_discords])
    def test_a_generator_is_no_longer_accepted(self, search):
        series = _blip_series(length=400)
        first = _candidates_for(series) if search is find_discords else 40
        with pytest.raises(TypeError):
            search(series, first, rng=np.random.default_rng(0))
        with pytest.raises(ParameterError):
            search(series, first, seed=-1)

    @pytest.mark.parametrize("search", [hotsax_discords, haar_discords])
    def test_seed_moves_calls_not_discords(self, search):
        series = _blip_series(length=900)
        runs = [search(series, 40, num_discords=2, seed=seed) for seed in (0, 1, 2)]
        assert all(run.discords == runs[0].discords for run in runs)
        assert len({run.distance_calls for run in runs}) > 1
