"""The random tail of a discord search's inner loop.

The paper fixes only the start of RRA's inner loop: a candidate's
same-rule candidates first, then "the rest in random order" (Section
4.2); HOTSAX and the Haar variant visit a window's same-bucket windows
first in the same way.  The tail is drawn lazily: the C core draws one
position per tail pair it visits, and the Python scans draw it in blocks
as they reach it, so a candidate abandoned within its group draws
nothing.

* **One substream per outer candidate.**  The tail of outer position *k*
  in rank *rank* of a search with *seed* is keyed by
  :func:`inner_key`, a SplitMix64 hash of the triple, and drawn from the
  SplitMix64 stream that starts at that key.  Each tail is reproducible
  on its own, whatever the other candidates drew.
* **Exact bounded draws.**  A draw in ``[0, n)`` is Lemire's multiply
  with rejection (:func:`draw_below`): the high word of ``x * n``,
  rejected while the low word is below ``2**64 mod n``.
* **A forward sparse Fisher–Yates** over the *virtual* tail, the
  positions ``0 .. n - 1`` less the sorted *group* (the candidate's own
  rule or bucket): step *i* swaps slot *i* with a slot drawn from
  ``[i, m)`` and yields it, and only displaced slots are stored.  A
  virtual index maps to a position by a binary search over the group.

This module is the Python twin of the RRA core's generator
(``_eq1_core.c``): given a key, both yield the same positions, which the
core's parity probe checks on load.  The Python RRA loop and the
bucket-ordered scans (:mod:`repro.discord.search`) draw from it.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

from repro.exceptions import ParameterError

MASK64 = (1 << 64) - 1
#: SplitMix64's increment, the odd integer nearest 2**64 / golden ratio.
GAMMA = 0x9E3779B97F4A7C15


def check_seed(seed) -> int:
    """*seed* as an int in ``[0, 2**64)``, else :class:`ParameterError`."""
    try:
        value = operator.index(seed)
    except TypeError:
        raise ParameterError(f"seed must be an integer, got {seed!r}") from None
    if not 0 <= value <= MASK64:
        raise ParameterError(f"seed must be in [0, 2**64), got {value}")
    return value


def mix64(z: int) -> int:
    """SplitMix64's finalizer: a bijection of 64-bit words."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def inner_key(seed: int, rank: int, k: int) -> int:
    """The stream state of the tail of outer position *k* in rank *rank*."""
    h = mix64((seed + GAMMA) & MASK64)
    h = mix64(h ^ ((rank + GAMMA) & MASK64))
    return mix64(h ^ ((k + GAMMA) & MASK64))


def draw_below(state: int, n: int) -> tuple[int, int]:
    """``(value, state)``: a uniform draw in ``[0, n)``, ``1 <= n <
    2**64``, from the SplitMix64 stream at *state*, and the state after
    it (Lemire's multiply with rejection)."""
    state = (state + GAMMA) & MASK64
    product = mix64(state) * n
    if product & MASK64 < n:
        threshold = ((1 << 64) - n) % n
        while product & MASK64 < threshold:
            state = (state + GAMMA) & MASK64
            product = mix64(state) * n
    return product >> 64, state


_M32 = np.uint64(0xFFFFFFFF)
_FINALIZER = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _raw_draws(state: int, count: int) -> np.ndarray:
    """The next *count* raw draws of the stream at *state*, as uint64."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GAMMA) + np.uint64(state)
    z = (z ^ (z >> np.uint64(30))) * _FINALIZER[0]
    z = (z ^ (z >> np.uint64(27))) * _FINALIZER[1]
    return z ^ (z >> np.uint64(31))


def _wide_product(x: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products ``x * n``."""
    x_lo, x_hi, n_lo, n_hi = x & _M32, x >> np.uint64(32), n & _M32, n >> np.uint64(32)
    low, cross_a, cross_b = x_lo * n_lo, x_lo * n_hi, x_hi * n_lo
    middle = (low >> np.uint64(32)) + (cross_a & _M32) + (cross_b & _M32)
    high = (
        x_hi * n_hi + (cross_a >> np.uint64(32)) + (cross_b >> np.uint64(32))
        + (middle >> np.uint64(32))
    )
    return high, (middle << np.uint64(32)) | (low & _M32)


class TailOrder:
    """The positions ``0 .. n - 1`` not in the ascending *group*, in the
    random order of the stream at *key*, taken in blocks (:meth:`take`)
    or one at a time (iteration, which takes blocks of growing size).

    A block's raw draws and their products are computed together; a
    draw whose low word falls below its bound is checked against the
    exact threshold and, if rejected, redrawn one by one, so every value
    is :func:`draw_below`'s.  The swaps run in order over a dict of the
    displaced slots.
    """

    def __init__(self, n: int, group: Sequence[int], key: int):
        group = np.asarray(group, dtype=np.int64)
        # group[j] - j counts the non-group positions before group[j], so
        # the non-group position of virtual index v is v plus the number
        # of these that are <= v.
        self._shifted = group - np.arange(group.size)
        self._m = n - group.size
        self._i = 0
        self._state = key
        self._displaced: dict[int, int] = {}

    def take(self, count: int) -> np.ndarray:
        """The next *count* positions (fewer at the end), as int64."""
        first = self._i
        count = max(0, min(count, self._m - first))
        bounds = np.arange(self._m - first, self._m - first - count, -1, dtype=np.uint64)
        offsets: list[int] = []
        while len(offsets) < count:
            done = len(offsets)
            high, low = _wide_product(_raw_draws(self._state, count - done), bounds[done:])
            suspect = np.flatnonzero(low < bounds[done:])
            rejected = next(
                (
                    int(r) for r in suspect.tolist()
                    if int(low[r]) < ((1 << 64) - int(bounds[done + r])) % int(bounds[done + r])
                ),
                count - done,
            )
            offsets += high[:rejected].tolist()
            self._state = (self._state + rejected * GAMMA) & MASK64
            if rejected < count - done:
                value, self._state = draw_below(self._state, int(bounds[done + rejected]))
                offsets.append(value)
        values = []
        displaced = self._displaced
        for i, offset in enumerate(offsets, first):
            value = displaced.pop(i, i)
            if offset:
                value, displaced[i + offset] = displaced.get(i + offset, i + offset), value
            values.append(value)
        self._i = first + count
        values = np.array(values, dtype=np.int64)
        return values + np.searchsorted(self._shifted, values, side="right")

    def __iter__(self) -> Iterator[int]:
        block = 8
        while True:
            positions = self.take(block)
            if not positions.size:
                return
            yield from positions.tolist()
            block = min(4 * block, 2048)

