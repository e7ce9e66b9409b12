"""Online sliding-window SAX discretization.

Push one value at a time; once the window buffer is full, each new value
produces a window, which is z-normalized (with the usual flatness rule),
PAA-reduced and symbolized — and then passed through inline numerosity
reduction, so the caller sees exactly the token stream that the offline
:func:`repro.sax.discretize.discretize` would produce for the same data.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import CheckpointError, ParameterError
from repro.sax.alphabet import alphabet_letters, breakpoints_array
from repro.sax.discretize import NumerosityReduction, SAXWord
from repro.sax.sax import mindist
from repro.streaming.window_stats import RollingStats
from repro.timeseries.paa import paa
from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD


class OnlineDiscretizer:
    """Streaming counterpart of :func:`repro.sax.discretize.discretize`.

    Parameters mirror the offline function.  Each :meth:`push` returns
    the emitted :class:`~repro.sax.discretize.SAXWord` (the word and the
    starting offset of its window) or None when the window is not yet
    full or numerosity reduction swallowed the word.

    Examples
    --------
    >>> disc = OnlineDiscretizer(window=4, paa_size=2, alphabet_size=3)
    >>> emitted = [disc.push(v) for v in [0, 1, 2, 3, 4, 5]]
    >>> emitted[2] is None   # window not full yet
    True
    >>> emitted[3].offset    # first full window starts at 0
    0
    """

    def __init__(
        self,
        window: int,
        paa_size: int,
        alphabet_size: int,
        *,
        strategy: NumerosityReduction = NumerosityReduction.EXACT,
        flatness_threshold: float = DEFAULT_FLATNESS_THRESHOLD,
    ) -> None:
        if window < 2:
            raise ParameterError(f"window must be at least 2, got {window}")
        if not 1 <= paa_size <= window:
            raise ParameterError(
                f"PAA size must be in [1, {window}], got {paa_size}"
            )
        self.window = window
        self.paa_size = paa_size
        self.alphabet_size = alphabet_size
        self.strategy = strategy
        self.flatness_threshold = flatness_threshold
        self._cuts = breakpoints_array(alphabet_size)
        self._alphabet = list(alphabet_letters(alphabet_size))
        self._stats = RollingStats(window)
        self._position = 0  # index of the NEXT point to be pushed
        self._last_word: Optional[str] = None
        self.raw_word_count = 0
        self.emitted_count = 0

    @property
    def position(self) -> int:
        """How many points have been pushed so far."""
        return self._position

    def push(self, value: float) -> Optional[SAXWord]:
        """Consume one point; return the emitted SAX word, if any."""
        self._stats.push(float(value))
        self._position += 1
        if not self._stats.full:
            return None
        offset = self._position - self.window
        word = self._discretize_current()
        self.raw_word_count += 1
        if not self._keep(word):
            return None
        self._last_word = word
        self.emitted_count += 1
        return SAXWord(word, offset)

    def _discretize_current(self) -> str:
        values = self._stats.values()
        mean = self._stats.mean
        std = self._stats.std
        if std < self.flatness_threshold:
            # Flat windows discretize as exact zeros (see the offline
            # discretizer): one stable middle-letter word, no flicker.
            normalized = np.zeros_like(values)
        else:
            normalized = (values - mean) / std
        means = paa(normalized, self.paa_size)
        idx = np.searchsorted(self._cuts, means, side="right")
        return "".join(self._alphabet[i] for i in idx)

    # -- state (de)serialization ----------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable state for :meth:`load_state` (exact)."""
        return {
            "window": self.window,
            "paa_size": self.paa_size,
            "alphabet_size": self.alphabet_size,
            "strategy": self.strategy.value,
            "flatness_threshold": self.flatness_threshold,
            "stats": self._stats.state_dict(),
            "position": self._position,
            "last_word": self._last_word,
            "raw_word_count": self.raw_word_count,
            "emitted_count": self.emitted_count,
        }

    def load_state(self, state: dict) -> None:
        """Restore the state captured by :meth:`state_dict`.

        The discretization parameters must match this instance's —
        a snapshot is a continuation, not a reconfiguration.
        """
        expected = {
            "window": self.window,
            "paa_size": self.paa_size,
            "alphabet_size": self.alphabet_size,
            "strategy": self.strategy.value,
        }
        for key, mine in expected.items():
            if state.get(key) != mine:
                raise CheckpointError(
                    f"discretizer state mismatch on {key!r}: snapshot has "
                    f"{state.get(key)!r}, this instance has {mine!r}"
                )
        self._stats.load_state(state["stats"])
        self._position = int(state["position"])
        self._last_word = state["last_word"]
        self.raw_word_count = int(state["raw_word_count"])
        self.emitted_count = int(state["emitted_count"])

    def _keep(self, word: str) -> bool:
        """Inline numerosity reduction against the last emitted word."""
        if self._last_word is None:
            return True
        if self.strategy is NumerosityReduction.NONE:
            return True
        if self.strategy is NumerosityReduction.EXACT:
            return word != self._last_word
        if self.strategy is NumerosityReduction.MINDIST:
            return (
                mindist(word, self._last_word, self.alphabet_size, self.window)
                > 0.0
            )
        raise ParameterError(f"unknown strategy {self.strategy!r}")
