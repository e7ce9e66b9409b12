"""ctypes binding for the discretize C core (``_sax_core.c``).

Two calls take :func:`repro.sax.discretize.discretize` from the centred
prefix sums to the kept offsets and word keys: ``sax_letters`` computes
each window's statistics, PAA coefficients, near-decision guard and
letters in one pass, and ``sax_reduce`` applies numerosity reduction to
the final letters and packs each kept word into an int64 key.  No
per-window NumPy temporary is built, and the core holds no state, so it
is loaded as a :class:`ctypes.CDLL` and its calls release the GIL.

:mod:`repro._cbuild` compiles the source on first use.  On first load a
parity probe compares the core's letters with the window-matrix
arithmetic of :func:`~repro.sax.discretize._two_pass_rows` and its
reductions with :func:`~repro.sax.discretize._kept_indices` on a small
series; a missing compiler or a failed probe makes :func:`load` return
None (``REPRO_C_CORE=require`` raises instead), and discretize computes
every window with :func:`~repro.sax.discretize._two_pass_rows`, which
gives the same words (DESIGN.md §15).
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro._cbuild import CCore

_SOURCE = Path(__file__).with_name("_sax_core.c")

#: ``sax_reduce``'s strategy codes, by ``NumerosityReduction.value``.
_STRATEGY_CODES = {"none": 0, "exact": 1, "mindist": 2}


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    ptr, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    lib.sax_letters.argtypes = [i64, i64, i64, f64, ptr, ptr, ptr, ptr, ptr,
                                ptr, i64, f64, ptr, ptr]
    lib.sax_letters.restype = i64
    lib.sax_reduce.argtypes = [ptr, i64, i64, i64, ctypes.c_int, ptr, ptr]
    lib.sax_reduce.restype = i64
    return lib


def letters(
    lib: ctypes.CDLL,
    prefix_sums: tuple[float, np.ndarray, np.ndarray, np.ndarray],
    window: int,
    paa_size: int,
    cuts: np.ndarray,
    flatness_threshold: float,
) -> tuple[np.ndarray, np.ndarray]:
    """``(letters, flagged)`` of every window.

    *prefix_sums* is :func:`~repro.timeseries.kernels.centred_prefix_sums`
    of the series and *cuts* the alphabet's breakpoints.  *letters* is a
    ``(k, paa_size)`` ``uint8`` array, *flagged* the ``int64`` indices of
    the windows the near-decision guard could not vouch for.
    """
    centre, x, c, c2 = prefix_sums
    k = x.size - window + 1
    q, r = np.divmod(np.arange(paa_size + 1, dtype=np.int64) * window, paa_size)
    rp = r / paa_size
    cuts = np.ascontiguousarray(cuts, dtype=float)
    out = np.empty((k, paa_size), dtype=np.uint8)
    flagged = np.empty(k, dtype=np.int64)
    n_flagged = lib.sax_letters(
        k, window, paa_size, centre, x.ctypes.data, c.ctypes.data,
        c2.ctypes.data, q.ctypes.data, rp.ctypes.data, cuts.ctypes.data,
        cuts.size, flatness_threshold, out.ctypes.data, flagged.ctypes.data,
    )
    return out, flagged[:n_flagged]


def reduce(
    lib: ctypes.CDLL, letters: np.ndarray, alphabet_size: int, strategy: str
) -> tuple[np.ndarray, np.ndarray]:
    """``(kept, keys)``: the kept window indices and their word keys.

    *letters* is a C-contiguous ``(k, P)`` ``uint8`` array and *strategy*
    a ``NumerosityReduction`` value; a key is the word's letters read as
    a base-``alphabet_size`` number, so keys sort like the words.
    """
    k, paa_size = letters.shape
    kept = np.empty(k, dtype=np.int64)
    keys = np.empty(k, dtype=np.int64)
    n_kept = lib.sax_reduce(
        letters.ctypes.data, k, paa_size, alphabet_size,
        _STRATEGY_CODES[strategy], kept.ctypes.data, keys.ctypes.data,
    )
    return kept[:n_kept].copy(), keys[:n_kept].copy()


def _probe(lib: ctypes.CDLL) -> bool:
    """True when the core's letters and reductions are the Python path's.

    The series has a flat stretch, sign-mirrored blocks whose segment
    means sit on the even-alphabet breakpoint 0, a 1e3 offset and
    fractional segment edges (W = 30, P = 4).  At an even and an odd
    alphabet the core must flag some windows (the flat stretch, and at
    the even alphabet the windows near 0) and give every window it does
    not flag the letters of :func:`~repro.sax.discretize._two_pass_rows`,
    and each strategy must keep the windows
    :func:`~repro.sax.discretize._kept_indices` keeps, with their keys.
    """
    from repro.sax.alphabet import breakpoints_array, letter_indices
    from repro.sax.discretize import NumerosityReduction, _kept_indices, _two_pass_rows
    from repro.timeseries.kernels import centred_prefix_sums
    from repro.timeseries.znorm import DEFAULT_FLATNESS_THRESHOLD

    block = np.array([3.0, -1.0, 2.0, -2.0, 1.0, -3.0])
    series = np.resize(np.concatenate([block, -block[::-1]]), 240) + 1e3
    series[:120] += np.sin(np.arange(120) / 5.0)
    series[150:180] = series[150]
    window, paa_size = 30, 4
    values = _two_pass_rows(
        series, window, paa_size, np.arange(series.size - window + 1),
        DEFAULT_FLATNESS_THRESHOLD,
    )
    sums = centred_prefix_sums(series)
    for alphabet_size in (4, 5):
        got, flagged = letters(
            lib, sums, window, paa_size, breakpoints_array(alphabet_size),
            DEFAULT_FLATNESS_THRESHOLD,
        )
        want = letter_indices(values, alphabet_size)
        vouched = np.ones(len(want), dtype=bool)
        vouched[flagged] = False
        if flagged.size == 0 or not np.array_equal(got[vouched], want[vouched]):
            return False
    place = alphabet_size ** np.arange(paa_size - 1, -1, -1)
    for strategy in NumerosityReduction:
        kept, keys = reduce(lib, want.astype(np.uint8), alphabet_size, strategy.value)
        expected = _kept_indices(want, strategy)
        if not (
            np.array_equal(kept, expected)
            and np.array_equal(keys, want[expected] @ place)
        ):
            return False
    return True


_core = CCore(_SOURCE, _bind, _probe)
load = _core.load
reset_for_testing = _core.reset_for_testing
