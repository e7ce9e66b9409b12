"""ctypes binding for the Sequitur C core.

The fast induction path (:mod:`repro.grammar.sequitur`) runs the
digram-uniqueness loop over interned integer tokens.  The inner loop is
pure pointer chasing — parallel ``code/prv/nxt`` arrays plus an
open-addressing digram hash map — which a few hundred lines of C execute
an order of magnitude faster than CPython.  :mod:`repro._cbuild`
compiles ``_sequitur_core.c`` on first use and caches the shared object;
this module declares its signatures.

The core is strictly optional: ``load()`` returns None when it is
unavailable (or ``REPRO_C_CORE=off``) and the callers fall back to the
pure-Python fast path, which is bit-identical.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

from repro._cbuild import CCore

_SOURCE = Path(__file__).with_name("_sequitur_core.c")


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    c_ptr, c_i64, c_int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
    i64_p = ctypes.POINTER(c_i64)

    lib.seq_new.argtypes = []
    lib.seq_new.restype = c_ptr
    lib.seq_free.argtypes = [c_ptr]
    lib.seq_free.restype = None
    lib.seq_oom.argtypes = [c_ptr]
    lib.seq_oom.restype = c_int
    lib.seq_push.argtypes = [c_ptr, c_ptr, c_i64]
    lib.seq_push.restype = c_int
    for fn in ("seq_n_nodes", "seq_n_rules"):
        getattr(lib, fn).argtypes = [c_ptr]
        getattr(lib, fn).restype = c_i64
    for fn in (
        "seq_code_ptr",
        "seq_prv_ptr",
        "seq_nxt_ptr",
        "seq_guards_ptr",
        "seq_refcount_ptr",
    ):
        getattr(lib, fn).argtypes = [c_ptr]
        getattr(lib, fn).restype = i64_p

    lib.seq_freeze_prep.argtypes = [c_ptr, c_i64]
    lib.seq_freeze_prep.restype = c_ptr
    lib.seq_frozen_free.argtypes = [c_ptr]
    lib.seq_frozen_free.restype = None
    lib.seq_frozen_oom.argtypes = [c_ptr]
    lib.seq_frozen_oom.restype = c_int
    for fn in ("seq_frozen_n_rules", "seq_frozen_body_total", "seq_frozen_starts_total"):
        getattr(lib, fn).argtypes = [c_ptr]
        getattr(lib, fn).restype = c_i64
    for fn in (
        "seq_frozen_body_flat",
        "seq_frozen_body_off",
        "seq_frozen_levels",
        "seq_frozen_lengths",
        "seq_frozen_starts_flat",
        "seq_frozen_starts_off",
    ):
        getattr(lib, fn).argtypes = [c_ptr]
        getattr(lib, fn).restype = i64_p
    return lib


_core = CCore(_SOURCE, _bind)


def load() -> Optional[ctypes.CDLL]:
    """Return the bound Sequitur core, or None when unavailable.

    The first call compiles (or locates a cached build of) the core; the
    result, a failure included, is cached for the process lifetime.
    ``REPRO_C_CORE=require`` turns failures into
    :class:`repro._cbuild.CCoreUnavailable` instead.
    """
    return _core.load()


reset_for_testing = _core.reset_for_testing
