"""The narrow array-API seam behind the ``batch`` distance backend.

The tiled batch kernels (:func:`repro.timeseries.kernels.
all_pairs_sq_euclidean_tile` and friends) reduce the discord searches'
hot path to a handful of GEMM-shaped array operations.  Those kernels do
not call ``numpy`` directly; they go through an :class:`ArrayNamespace`
resolved here, so the same tile code runs on NumPy today and on a GPU
array library (CuPy, PyTorch) when one is installed.

Design constraints, in order:

* **NumPy is the default and the only hard dependency.**  Resolving the
  default namespace imports nothing new and adds one attribute lookup
  per tile — the pure-NumPy path pays nothing for the seam.
* **Accelerator namespaces are optional extras, detected lazily.**
  ``cupy`` / ``torch`` are imported only when explicitly requested (via
  the ``name`` argument or the ``REPRO_ARRAY_API`` environment
  variable); a missing module raises a
  :class:`~repro.exceptions.ParameterError` naming the extra to
  install, never an ``ImportError`` at import time.
* **The surface is deliberately narrow.**  Tiles need exactly: device
  transfer (:meth:`ArrayNamespace.asarray` /
  :meth:`~ArrayNamespace.to_numpy`), one GEMM
  (:meth:`~ArrayNamespace.matmul`), broadcasting arithmetic (native
  operators on the namespace's arrays), and a clip at zero
  (:meth:`~ArrayNamespace.clip_min`).  Anything an array library cannot
  express in those terms stays on the NumPy side of the seam.

Engines never touch the seam directly: they hand NumPy arrays to the
tile kernels and get NumPy arrays back, so the batch replay — and
every bit-identity guarantee it carries — is unaware of the device the
GEMM ran on.
"""

from __future__ import annotations

import importlib
import os
from typing import Optional

import numpy as np

from repro.exceptions import ParameterError

__all__ = [
    "ARRAY_API_ENV",
    "ArrayNamespace",
    "NumpyNamespace",
    "CupyNamespace",
    "TorchNamespace",
    "available_namespaces",
    "resolve_namespace",
]

#: Environment variable selecting the default array namespace.
ARRAY_API_ENV = "REPRO_ARRAY_API"


class ArrayNamespace:
    """The operation surface a batch tile needs from an array library.

    Subclasses adapt one library; the base class documents (and, for
    NumPy semantics, implements) the contract:

    * :meth:`asarray` — move a NumPy array onto the library's device;
    * :meth:`matmul` — the tile GEMM (``A @ B.T`` shapes);
    * :meth:`clip_min` — elementwise lower clip (the dot-product
      identity can go epsilon-negative);
    * :meth:`to_numpy` — bring a result back as a NumPy array.

    Broadcasting arithmetic (``+``, ``-``, ``*`` with ``[:, None]`` /
    ``[None, :]`` views) is required to work natively on the library's
    arrays — true for NumPy, CuPy, and torch alike — so the tile
    expressions need no per-op indirection.
    """

    #: Registry name; also the extras name for optional backends.
    name = "abstract"

    def asarray(self, values):  # pragma: no cover - interface
        raise NotImplementedError

    def matmul(self, a, b):  # pragma: no cover - interface
        raise NotImplementedError

    def clip_min(self, values, lower: float):  # pragma: no cover - interface
        raise NotImplementedError

    def to_numpy(self, values) -> np.ndarray:  # pragma: no cover - interface
        raise NotImplementedError

    def transpose(self, values):
        """Matrix transpose (the ``B.T`` of the tile GEMM)."""
        return values.T


class NumpyNamespace(ArrayNamespace):
    """The default namespace: every operation is a NumPy passthrough."""

    name = "numpy"

    def asarray(self, values):
        return np.asarray(values, dtype=float)

    def matmul(self, a, b):
        return np.matmul(a, b)

    def clip_min(self, values, lower: float):
        return np.clip(values, lower, None)

    def to_numpy(self, values) -> np.ndarray:
        return np.asarray(values)


class CupyNamespace(ArrayNamespace):
    """CuPy adapter (optional extra ``repro[cupy]``)."""

    name = "cupy"

    def __init__(self, module):
        self._cp = module

    def asarray(self, values):
        return self._cp.asarray(values, dtype=self._cp.float64)

    def matmul(self, a, b):
        return self._cp.matmul(a, b)

    def clip_min(self, values, lower: float):
        return self._cp.clip(values, lower, None)

    def to_numpy(self, values) -> np.ndarray:
        return self._cp.asnumpy(values)


class TorchNamespace(ArrayNamespace):
    """PyTorch adapter (optional extra ``repro[torch]``).

    Tensors are created on the default device; users select a GPU the
    idiomatic torch way (``torch.set_default_device``) without this
    module growing device plumbing.
    """

    name = "torch"

    def __init__(self, module):
        self._torch = module

    def asarray(self, values):
        return self._torch.as_tensor(np.ascontiguousarray(values, dtype=float))

    def matmul(self, a, b):
        return self._torch.matmul(a, b)

    def clip_min(self, values, lower: float):
        return self._torch.clamp(values, min=lower)

    def to_numpy(self, values) -> np.ndarray:
        return values.detach().cpu().numpy()

    def transpose(self, values):
        return values.mT if values.dim() >= 2 else values


#: name -> (module to import, adapter class).  NumPy needs no import.
_OPTIONAL = {
    "cupy": CupyNamespace,
    "torch": TorchNamespace,
}

_NUMPY = NumpyNamespace()
_RESOLVED: dict[str, ArrayNamespace] = {}


def available_namespaces() -> tuple[str, ...]:
    """Names that would resolve right now (``numpy`` plus importable extras)."""
    names = ["numpy"]
    for name in _OPTIONAL:
        if importlib.util.find_spec(name) is not None:
            names.append(name)
    return tuple(names)


def resolve_namespace(name: Optional[str] = None) -> ArrayNamespace:
    """Resolve an :class:`ArrayNamespace` by name.

    ``None`` reads the ``REPRO_ARRAY_API`` environment variable and
    falls back to ``"numpy"``.  Optional namespaces are imported on
    first use and cached; a missing module raises
    :class:`~repro.exceptions.ParameterError` naming the pip extra.
    """
    if name is None:
        name = os.environ.get(ARRAY_API_ENV, "numpy") or "numpy"
    if name == "numpy":
        return _NUMPY
    cached = _RESOLVED.get(name)
    if cached is not None:
        return cached
    adapter = _OPTIONAL.get(name)
    if adapter is None:
        known = ("numpy",) + tuple(_OPTIONAL)
        raise ParameterError(
            f"unknown array namespace {name!r}; expected one of {known}"
        )
    try:
        module = importlib.import_module(name)
    except ImportError as exc:
        raise ParameterError(
            f"array namespace {name!r} requested but the {name!r} package "
            f"is not installed; install the optional extra "
            f"(pip install repro[{name}]) or unset {ARRAY_API_ENV}"
        ) from exc
    namespace = adapter(module)
    _RESOLVED[name] = namespace
    return namespace
