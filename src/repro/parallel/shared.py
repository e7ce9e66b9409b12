"""Zero-copy array transport for the process-pool execution layer.

Workers never receive pickled series data: the parent publishes the
series once into POSIX shared memory and ships only a tiny
:class:`SharedArraySpec` (name, shape, dtype) inside each task payload.
Workers attach read-only views by name, so fanning ensemble members or
grid pairs out across N processes costs one copy of the data total
instead of one per task.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Optional

import numpy as np

__all__ = ["SharedArraySpec", "SharedArrays", "attach", "detach_all"]


@dataclass(frozen=True)
class SharedArraySpec:
    """Pickle-cheap handle to one array published in shared memory."""

    name: str
    shape: tuple
    dtype: str


class SharedArrays:
    """Parent-side registry of shared-memory blocks for one parallel run.

    Use as a context manager: every block created through :meth:`share`
    is closed *and unlinked* on exit, so an interrupted run never leaks
    ``/dev/shm`` segments.

    Examples
    --------
    >>> import numpy as np
    >>> with SharedArrays() as arena:
    ...     spec = arena.share(np.arange(4.0))
    ...     np.array_equal(attach(spec), np.arange(4.0))
    True
    """

    def __init__(self) -> None:
        self._blocks: list[shared_memory.SharedMemory] = []

    def share(self, array: np.ndarray) -> SharedArraySpec:
        """Publish *array* into a fresh shared-memory block."""
        array = np.ascontiguousarray(array)
        block = shared_memory.SharedMemory(create=True, size=max(1, array.nbytes))
        view = np.ndarray(array.shape, dtype=array.dtype, buffer=block.buf)
        view[...] = array
        self._blocks.append(block)
        return SharedArraySpec(block.name, tuple(array.shape), str(array.dtype))

    def close(self) -> None:
        """Close and unlink every block this arena created."""
        for block in self._blocks:
            try:
                block.close()
                block.unlink()
            except FileNotFoundError:  # already unlinked (double close)
                pass
        self._blocks.clear()

    def __enter__(self) -> "SharedArrays":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


#: Worker-side cache of attached blocks.  The numpy views handed out by
#: :func:`attach` borrow the block's buffer, so the SharedMemory objects
#: must stay alive until :func:`detach_all`.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}

#: Whether :func:`attach` must deregister attachments from the resource
#: tracker.  Needed only in *spawned* workers, which run their own
#: tracker process: there, the attach-time auto-registration would make
#: the worker's tracker unlink the parent-owned segment (and warn about
#: "leaked" objects) on worker exit.  *Forked* workers share the parent's
#: tracker, where the segment is legitimately registered by its creator —
#: deregistering there would strip the parent's own registration and
#: break its unlink.  The pool initializer sets this per start method.
_UNREGISTER_ON_ATTACH = False


def set_unregister_on_attach(value: bool) -> None:
    """Configure attach-time tracker deregistration (pool initializer)."""
    global _UNREGISTER_ON_ATTACH
    _UNREGISTER_ON_ATTACH = bool(value)


def attach(spec: Optional[SharedArraySpec]) -> Optional[np.ndarray]:
    """Attach to a published array by spec; returns a read-only view.

    Idempotent per process: repeated attaches to the same block (across
    the several task payloads a worker may execute) reuse one mapping.
    """
    if spec is None:
        return None
    block = _ATTACHED.get(spec.name)
    if block is None:
        block = shared_memory.SharedMemory(name=spec.name)
        if _UNREGISTER_ON_ATTACH:
            _unregister_from_tracker(block)
        _ATTACHED[spec.name] = block
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=block.buf)
    view.flags.writeable = False
    return view


def detach_all() -> None:
    """Unmap every block this process attached (worker side).

    Pool workers outlive a fan-out; the blocks of a finished fan-out are
    unlinked by the parent but stay in memory while mapped.  Views from
    :func:`attach` must no longer be in use.
    """
    for block in _ATTACHED.values():
        block.close()
    _ATTACHED.clear()


def _unregister_from_tracker(block: shared_memory.SharedMemory) -> None:
    """Restore single-owner semantics for a merely-attached block.

    On Python < 3.13 attaching registers the segment with the calling
    process's resource tracker; in a spawned worker that tracker would
    unlink the parent-owned block when the worker exits.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(block._name, "shared_memory")
    except Exception:  # pragma: no cover - tracker internals vary by version
        pass
