"""Shared-memory transport blocks for the sharded sketching engine.

:class:`SharedBlock` is the one way shard keys and counters travel, for
inline and process pools alike: the coordinator allocates one key block
and one counter block up front (a slot per dispatch), workers attach by
name and read/write numpy views in place, and only tiny descriptors
(name, shape, dtype string) travel through the pipe.  A fresh block reads
zero without being filled, so tmpfs allocates only the pages a worker
writes.

Lifecycle contract (tested in ``tests/parallel/test_shm.py``):

* the **coordinator owns** every block it creates and destroys it in a
  ``finally`` — normal completion, worker crash, and
  :class:`~repro.errors.RetryExhaustedError` all leave ``/dev/shm`` clean;
* **workers only attach**: on Python >= 3.13 :meth:`SharedBlock.attach`
  passes ``track=False`` so the attach has no resource-tracker side
  effects at all.  Older interpreters register attached segments too,
  but pool workers share the coordinator's tracker process
  (:class:`~repro.parallel.pool.WorkerPool` starts it before any worker
  forks, so fork inherits its pipe; spawn is handed the fd), so the
  re-registration is a set-level no-op there — crucially, the attach
  must *not* unregister, or it would erase the coordinator's own
  registration from the shared cache;
* ``close()`` tolerates live exported views (numpy arrays still holding
  the buffer raise :class:`BufferError` on ``memoryview.release``); the
  segment's backing file is removed by ``unlink()`` regardless, so a
  stray view delays memory reclamation but never leaks a name.

Names come from the stdlib's own allocator (``SharedMemory(create=True)``
with no explicit name), so block identity never depends on any ambient
entropy source.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigurationError

__all__ = ["SharedBlock"]


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without stealing its lifetime.

    Python >= 3.13 supports ``track=False``; older interpreters register
    the attach with the resource tracker, which pool workers share with
    the coordinator — the registration lands in the same cache set the
    coordinator's ``create`` already populated, so it is a no-op, and the
    coordinator's ``unlink`` remains the single point that unregisters.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class SharedBlock:
    """A named shared-memory segment viewed as one numpy array.

    Build with :meth:`create` (coordinator side — owns the segment and
    must eventually call :meth:`destroy`) or :meth:`attach` (worker side —
    must call :meth:`close` when done).  The picklable identity is
    :attr:`descriptor`, a plain ``(name, shape, dtype)`` tuple.
    """

    __slots__ = ("_segment", "_shape", "_dtype", "_owner", "_closed", "_unlinked")

    def __init__(self, segment, shape, dtype, owner: bool) -> None:
        self._segment = segment
        self._shape = tuple(int(dim) for dim in shape)
        self._dtype = np.dtype(dtype)
        self._owner = owner
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------

    @classmethod
    def create(cls, shape, dtype) -> "SharedBlock":
        """Allocate a block (the caller becomes its owner).

        A fresh segment reads zero (POSIX ``ftruncate`` zero-fills a new
        object; Windows pagefile mappings start zeroed), so nothing fills
        it and pages nobody writes are never allocated.
        """
        shape = tuple(int(dim) for dim in np.atleast_1d(np.asarray(shape, dtype=np.int64)))
        if any(dim < 0 for dim in shape):
            raise ConfigurationError(f"block shape must be non-negative, got {shape}")
        dtype = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape, dtype=np.int64)) * dtype.itemsize)
        segment = shared_memory.SharedMemory(create=True, size=nbytes)
        return cls(segment, shape, dtype, owner=True)

    @classmethod
    def attach(cls, descriptor) -> "SharedBlock":
        """Open an existing block from its :attr:`descriptor` tuple."""
        name, shape, dtype = descriptor
        return cls(_attach_segment(name), shape, dtype, owner=False)

    # ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The segment's system-wide name."""
        return self._segment.name

    @property
    def descriptor(self) -> tuple:
        """Plain-data identity ``(name, shape, dtype_str)`` for task pickling."""
        return (self._segment.name, self._shape, self._dtype.str)

    @property
    def array(self) -> np.ndarray:
        """The live numpy view over the whole segment."""
        if self._closed:
            raise ConfigurationError(f"shared block {self.name!r} is closed")
        return np.ndarray(self._shape, dtype=self._dtype, buffer=self._segment.buf)

    @property
    def nbytes(self) -> int:
        """Bytes of payload the block carries."""
        return int(np.prod(self._shape, dtype=np.int64)) * self._dtype.itemsize

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping; safe to call twice.

        A numpy view that outlives its block keeps the exported buffer
        alive; ``memoryview.release`` then raises :class:`BufferError`.
        The mapping is reclaimed when the view dies, so the error is
        swallowed — the unlink (the part that can actually leak) is the
        owner's job and never depends on close succeeding.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - depends on caller's views
            pass

    def unlink(self) -> None:
        """Remove the segment's backing name (owner side); idempotent.

        Teardown runs in ``finally`` blocks, usually while the original
        failure is propagating — so a second ``unlink`` (crashed
        coordinator re-running cleanup, resource tracker got there
        first, the name already gone from ``/dev/shm``) must be a no-op,
        never a fresh ``FileNotFoundError`` that masks the real error.
        """
        if self._unlinked:
            return
        self._unlinked = True
        try:
            self._segment.unlink()
        except FileNotFoundError:  # already removed out from under us
            pass

    def destroy(self) -> None:
        """Owner teardown: close the mapping and unlink the name.

        Idempotent, and the unlink (the part that can actually leak a
        ``/dev/shm`` name) runs even if closing the local mapping fails.
        """
        try:
            self.close()
        finally:
            if self._owner:
                self.unlink()

    def __enter__(self) -> "SharedBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.destroy() if self._owner else self.close()

    def __reduce__(self):
        raise TypeError(
            "SharedBlock is not picklable; ship block.descriptor and "
            "SharedBlock.attach() it in the worker"
        )

    def __repr__(self) -> str:
        role = "owner" if self._owner else "attached"
        return (
            f"SharedBlock(name={self.name!r}, shape={self._shape}, "
            f"dtype={self._dtype.name}, {role})"
        )
