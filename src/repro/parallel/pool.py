"""Worker-pool lifecycle for the sharded sketching engine.

:class:`WorkerPool` is a thin, typed wrapper over
:class:`concurrent.futures.ProcessPoolExecutor` that fixes the three
decisions the rest of :mod:`repro.parallel` relies on:

* **Start method** — ``fork`` when the platform offers it (cheap, and the
  child inherits the already-imported library), otherwise ``spawn``.
  Shard *results* travel back as plain arrays + scalars, so either start
  method yields identical bytes.
* **Backend pinning** — every worker runs an initializer that activates
  the same kernel backend as the coordinator (or an explicit override),
  so per-shard counters are computed by the same code path that a
  sequential scan would use.
* **Inline fallback** — ``workers=0`` degrades to synchronous in-process
  execution with the exact same API.  Tests use this to prove that the
  process boundary itself adds nothing: inline and multiprocess runs of
  the same shard plan produce bit-identical merged sketches.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import resource_tracker
from typing import Callable, Iterable, Optional

from ..errors import ConfigurationError
from ..kernels import backend_name, set_backend

__all__ = ["WorkerPool", "available_cpus"]


def available_cpus() -> int:
    """CPUs usable by this process (affinity-aware where supported)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _pick_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _initialize_worker(backend: str) -> None:
    """Runs once in every worker process: pin the kernel backend."""
    set_backend(backend)


class _InlineFuture:
    """Synchronous stand-in for a Future (``workers=0`` fallback)."""

    __slots__ = ("_value", "_error")

    def __init__(self, fn, args, kwargs):
        self._value = None
        self._error = None
        try:
            self._value = fn(*args, **kwargs)
        except BaseException as exc:  # noqa: BLE001 - mirrors Future semantics
            self._error = exc

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value

    def done(self) -> bool:
        return True  # computed eagerly at submit time

    def cancel(self) -> bool:
        return False  # already ran; mirrors Future semantics


class WorkerPool:
    """A fixed-size pool of sketching workers.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``0`` runs tasks inline in the
        calling process (deterministic fallback used heavily in tests);
        ``None`` uses :func:`available_cpus`.
    backend:
        Kernel backend name pinned in every worker.  Defaults to the
        coordinator's currently active backend.
    """

    __slots__ = ("_workers", "_backend", "_executor", "_revivals")

    def __init__(self, workers: Optional[int] = None, *, backend: Optional[str] = None):
        if workers is None:
            workers = available_cpus()
        if workers < 0:
            raise ConfigurationError(f"workers must be >= 0, got {workers}")
        self._workers = int(workers)
        self._backend = backend_name() if backend is None else backend
        self._executor = None
        self._revivals = 0
        if self._workers > 0:
            self._executor = self._make_executor()

    def _make_executor(self) -> ProcessPoolExecutor:
        # Start this process's resource tracker before any worker forks,
        # so workers inherit it: a worker that started its own tracker
        # would later unlink shared-memory segments the coordinator
        # already removed (see repro.parallel.shm).
        resource_tracker.ensure_running()
        return ProcessPoolExecutor(
            max_workers=self._workers,
            mp_context=_pick_context(),
            initializer=_initialize_worker,
            initargs=(self._backend,),
        )

    # ------------------------------------------------------------------

    @property
    def workers(self) -> int:
        """Configured worker count (0 means inline execution)."""
        return self._workers

    @property
    def backend(self) -> str:
        """Kernel backend pinned in every worker."""
        return self._backend

    @property
    def inline(self) -> bool:
        """True when tasks run synchronously in the calling process."""
        return self._executor is None

    @property
    def revivals(self) -> int:
        """Times the executor was replaced: after a crash
        (``BrokenProcessPool``) or by :meth:`recycle`."""
        return self._revivals

    def _replace_executor(self) -> None:
        self._executor.shutdown(wait=False)
        self._executor = self._make_executor()
        self._revivals += 1

    def submit(self, fn: Callable, *args, **kwargs):
        """Schedule ``fn(*args, **kwargs)``; returns a Future-like handle.

        A SIGKILLed worker breaks a ``ProcessPoolExecutor`` permanently:
        every pending future fails with ``BrokenProcessPool`` and so does
        every later ``submit``.  The failed futures are the supervisor's
        problem (they consume retry attempts like any other shard
        failure); the poisoned executor is ours — it is replaced with a
        fresh one so the retry has somewhere to run.
        """
        if self._executor is None:
            return _InlineFuture(fn, args, kwargs)
        try:
            return self._executor.submit(fn, *args, **kwargs)
        except BrokenProcessPool:
            self._replace_executor()
            return self._executor.submit(fn, *args, **kwargs)

    def recycle(self) -> None:
        """Kill every worker process and start a fresh executor.

        A task that is already running cannot be cancelled, and
        :meth:`close` waits for it, so a hung task abandoned by its caller
        would hold the pool until it ends.  Queued tasks are cancelled and
        running ones fail with ``BrokenProcessPool``.  Inline pools have
        nothing to kill.
        """
        if self._executor is None:
            return
        # Python before 3.14 has no public way to stop a running task
        # (3.14 adds ProcessPoolExecutor.kill()), so reach the workers
        # through the executor's private pid -> Process map.
        executor = self._executor
        processes = list((executor._processes or {}).values())
        manager = executor._executor_manager_thread
        # Drop the queued tasks before the kill breaks the executor, and
        # keep it alive until its manager thread has done so: a broken
        # executor fails every queued future, and on Python 3.11 its
        # manager thread dies at one the caller already cancelled, leaving
        # the rest unresolved and the call queue's feeder thread unjoined.
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            process.kill()
        if manager is not None:
            manager.join()
        self._executor = self._make_executor()
        self._revivals += 1

    def map(self, fn: Callable, items: Iterable) -> list:
        """Apply *fn* to every item, preserving input order in the result."""
        futures = [self.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        """Shut the pool down, waiting for in-flight tasks."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
            self._workers = 0

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        mode = "inline" if self.inline else "processes"
        return f"WorkerPool(workers={self._workers}, backend={self._backend!r}, mode={mode})"
