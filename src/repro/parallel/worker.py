"""Per-shard execution: the function that runs inside each pool worker.

A shard travels to its worker as a :class:`ShardTask` — plain data only
(key array, serialized sketch header, rate, and the *spawned* seed-sequence
coordinates for this shard's shedder), so the task pickles cheaply and the
worker reconstructs everything deterministically.  The worker drives a
:class:`~repro.resilience.runtime.StreamRuntime` over the shard's chunks,
inheriting the whole resilience stack for free:

* each shard checkpoints through its own
  :class:`~repro.resilience.checkpoint.CheckpointManager` under
  ``<checkpoint_dir>/shard-NNN``;
* a killed worker is re-run with ``resume=True`` and recovers from its
  newest snapshot, replaying the shard from the start — already-applied
  chunks are skipped by sequence number, so the resumed counters are
  bit-identical to an uninterrupted shard run;
* the chaos harness (:mod:`repro.resilience.chaos`) plugs straight in for
  kill-a-worker tests.

Results travel back as a :class:`ShardResult` — counters plus the shard's
sample accounting (seen/kept/rate), which the coordinator aggregates into
per-shard :class:`~repro.sampling.base.SampleInfo` records for the
combined-estimator correction.

Shared-memory transport
-----------------------
When the coordinator allocates :class:`~.shm.SharedBlock` segments, tasks
carry only plain descriptors: ``shm_keys``/``keys_range`` locate the
shard's slice of one shared key block, and ``shm_counters`` names a
``(shards,) + state_shape`` counter block in which slot ``index`` is this
shard's output.  The worker attaches both, points its sketch's counter
storage *directly at the slot* (:meth:`~repro.sketches.base.Sketch._bind_state`),
sketches in place, and returns a :class:`ShardResult` with
``counters=None`` — neither the keys nor the counters ever pass through
the multiprocessing pipe.  Retried shards re-bind the slot, overwriting
whatever a crashed attempt left there, so resume stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from ..errors import CheckpointError, ConfigurationError
from ..kernels import set_backend
from ..observability.metrics import MetricsSnapshot
from ..observability.observer import Observer, as_observer, worker_observer
from ..resilience.chaos import ChaosInjector
from ..resilience.runtime import StreamRuntime, envelope_stream
from ..sampling.base import SampleInfo
from ..sketches.serialization import build_sketch
from ..streams.base import iter_chunks
from .shm import SharedBlock

__all__ = ["ShardTask", "ShardResult", "run_shard", "PartialUpdateTask", "run_partial_update"]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to sketch one shard, as plain data.

    ``seed_entropy``/``seed_spawn_key`` are the coordinates of a child
    :class:`numpy.random.SeedSequence` *already spawned by the
    coordinator* — the worker reconstructs it verbatim, so every shard's
    shedder draws from an independent, reproducible substream no matter
    which process (or how many retries) executes it.

    ``observe``/``trace_parent`` follow the same pattern for
    observability: when the coordinator carries a live observer it ships
    ``observe=True`` plus its root span's context as the plain tuple
    ``(trace_id, span_id, process)``; the worker builds a private
    :func:`~repro.observability.worker_observer` from those coordinates
    and ships its observations back inside the :class:`ShardResult`.

    With shared-memory transport ``keys`` is ``None`` and
    ``shm_keys``/``keys_range``/``shm_counters`` are the plain
    :attr:`~.shm.SharedBlock.descriptor` tuples locating the shard's
    input slice and output counter slot.  ``shm_slot`` overrides the
    output slot for *exclusive* dispatches (hedges, retries after a
    deadline abandonment) whose predecessor may still be writing slot
    ``index``; ``-1`` means "use ``index``".

    ``attempt`` is the supervisor's per-shard dispatch ordinal (0 for
    the first launch, unique across retries and hedges).  The shard's
    *work* never depends on it — results stay bit-identical across
    attempts — but the chaos harness keys fault plans on it.

    ``shm_heartbeat``/``heartbeat_slot`` name one int64 slot of a shared
    heartbeat block this dispatch increments per delivered envelope; the
    supervisor reads it to tell a hung worker from a slow one.
    """

    index: int
    keys: Optional[np.ndarray]
    header: dict
    p: float = 1.0
    seed_entropy: Optional[int] = None
    seed_spawn_key: tuple = ()
    chunk_size: int = 4096
    checkpoint_dir: Optional[str] = None
    checkpoint_every: int = 16
    resume: bool = False
    backend: Optional[str] = None
    observe: bool = False
    trace_parent: tuple = ()
    shm_keys: tuple = ()
    keys_range: tuple = ()
    shm_counters: tuple = ()
    attempt: int = 0
    shm_slot: int = -1
    shm_heartbeat: tuple = ()
    heartbeat_slot: int = -1


@dataclass(frozen=True)
class ShardResult:
    """One shard's sketch state plus its sampling ledger.

    ``metrics``/``spans`` carry the worker observer's frozen
    observations when the task asked for them (``observe=True``); the
    coordinator absorbs them in fixed shard order.

    ``counters`` is ``None`` while the counters still live in a shared
    counter block — the coordinator backfills the field from the block
    before exposing results.
    """

    index: int
    counters: Optional[np.ndarray]
    seen: int
    kept: int
    p: float
    metrics: Optional[MetricsSnapshot] = None
    spans: tuple = ()

    def info(self) -> SampleInfo:
        """This shard's sample accounting as a :class:`SampleInfo`."""
        return SampleInfo(
            scheme="bernoulli",
            population_size=self.seen,
            sample_size=self.kept,
            probability=self.p,
        )


def _shard_seed(task: ShardTask):
    if task.seed_entropy is None:
        return None
    return np.random.SeedSequence(
        task.seed_entropy, spawn_key=tuple(task.seed_spawn_key)
    )


def _shard_checkpoint_dir(task: ShardTask) -> Optional[Path]:
    if task.checkpoint_dir is None:
        return None
    return Path(task.checkpoint_dir) / f"shard-{task.index:03d}"


def _build_runtime(task: ShardTask, observer: Optional[Observer]) -> StreamRuntime:
    directory = _shard_checkpoint_dir(task)
    if task.resume:
        if directory is None:
            raise ConfigurationError(
                "cannot resume a shard that was run without a checkpoint_dir"
            )
        try:
            return StreamRuntime.recover(
                directory,
                checkpoint_every=task.checkpoint_every,
                observer=observer,
            )
        except CheckpointError:
            # Killed before the first snapshot landed — start clean.
            pass
    return StreamRuntime(
        build_sketch(task.header),
        p=task.p,
        seed=_shard_seed(task),
        checkpoint_dir=directory,
        checkpoint_every=task.checkpoint_every,
        observer=observer,
    )


def _heartbeat_stream(envelopes, beats: np.ndarray, slot: int):
    """Tick the dispatch's heartbeat slot once per delivered envelope."""
    delivered = 0
    for envelope in envelopes:
        delivered += 1
        beats[slot] = delivered
        yield envelope


def run_shard(task: ShardTask, *, injector: Optional[ChaosInjector] = None) -> ShardResult:
    """Sketch one shard end to end; runs inside a pool worker.

    With *injector* set (tests only), envelopes pass through the chaos
    harness and a :class:`~repro.resilience.chaos.SimulatedCrash` may
    escape mid-shard — exactly what a killed worker looks like to the
    coordinator, which then resubmits the task with ``resume=True``.
    """
    if task.backend is not None:
        set_backend(task.backend)
    observer = (
        worker_observer(task.index, task.trace_parent) if task.observe else None
    )
    obs = as_observer(observer)
    key_block = counter_block = heartbeat_block = None
    try:
        if task.shm_keys:
            key_block = SharedBlock.attach(task.shm_keys)
            start, stop = task.keys_range
            keys = key_block.array[start:stop]
        else:
            keys = np.asarray(task.keys, dtype=np.int64)
        runtime = _build_runtime(task, observer)
        in_place = bool(task.shm_counters)
        slot = task.shm_slot if task.shm_slot >= 0 else task.index
        if in_place:
            counter_block = SharedBlock.attach(task.shm_counters)
            # Point the sketch's storage at this dispatch's slot: updates
            # land in the transport buffer directly, and a resumed sketch
            # copies its recovered counters over whatever a crashed
            # attempt left there.
            runtime.sketch._bind_state(counter_block.array[slot])
        envelopes = envelope_stream(iter_chunks(keys, task.chunk_size))
        if injector is not None:
            envelopes = injector.wrap(envelopes)
        if task.shm_heartbeat and task.heartbeat_slot >= 0:
            heartbeat_block = SharedBlock.attach(task.shm_heartbeat)
            envelopes = _heartbeat_stream(
                envelopes, heartbeat_block.array, task.heartbeat_slot
            )
        with obs.span("worker.shard", index=task.index, rows=int(keys.size)):
            runtime.run(envelopes)
        if in_place:
            counters = None
            state = runtime.sketch._state()
            runtime.sketch._adopt_state(np.empty(state.shape, state.dtype))
        else:
            counters = np.array(runtime.sketch._state(), copy=True)
        snapshot = obs.export() if observer is not None else None
        return ShardResult(
            index=task.index,
            counters=counters,
            seen=runtime.sketcher.seen,
            kept=runtime.sketcher.kept,
            p=runtime.sketcher.rate,
            metrics=None if snapshot is None else snapshot.metrics,
            spans=() if snapshot is None else snapshot.spans,
        )
    finally:
        # Drop every view into the segments before unmapping them.
        keys = envelopes = state = None  # noqa: F841
        for block in (key_block, counter_block, heartbeat_block):
            if block is not None:
                block.close()


# ----------------------------------------------------------------------
# Lightweight path for parallel_update: no shedding, no checkpoints —
# just "sketch these keys and hand back the counters".
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class PartialUpdateTask:
    """A plain bulk-update of one key range into a fresh sketch.

    With shared-memory transport ``keys`` is ``None``;
    ``shm_keys``/``keys_range`` locate the input slice of the shared key
    block and ``shm_counters`` names the counter block whose slot
    ``index`` receives this task's output.
    """

    index: int
    keys: Optional[np.ndarray]
    header: dict
    backend: Optional[str] = None
    shm_keys: tuple = ()
    keys_range: tuple = ()
    shm_counters: tuple = ()


def run_partial_update(task: PartialUpdateTask) -> Optional[np.ndarray]:
    """Sketch one key range without shedding.

    Returns the counter array — or ``None`` with shared-memory transport,
    where the counters were written straight into the task's slot of the
    shared counter block.
    """
    if task.backend is not None:
        set_backend(task.backend)
    sketch = build_sketch(task.header)
    key_block = counter_block = None
    try:
        if task.shm_keys:
            key_block = SharedBlock.attach(task.shm_keys)
            start, stop = task.keys_range
            keys = key_block.array[start:stop]
        else:
            keys = np.asarray(task.keys, dtype=np.int64)
        in_place = bool(task.shm_counters)
        if in_place:
            counter_block = SharedBlock.attach(task.shm_counters)
            # _bind_state (not _adopt_state): copying the fresh sketch's
            # zeros in also re-zeroes a slot a resubmitted task inherits.
            sketch._bind_state(counter_block.array[task.index])
        if keys.size:
            sketch.update(keys)
        if not in_place:
            return np.array(sketch._state(), copy=True)
        state = sketch._state()
        sketch._adopt_state(np.empty(state.shape, state.dtype))
        return None
    finally:
        keys = state = None  # noqa: F841 - drop shm views before unmapping
        for block in (key_block, counter_block):
            if block is not None:
                block.close()
