"""Per-shard execution: the function that runs inside each pool worker.

A shard travels to its worker as a :class:`ShardTask` — plain data only
(segment descriptors, serialized sketch header, rate, and the *spawned*
seed-sequence coordinates for this shard's shedder), so the task pickles
cheaply and the worker reconstructs everything deterministically.  The
worker drives a :class:`~repro.resilience.runtime.StreamRuntime` over the
shard's chunks (envelope sealing, CRC checks, per-chunk shedding).  A
shard's result depends only on its keys and its seed, so a killed
worker's shard simply runs again from its first chunk and returns the
same counters, bit for bit; the chaos harness
(:class:`~repro.resilience.chaos.ChaosShardWorker`) wraps
:func:`run_shard` to test exactly that.

Transport
---------
Keys and counters always travel through :class:`~.shm.SharedBlock`
segments, for inline and process pools alike.  ``shm_keys``/``keys_range``
locate the shard's slice of one shared key block, and ``shm_counters``
names a counter block in which slot ``slot`` belongs to this dispatch
alone.  The worker attaches both, points its sketch's counter storage
*directly at the slot* (:meth:`~repro.sketches.base.Sketch._bind_state`),
sketches in place, and returns a :class:`ShardResult` with
``counters=None`` plus the shard's sample accounting (seen/kept/rate),
which the coordinator aggregates into per-shard
:class:`~repro.sampling.base.SampleInfo` records for the
combined-estimator correction.  Neither keys nor counters pass through
the multiprocessing pipe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..observability.metrics import MetricsSnapshot
from ..observability.observer import as_observer, worker_observer
from ..resilience.runtime import StreamRuntime, envelope_stream
from ..sampling.base import SampleInfo
from ..sketches.serialization import build_sketch
from ..streams.base import iter_chunks
from .shm import SharedBlock

__all__ = [
    "ShardTask",
    "ShardResult",
    "run_dispatch",
    "run_shard",
    "PartialUpdateTask",
    "run_partial_update",
]


@dataclass(frozen=True)
class ShardTask:
    """Everything one worker needs to sketch one shard, as plain data.

    ``shm_keys``/``keys_range`` locate the shard's input slice of the
    shared key block, and ``shm_counters``/``slot`` the dispatch's own
    output slot of the counter block; the descriptors are plain
    :attr:`~.shm.SharedBlock.descriptor` tuples.  Every ``(shard,
    attempt)`` gets its own slot, so a retry never writes where an
    earlier attempt of the shard may still be writing.

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

    ``attempt`` is the supervisor's per-shard dispatch ordinal (0 for
    the first launch, 1 for the first retry, ...).  The shard's
    *work* never depends on it — results stay bit-identical across
    attempts — but the chaos harness keys fault plans on it.

    ``shm_heartbeat`` names a shared int64 heartbeat block (process pools
    with a deadline only), whose slot ``slot`` belongs to this dispatch.
    It reads 0 while the dispatch waits for a worker; :func:`run_dispatch`
    increments it once when a worker starts the dispatch and
    :func:`run_shard` once per delivered envelope.  The supervisor reads
    it to tell a hung worker from a slow or queued one.
    """

    index: int
    header: dict
    shm_keys: tuple
    keys_range: tuple
    shm_counters: tuple
    slot: int
    p: float = 1.0
    seed_entropy: Optional[int] = None
    seed_spawn_key: tuple = ()
    chunk_size: int = 4096
    observe: bool = False
    trace_parent: tuple = ()
    attempt: int = 0
    shm_heartbeat: tuple = ()


@dataclass(frozen=True)
class ShardResult:
    """One shard's sketch state plus its sampling ledger.

    ``metrics``/``spans`` carry the worker observer's frozen
    observations when the task asked for them (``observe=True``); the
    coordinator absorbs them in fixed shard order.

    A worker returns ``counters=None``: the counters live in its slot of
    the shared counter block, and the coordinator copies the winning
    slot into this field before exposing results.
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


def _heartbeat_stream(envelopes, beats: np.ndarray, slot: int):
    """Tick the dispatch's heartbeat slot once per delivered envelope."""
    for envelope in envelopes:
        beats[slot] += 1
        yield envelope


def run_dispatch(worker, task: ShardTask):
    """Mark *task*'s heartbeat slot started, then run ``worker(task)``.

    Runs in the pool worker, before *worker* — a chaos worker's ``hang``
    sleeps inside it, so a hung dispatch has started and its deadline
    runs, while one still queued behind busy workers reads 0.
    """
    if task.shm_heartbeat:
        block = SharedBlock.attach(task.shm_heartbeat)
        try:
            block.array[task.slot] += 1
        finally:
            block.close()
    return worker(task)


def run_shard(task: ShardTask) -> ShardResult:
    """Sketch one shard end to end; runs inside a pool worker.

    Every run starts from the shard's first chunk with a fresh sketch and
    a shedder rebuilt from the spawned seed, so running the same task
    again (a retry) returns the same counters and ledger.
    """
    observer = (
        worker_observer(task.index, task.trace_parent) if task.observe else None
    )
    obs = as_observer(observer)
    key_block = SharedBlock.attach(task.shm_keys)
    counter_block = heartbeat_block = None
    try:
        start, stop = task.keys_range
        keys = key_block.array[start:stop]
        runtime = StreamRuntime(
            build_sketch(task.header),
            p=task.p,
            seed=_shard_seed(task),
            observer=observer,
        )
        counter_block = SharedBlock.attach(task.shm_counters)
        # Point the sketch's storage at this dispatch's slot: updates land
        # in the transport buffer directly.
        runtime.sketch._bind_state(counter_block.array[task.slot])
        envelopes = envelope_stream(iter_chunks(keys, task.chunk_size))
        if task.shm_heartbeat:
            heartbeat_block = SharedBlock.attach(task.shm_heartbeat)
            envelopes = _heartbeat_stream(
                envelopes, heartbeat_block.array, task.slot
            )
        with obs.span("worker.shard", index=task.index, rows=int(keys.size)):
            runtime.run(envelopes)
        state = runtime.sketch._state()
        runtime.sketch._adopt_state(np.empty(state.shape, state.dtype))
        snapshot = obs.export() if observer is not None else None
        return ShardResult(
            index=task.index,
            counters=None,
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

    ``shm_keys``/``keys_range`` locate the input slice of the shared key
    block and ``shm_counters`` names the counter block whose slot
    ``index`` receives this task's output.
    """

    index: int
    header: dict
    shm_keys: tuple
    keys_range: tuple
    shm_counters: tuple


def run_partial_update(task: PartialUpdateTask) -> None:
    """Sketch one key range without shedding, into the task's slot."""
    sketch = build_sketch(task.header)
    key_block = SharedBlock.attach(task.shm_keys)
    counter_block = None
    try:
        start, stop = task.keys_range
        keys = key_block.array[start:stop]
        counter_block = SharedBlock.attach(task.shm_counters)
        # _bind_state (not _adopt_state): copying the fresh sketch's
        # zeros in also re-zeroes a slot a resubmitted task inherits.
        sketch._bind_state(counter_block.array[task.index])
        if keys.size:
            sketch.update(keys)
        state = sketch._state()
        sketch._adopt_state(np.empty(state.shape, state.dtype))
    finally:
        keys = state = None  # noqa: F841 - drop shm views before unmapping
        for block in (key_block, counter_block):
            if block is not None:
                block.close()
