"""Pipeline sinks: where verified envelopes leave the dataplane.

Sinks are the tail of a :class:`~repro.dataplane.pipeline.Pipeline`;
each envelope goes to every sink in list order, and :meth:`Sink.flush`
runs once per sink, in the same order, when the stream ends.  Every
sink keeps its own exactly-once cursor — duplicates are skipped, gaps
raise :class:`~repro.errors.StreamIntegrityError` — because a sink may
outlive one pipeline: when successive pipelines feed the same sink (a
resumed scan, or repeated passes over a file into one
:class:`CheckpointSink`), the sink's cursor, not the new pipeline's,
knows which sequences it has already applied.

Shipped sinks:

* :class:`SketcherSink` — terminate the stream in a (shedding) sketcher;
* :class:`RuntimeSink` — delegate to a full
  :class:`~repro.resilience.runtime.StreamRuntime` (its own cursor,
  checkpoints, governor);
* :class:`CheckpointSink` — periodic durable snapshots through
  :class:`~repro.resilience.checkpoint.CheckpointManager`;
* :class:`RegistrySink` — feed a serving
  :class:`~repro.serving.registry.SketchRegistry` stream, rotating a
  fresh queryable snapshot on flush;
* :class:`CollectSink` / :class:`CallbackSink` — buffer batches for
  tests, or hand each envelope to arbitrary code.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import ConfigurationError, StreamIntegrityError
from ..resilience.checkpoint import CheckpointManager
from ..resilience.runtime import ChunkEnvelope, StreamRuntime

__all__ = [
    "CallbackSink",
    "CheckpointSink",
    "CollectSink",
    "RegistrySink",
    "RuntimeSink",
    "SketcherSink",
    "Sink",
]


class Sink:
    """Base class for sinks: a per-sink exactly-once cursor + a writer.

    Subclasses implement :meth:`write`; :meth:`accept` handles the
    cursor (duplicate skip, gap detection) before delegating.  Sinks
    whose backend keeps its *own* cursor (``self_verifying = True``)
    override :meth:`accept` instead.
    """

    #: Stage label used in ``dataplane.stage.*`` metrics.
    name = "sink"
    #: True when the backend performs its own envelope verification; the
    #: pipeline then skips redundant head checks for sink-only chains.
    self_verifying = False

    def __init__(self, *, start: int = 0) -> None:
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        self.position = int(start)
        self.duplicates = 0
        self.tuples = 0

    def accept(self, envelope: ChunkEnvelope) -> int:
        """Apply one envelope exactly once; returns tuples written."""
        if envelope.sequence < self.position:
            self.duplicates += 1
            return 0
        if envelope.sequence > self.position:
            raise StreamIntegrityError(
                f"{self.name} sink gap: expected chunk {self.position}, "
                f"received chunk {envelope.sequence}"
            )
        keys = np.asarray(envelope.keys)
        self.write(keys, envelope)
        self.position += 1
        self.tuples += int(keys.size)
        return int(keys.size)

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Persist one verified batch (subclass hook)."""
        raise NotImplementedError

    def flush(self) -> None:
        """End-of-stream hook (default: nothing)."""


class CollectSink(Sink):
    """Buffer every batch in memory — the assertion-friendly test sink."""

    name = "collect"

    def __init__(self, *, start: int = 0) -> None:
        super().__init__(start=start)
        self.chunks: list = []

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Append the batch to :attr:`chunks`."""
        self.chunks.append(keys)

    def keys(self) -> np.ndarray:
        """All collected keys, concatenated in arrival order."""
        if not self.chunks:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.chunks)


class CallbackSink(Sink):
    """Hand each envelope to a callable (integration escape hatch).

    *fn* receives the sealed envelope; *on_flush*, when given, runs at
    end-of-stream.
    """

    name = "callback"

    def __init__(
        self,
        fn: Callable[[ChunkEnvelope], None],
        *,
        on_flush: Optional[Callable[[], None]] = None,
        start: int = 0,
    ) -> None:
        super().__init__(start=start)
        self.fn = fn
        self.on_flush = on_flush

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Invoke the callback with the envelope."""
        self.fn(envelope)

    def flush(self) -> None:
        """Invoke the flush callback, when configured."""
        if self.on_flush is not None:
            self.on_flush()


class SketcherSink(Sink):
    """Terminate the stream in a sketcher's ``process(keys)`` method.

    Built for :class:`~repro.resilience.adaptive.AdaptiveSheddingSketcher`:
    the sink re-exports its ``rate`` / ``set_rate`` plus ``last_kept`` so
    the pipeline's governor wiring can retune it.
    """

    name = "sketcher"

    def __init__(self, sketcher, *, start: int = 0) -> None:
        super().__init__(start=start)
        self.sketcher = sketcher
        self.kept = 0
        self.last_kept = 0

    @property
    def rate(self) -> float:
        """The sketcher's keep-probability currently in force."""
        return self.sketcher.rate

    def set_rate(self, p: float) -> None:
        """Retune the sketcher's keep-probability."""
        self.sketcher.set_rate(p)

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Shed + sketch the batch."""
        self.last_kept = int(self.sketcher.process(keys))
        self.kept += self.last_kept


class RuntimeSink(Sink):
    """Delegate every envelope to a :class:`StreamRuntime`.

    The runtime keeps its own exactly-once cursor, integrity checks,
    checkpoint cadence, and governor wiring, so this sink is
    ``self_verifying`` and the pipeline feeds it raw envelopes — the
    seam that re-bases :meth:`StreamRuntime.run` on the dataplane.
    """

    name = "runtime"
    self_verifying = True

    def __init__(self, runtime: StreamRuntime) -> None:
        super().__init__()
        self.runtime = runtime
        self.kept = 0
        self.last_kept = 0

    def accept(self, envelope: ChunkEnvelope) -> int:
        """Apply through :meth:`StreamRuntime.process` (its own cursor)."""
        self.last_kept = int(self.runtime.process(envelope))
        self.kept += self.last_kept
        self.tuples += int(np.asarray(envelope.keys).size)
        return self.last_kept

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Unused — :meth:`accept` delegates to the runtime directly."""
        raise NotImplementedError("RuntimeSink delivers via accept()")


class CheckpointSink(Sink):
    """Periodic durable snapshots of pipeline state.

    *payload* is a zero-argument callable returning ``(state, arrays)``
    — typically closing over the sketch/engine being maintained — and is
    invoked every *every* envelopes plus once on flush (when new
    envelopes arrived since the last snapshot).  Snapshots go through
    :class:`~repro.resilience.checkpoint.CheckpointManager`, so they are
    atomic, CRC-verified, and pruned to *keep*.
    """

    name = "checkpoint"

    def __init__(
        self,
        directory,
        payload: Callable[[], tuple],
        *,
        every: int = 16,
        keep: int = 2,
        start: int = 0,
    ) -> None:
        super().__init__(start=start)
        if every < 1:
            raise ConfigurationError(f"every must be >= 1, got {every}")
        self.manager = CheckpointManager(directory, keep=keep)
        self.payload = payload
        self.every = int(every)
        self.written = 0
        self._dirty = False

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Snapshot every *every* envelopes."""
        self._dirty = True
        # The cursor advances once this returns; a failed save leaves it
        # behind, so a re-run retries the save at the same position.
        if (self.position + 1) % self.every == 0:
            self.checkpoint(self.position + 1)

    def checkpoint(self, position: int):
        """Write one snapshot covering *position* envelopes; returns its path."""
        state, arrays = self.payload()
        path = self.manager.save(position=position, state=state, arrays=arrays)
        self.written += 1
        self._dirty = False
        return path

    def flush(self) -> None:
        """Final snapshot covering any tail since the last cadence hit."""
        if self._dirty:
            self.checkpoint(self.position)


class RegistrySink(Sink):
    """Feed a serving-registry stream; rotate a snapshot on flush.

    Each batch goes to :meth:`SketchRegistry.ingest`; :meth:`flush`
    calls :meth:`SketchRegistry.rotate` so queries see a fresh snapshot
    the moment the pipeline finishes (rotation on flush).  Set
    *rotate_every* to also rotate mid-stream every N envelopes, making
    partial progress queryable while the pipeline is in flight.
    """

    name = "registry"

    def __init__(
        self,
        registry,
        stream: str,
        *,
        rotate_every: Optional[int] = None,
        start: int = 0,
    ) -> None:
        super().__init__(start=start)
        if rotate_every is not None and rotate_every < 1:
            raise ConfigurationError(
                f"rotate_every must be >= 1, got {rotate_every}"
            )
        self.registry = registry
        self.stream = str(stream)
        self.rotate_every = rotate_every
        self.rotations = 0

    def write(self, keys: np.ndarray, envelope: ChunkEnvelope) -> None:
        """Ingest the batch; rotate on the mid-stream cadence if set."""
        if keys.size:
            self.registry.ingest(self.stream, keys)
        if self.rotate_every is not None and (
            (self.position + 1) % self.rotate_every == 0
        ):
            self.registry.rotate(self.stream)
            self.rotations += 1

    def flush(self) -> None:
        """Rotate a fresh queryable snapshot."""
        self.registry.rotate(self.stream)
        self.rotations += 1
