"""Fault-tolerant streaming runtime: envelopes, checkpoints, recovery.

:class:`StreamRuntime` wraps an
:class:`~repro.resilience.adaptive.AdaptiveSheddingSketcher` with the full
resilience stack:

* **Chunk envelopes** — each chunk travels as a
  :class:`ChunkEnvelope` carrying its sequence number, declared tuple
  count, and CRC32.  Truncated or bit-flipped deliveries raise
  :class:`~repro.errors.StreamIntegrityError`; re-deliveries of already
  processed chunks are skipped (exactly-once application on top of
  at-least-once delivery), which is what makes replay-based recovery
  idempotent.
* **Durable checkpoints** — every ``checkpoint_every`` chunks the full
  pipeline state (sketch header + counters, shedder RNG/skip state and
  rate ledger, governor cost model, stream cursor) is snapshotted through
  :class:`~repro.resilience.checkpoint.CheckpointManager`.
* **Recovery** — :meth:`StreamRuntime.recover` rebuilds the runtime from
  the newest intact checkpoint; replaying the stream from the beginning
  then yields counters *bit-identical* to an uninterrupted run, because
  already-applied chunks are skipped by sequence number and the shedder's
  RNG state resumes exactly where the snapshot left it.
* **Optional governor and hardener** — rate retuning and bad-record
  policies plug in per chunk; all timing flows through an injectable
  clock so tests are deterministic.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from ..errors import (
    CheckpointError,
    ConfigurationError,
    SerializationError,
    StreamIntegrityError,
)
from ..observability.observer import Observer, as_observer
from ..observability.quality import observe_shedding
from ..rng import SeedLike
from ..sketches.base import Sketch
from ..sketches.serialization import restore_sketch, sketch_header
from .adaptive import AdaptiveSheddingSketcher
from .checkpoint import CheckpointManager
from .clock import DEFAULT_CLOCK, Clock
from .governor import LoadGovernor
from .hardening import InputHardener

__all__ = [
    "ChunkEnvelope",
    "StreamRuntime",
    "envelope_stream",
    "make_envelope",
    "verify_payload",
]


@dataclass(frozen=True)
class ChunkEnvelope:
    """One chunk of the stream with enough metadata to verify delivery."""

    sequence: int
    keys: np.ndarray
    count: int
    crc32: int


def make_envelope(sequence: int, keys) -> ChunkEnvelope:
    """Seal one chunk into a :class:`ChunkEnvelope` (count + CRC32)."""
    if sequence < 0:
        raise ConfigurationError(f"sequence must be >= 0, got {sequence}")
    keys = np.asarray(keys)
    return ChunkEnvelope(
        sequence=int(sequence),
        keys=keys,
        count=int(keys.size),
        crc32=zlib.crc32(np.ascontiguousarray(keys).tobytes()),
    )


def envelope_stream(chunks: Iterable, start: int = 0) -> Iterator[ChunkEnvelope]:
    """Wrap raw chunks into sequentially numbered envelopes."""
    sequence = int(start)
    for chunk in chunks:
        yield make_envelope(sequence, chunk)
        sequence += 1


def verify_payload(
    envelope: ChunkEnvelope,
    on_reject: Optional[Callable[[str], None]] = None,
) -> np.ndarray:
    """Check an envelope's payload against its declared count and CRC32.

    Returns the verified keys array.  A truncated or bit-flipped payload
    raises :class:`~repro.errors.StreamIntegrityError`; *on_reject*, when
    given, is called first with the rejection reason (``"truncated"`` or
    ``"crc"``) so callers can account the failure under their own metric
    names.  Shared by :meth:`StreamRuntime.process` and the dataplane's
    head-of-pipeline cursor.
    """
    keys = np.asarray(envelope.keys)
    if int(keys.size) != envelope.count:
        if on_reject is not None:
            on_reject("truncated")
        raise StreamIntegrityError(
            f"chunk {envelope.sequence} truncated: declared "
            f"{envelope.count} tuples, received {keys.size}"
        )
    if zlib.crc32(np.ascontiguousarray(keys).tobytes()) != envelope.crc32:
        if on_reject is not None:
            on_reject("crc")
        raise StreamIntegrityError(
            f"chunk {envelope.sequence} failed its CRC32 payload check"
        )
    return keys


class StreamRuntime:
    """Crash-tolerant driver for one sketched stream.

    Parameters
    ----------
    sketch:
        The sketch to maintain (any type supported by
        :mod:`repro.sketches.serialization`).
    p, seed:
        Initial keep-probability and shedder seed (forwarded to
        :class:`~repro.resilience.adaptive.AdaptiveSheddingSketcher`).
    checkpoint_dir:
        Directory for durable snapshots; ``None`` disables checkpointing.
    checkpoint_every:
        Chunks between snapshots.
    keep_checkpoints:
        Snapshots retained on disk (see
        :class:`~repro.resilience.checkpoint.CheckpointManager`).
    governor:
        Optional :class:`~repro.resilience.governor.LoadGovernor`; when
        present, each chunk's measured cost feeds a rate proposal applied
        before the next chunk.
    hardener:
        Optional :class:`~repro.resilience.hardening.InputHardener`
        applied to every chunk's payload before shedding.
    clock:
        Zero-argument monotonic timer used to cost chunks (injectable for
        deterministic tests; defaults to :func:`time.perf_counter`).
    observer:
        Optional :class:`~repro.observability.Observer` receiving the
        runtime's chunk/tuple counters, shed-rate and governor
        duty-cycle gauges, latency histograms, and checkpoint spans;
        defaults to the near-free null observer.
    """

    __slots__ = (
        "sketcher",
        "governor",
        "hardener",
        "clock",
        "checkpoint_every",
        "position",
        "duplicates",
        "checkpoints_written",
        "observer",
        "_manager",
        "_source",
    )

    def __init__(
        self,
        sketch: Sketch,
        *,
        p: float = 1.0,
        seed: SeedLike = None,
        checkpoint_dir=None,
        checkpoint_every: int = 16,
        keep_checkpoints: int = 2,
        governor: Optional[LoadGovernor] = None,
        hardener: Optional[InputHardener] = None,
        clock: Clock = DEFAULT_CLOCK,
        observer: Optional[Observer] = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        self.sketcher = AdaptiveSheddingSketcher(sketch, p, seed)
        self.governor = governor
        self.hardener = hardener
        self.clock = clock
        self.observer = as_observer(observer)
        self.checkpoint_every = int(checkpoint_every)
        self.position = 0
        self.duplicates = 0
        self.checkpoints_written = 0
        self._manager = (
            None
            if checkpoint_dir is None
            else CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
        )
        self._source = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    @property
    def sketch(self) -> Sketch:
        """The sketch being maintained."""
        return self.sketcher.sketch

    @property
    def checkpoint_manager(self) -> Optional[CheckpointManager]:
        """The manager persisting snapshots, or ``None`` when disabled."""
        return self._manager

    def process(self, envelope: ChunkEnvelope) -> int:
        """Apply one envelope; returns the number of tuples sketched.

        Chunks already applied (``sequence < position``) are counted as
        duplicates and skipped.  A sequence *ahead* of the cursor means
        chunks were lost in flight and raises
        :class:`~repro.errors.StreamIntegrityError`, as does an envelope
        whose payload fails its count or CRC check.
        """
        obs = self.observer
        if envelope.sequence < self.position:
            self.duplicates += 1
            obs.counter("runtime.chunks.duplicate").inc()
            return 0
        if envelope.sequence > self.position:
            obs.counter("runtime.chunks.rejected", reason="gap").inc()
            raise StreamIntegrityError(
                f"stream gap: expected chunk {self.position}, "
                f"received chunk {envelope.sequence}"
            )
        keys = verify_payload(
            envelope,
            lambda reason: obs.counter("runtime.chunks.rejected", reason=reason).inc(),
        )
        if self.hardener is not None:
            keys = self.hardener.sanitize(keys)
        with obs.span("runtime.chunk", sequence=envelope.sequence):
            started = self.clock()
            kept = self.sketcher.process(keys)
            elapsed = self.clock() - started
            if self.governor is not None:
                proposal = self.governor.propose(self.sketcher.rate, kept, elapsed)
                if proposal is not None:
                    self.sketcher.set_rate(proposal)
                    obs.counter("runtime.rate.retunes").inc()
        obs.counter("runtime.chunks.accepted").inc()
        obs.counter("runtime.tuples.seen").inc(int(keys.size))
        obs.counter("runtime.tuples.sketched").inc(kept)
        obs.histogram("runtime.chunk.seconds").observe(elapsed)
        if obs.enabled:
            observe_shedding(
                obs,
                self.sketcher,
                self.governor,
                arrived=int(keys.size),
                elapsed=elapsed,
            )
        self.position += 1
        if self._manager is not None and self.position % self.checkpoint_every == 0:
            self.checkpoint()
        return kept

    def run(self, stream: Iterable) -> int:
        """Drive the runtime over a stream; returns total tuples sketched.

        *stream* may yield :class:`ChunkEnvelope` objects or raw key
        chunks; raw chunks are sealed on the fly with sequence numbers
        starting at 0.  A re-iterable stream (a list of chunks) replays
        from its first chunk on every call, so re-running it after a
        fault or a recovery skips the already-applied prefix.  A one-shot
        iterator (a generator) cannot replay: pass a fresh one per call.
        Handing the same one-shot iterator to a second call raises
        :class:`~repro.errors.ConfigurationError`, because numbering its
        remainder from 0 would skip fresh chunks as duplicates.

        Since the dataplane landed this is a one-stage
        :class:`~repro.dataplane.Pipeline` (synchronous mode: no queue,
        no threads) delivering into the runtime's own cursor — the same
        loop every composed pipeline uses.
        """
        # Local import: repro.dataplane builds on this module.
        from ..dataplane import IterableSource, Pipeline, RuntimeSink

        # Reusing the source keeps its one-shot guard armed across calls.
        if self._source is None or self._source.items is not stream:
            self._source = IterableSource(stream)
        sink = RuntimeSink(self)
        Pipeline(
            self._source, sinks=[sink], queue_depth=0, clock=self.clock
        ).run()
        if self._manager is not None and self.position % self.checkpoint_every != 0:
            self.checkpoint()
        return sink.kept

    # ------------------------------------------------------------------
    # Estimates (delegated)
    # ------------------------------------------------------------------

    def self_join_size(self) -> float:
        """Unbiased full-stream self-join (second moment) estimate."""
        return self.sketcher.self_join_size()

    def self_join_interval(self, confidence: float = 0.95, *, method: str = "chebyshev"):
        """Confidence interval for :meth:`self_join_size` (rate-aware)."""
        return self.sketcher.self_join_interval(confidence, method=method)

    def join_size(self, other: "StreamRuntime") -> float:
        """Unbiased join-size estimate against another runtime's stream."""
        return self.sketcher.join_size(other.sketcher)

    # ------------------------------------------------------------------
    # Checkpoint / recover
    # ------------------------------------------------------------------

    def checkpoint(self):
        """Write one durable snapshot now; returns its path.

        Raises :class:`~repro.errors.ConfigurationError` when the runtime
        was built without a checkpoint directory.
        """
        if self._manager is None:
            raise ConfigurationError(
                "this runtime has no checkpoint_dir; nothing to snapshot"
            )
        obs = self.observer
        started = self.clock()
        with obs.span("runtime.checkpoint.write", position=self.position):
            state = {
                "sketch": sketch_header(self.sketch),
                "sketcher": self.sketcher.state(),
                "duplicates": self.duplicates,
            }
            if self.governor is not None:
                state["governor"] = self.governor.state()
            path = self._manager.save(
                position=self.position,
                state=state,
                arrays={"counters": self.sketch.counters_snapshot()},
            )
        obs.histogram("runtime.checkpoint.seconds").observe(
            self.clock() - started
        )
        obs.counter("runtime.checkpoints.written").inc()
        self.checkpoints_written += 1
        return path

    @classmethod
    def recover(
        cls,
        checkpoint_dir,
        *,
        checkpoint_every: int = 16,
        keep_checkpoints: int = 2,
        governor: Optional[LoadGovernor] = None,
        hardener: Optional[InputHardener] = None,
        clock: Clock = DEFAULT_CLOCK,
        strict: bool = False,
        observer: Optional[Observer] = None,
    ) -> "StreamRuntime":
        """Rebuild a runtime from the newest intact snapshot on disk.

        The sketch is reconstructed from its serialized header and the
        checkpointed counters (checked by
        :func:`~repro.sketches.serialization.restore_sketch`), the
        shedder resumes with its exact RNG and skip state, and the stream
        cursor is restored — so replaying the stream from the start skips
        the applied prefix and continues bit-identically.  Raises
        :class:`~repro.errors.CheckpointError` when no usable snapshot
        exists (or, with ``strict=True``, on the first corrupt one), and
        when the newest snapshot holds a malformed sketch header, counters
        of the wrong shape or dtype, non-finite counters or a malformed
        shedder state.

        *observer* is attached to the recovered runtime and receives a
        ``runtime.checkpoint.restore`` span plus a
        ``runtime.recoveries`` counter increment for the recovery itself.
        """
        obs = as_observer(observer)
        manager = CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
        with obs.span("runtime.checkpoint.restore") as restore_span:
            snapshot = manager.latest(strict=strict)
            if snapshot is None:
                raise CheckpointError(
                    f"no usable checkpoint in {checkpoint_dir} "
                    f"({len(manager.corrupt_detected)} corrupt snapshot(s) detected)"
                )
            counters = snapshot.arrays.get("counters")
            if counters is None:
                raise CheckpointError(
                    f"checkpoint {snapshot.path} has no counters payload"
                )
            try:
                sketch = restore_sketch(snapshot.state.get("sketch"), counters)
            except SerializationError as error:
                raise CheckpointError(
                    f"checkpoint {snapshot.path} holds a malformed sketch: {error}"
                ) from error
            runtime = object.__new__(cls)
            runtime.sketcher = AdaptiveSheddingSketcher.restore(
                sketch, snapshot.state.get("sketcher")
            )
            runtime.governor = governor
            if governor is not None and "governor" in snapshot.state:
                governor.restore(snapshot.state["governor"])
            runtime.hardener = hardener
            runtime.clock = clock
            runtime.checkpoint_every = int(checkpoint_every)
            runtime.position = snapshot.position
            runtime.duplicates = int(snapshot.state.get("duplicates", 0))
            runtime.checkpoints_written = 0
            runtime.observer = obs
            runtime._manager = manager
            runtime._source = None
            restore_span.annotate(position=snapshot.position)
        obs.counter("runtime.recoveries").inc()
        return runtime

    def __repr__(self) -> str:
        return (
            f"StreamRuntime(position={self.position}, rate={self.sketcher.rate}, "
            f"kept={self.sketcher.kept}, duplicates={self.duplicates}, "
            f"checkpoints={self.checkpoints_written})"
        )
