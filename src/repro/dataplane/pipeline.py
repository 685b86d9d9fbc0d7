"""The pipeline: one composable scan loop for every workload.

:class:`Pipeline` ties a :class:`~repro.dataplane.sources.Source`, a
chain of :class:`~repro.dataplane.operators.Operator` stages, and a list
of :class:`~repro.dataplane.sinks.Sink` targets into one ingest loop;
:meth:`Pipeline._deliver` is the only place the chain runs.

Semantics:

* **Exactly-once head cursor** — envelopes are verified once, at the
  head: duplicates (sequence behind the cursor) are skipped *before any
  stateful operator runs*, so a post-recovery replay cannot advance a
  shedder's RNG twice; gaps and count/CRC failures raise
  :class:`~repro.errors.StreamIntegrityError`.  An envelope whose
  operator or sink raised resumes, on a re-run, after the operators
  that completed (see :meth:`Pipeline.run`).  Faults are accounted
  under ``dataplane.chunks.*``.
* **Bounded-queue backpressure** — with ``queue_depth > 0`` the source
  runs on a producer thread feeding a
  :class:`~repro.dataplane.queue.BoundedQueue`; a slow sink therefore
  stalls the source at a bounded depth instead of buffering the stream.
  ``queue_depth=0`` runs everything synchronously on the caller's
  thread (deterministic, zero threading overhead — what
  :meth:`StreamRuntime.run` uses).
* **Governor wiring** — give the pipeline a
  :class:`~repro.resilience.governor.LoadGovernor` and it retunes the
  first stage exposing ``rate`` / ``set_rate`` / ``last_kept`` (a
  :class:`~repro.dataplane.sinks.SketcherSink` over an
  :class:`~repro.resilience.adaptive.AdaptiveSheddingSketcher`, whose
  weighted survivors stay unbiased across rate changes) from each
  envelope's measured cost.
* **Seams for free** — a :class:`~repro.resilience.chaos.ChaosInjector`
  wraps the source, and an :class:`~repro.observability.Observer`
  receives ``dataplane.stage.*`` metrics and the ``dataplane.run``
  span, end-to-end.
* **One flush** — when the source is exhausted, each sink's ``flush``
  runs exactly once, in list order, after its last envelope.

Bit-identity: integer sketch updates are exact, shed stages at
``p = 1`` consume no randomness, and duplicates never reach operators —
so a file-backed pipeline produces counters bit-identical to the
equivalent :func:`~repro.engine.scan.run_lockstep_scan` (asserted in
``tests/dataplane``).  A durable engine scan is ``FileSource`` →
``EngineOperator`` → ``CheckpointSink``; ``docs/DATAPLANE.md`` has its
resume recipe.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from ..errors import ConfigurationError, StreamIntegrityError
from ..observability.observer import Observer, as_observer
from ..resilience.clock import DEFAULT_CLOCK, Clock
from ..resilience.governor import LoadGovernor
from ..resilience.runtime import ChunkEnvelope, verify_payload
from .operators import Operator
from .queue import CLOSED, BoundedQueue, QueueAborted
from .sources import Source

__all__ = ["Pipeline", "PipelineResult"]


class _Failure:
    """Producer-side exception, shipped through the queue to the caller."""

    __slots__ = ("error",)

    def __init__(self, error: BaseException) -> None:
        self.error = error


def _retunable(stage) -> bool:
    """True when *stage* exposes the governor's retuning contract."""
    return all(hasattr(stage, attr) for attr in ("rate", "set_rate", "last_kept"))


@dataclass
class PipelineResult:
    """Summary of one :meth:`Pipeline.run` (counters, not estimates)."""

    #: Envelopes accepted through the head cursor this run.
    envelopes: int
    #: Tuples that arrived in accepted envelopes.
    tuples_in: int
    #: Tuples delivered to sinks after the operator chain.
    tuples_out: int
    #: Re-delivered envelopes skipped by the head cursor.
    duplicates: int
    #: Governor rate changes applied.
    retunes: int
    #: Deepest the hand-off queue got (0 in synchronous mode).
    max_queue_depth: int
    #: EWMA seconds the source spent blocked on backpressure (or None).
    queue_put_wait: Optional[float]
    #: EWMA seconds the consumer spent waiting for the source (or None).
    queue_get_wait: Optional[float]


class Pipeline:
    """Source → operators → sinks with backpressure and exactly-once.

    Parameters
    ----------
    source:
        The stream head (any :class:`~repro.dataplane.sources.Source`).
    *operators:
        Transform chain, applied in order to every verified envelope.
    sinks:
        Delivery targets (each envelope goes to every sink, in order;
        each sink is flushed once, in order, at end of stream).
    queue_depth:
        Capacity of the producer/consumer hand-off queue — the
        backpressure bound.  ``0`` disables the producer thread and runs
        the source synchronously.
    governor:
        Optional :class:`~repro.resilience.governor.LoadGovernor`
        retuning the *retune* stage from measured per-envelope cost.
    retune:
        The stage the governor controls; default: the first operator or
        sink exposing ``rate``/``set_rate``/``last_kept``.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosInjector` wrapped
        around the source (fault injection at the delivery boundary).
    clock:
        Shared :data:`~repro.resilience.clock.Clock` for stage timing
        and queue-wait accounting (injectable for deterministic tests).
    observer:
        Optional :class:`~repro.observability.Observer` receiving
        ``dataplane.*`` metrics and the ``dataplane.run`` span.
    start:
        Initial head-cursor position (resume support).
    """

    def __init__(
        self,
        source: Source,
        *operators: Operator,
        sinks: Sequence = (),
        queue_depth: int = 8,
        governor: Optional[LoadGovernor] = None,
        retune=None,
        chaos=None,
        clock: Clock = DEFAULT_CLOCK,
        observer: Optional[Observer] = None,
        start: int = 0,
    ) -> None:
        if queue_depth < 0:
            raise ConfigurationError(
                f"queue_depth must be >= 0, got {queue_depth}"
            )
        if start < 0:
            raise ConfigurationError(f"start must be >= 0, got {start}")
        self.source = source
        self.operators: Sequence[Operator] = tuple(operators)
        self.sinks: Sequence = tuple(sinks)
        self.queue_depth = int(queue_depth)
        self.governor = governor
        self.chaos = chaos
        self.clock = clock
        self.observer = as_observer(observer)
        self.position = int(start)
        self.duplicates = 0
        self.tuples_in = 0
        self.tuples_out = 0
        self.envelopes_accepted = 0
        self.retunes = 0
        self.last_queue: Optional[BoundedQueue] = None
        # (sequence, crc32, operators completed, their output) of the
        # envelope whose delivery raised, until a re-run completes it.
        self._failed: Optional[tuple] = None
        if retune is None:
            for stage in (*self.operators, *self.sinks):
                if _retunable(stage):
                    retune = stage
                    break
        elif not _retunable(retune):
            raise ConfigurationError(
                f"retune stage {retune!r} lacks rate/set_rate/last_kept"
            )
        self.retune = retune
        if governor is not None and retune is None:
            raise ConfigurationError(
                "a governed pipeline needs a retunable stage (a SketcherSink "
                "over an AdaptiveSheddingSketcher, ...); none found"
            )
        # Sink-only chains whose sinks all run their own cursor (e.g. a
        # StreamRuntime) delegate verification instead of doubling it.
        self._delegate_cursor = (
            not self.operators
            and bool(self.sinks)
            and all(getattr(sink, "self_verifying", False) for sink in self.sinks)
        )

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def _stream(self) -> Iterable[ChunkEnvelope]:
        envelopes = self.source.envelopes()
        if self.chaos is not None:
            envelopes = self.chaos.wrap(envelopes)
        return envelopes

    def _deliver(self, envelope: ChunkEnvelope) -> None:
        """Verify one envelope at the head, run the chain, feed the sinks."""
        obs = self.observer
        if self._delegate_cursor:
            for sink in self.sinks:
                sink.accept(envelope)
            self.envelopes_accepted += 1
            self.tuples_in += int(envelope.count)
            self.tuples_out += int(envelope.count)
            return
        if envelope.sequence < self.position:
            self.duplicates += 1
            obs.counter("dataplane.chunks.duplicate").inc()
            return
        if envelope.sequence > self.position:
            obs.counter("dataplane.chunks.rejected", reason="gap").inc()
            raise StreamIntegrityError(
                f"stream gap: expected chunk {self.position}, "
                f"received chunk {envelope.sequence}"
            )
        keys = verify_payload(
            envelope,
            lambda reason: obs.counter(
                "dataplane.chunks.rejected", reason=reason
            ).inc(),
        )
        started = self.clock()
        stage, current = 0, envelope
        if self._failed is not None:
            sequence, crc32, stage, current = self._failed
            if (sequence, crc32) != (envelope.sequence, envelope.crc32):
                obs.counter("dataplane.chunks.rejected", reason="replay").inc()
                raise StreamIntegrityError(
                    f"chunk {envelope.sequence} was re-delivered with another "
                    "payload than the one whose delivery failed"
                )
        try:
            for operator in self.operators[stage:]:
                stage_start = self.clock()
                produced = operator.process(current)
                if (
                    not isinstance(produced, ChunkEnvelope)
                    or produced.sequence != envelope.sequence
                ):
                    got = (
                        f"chunk {produced.sequence}"
                        if isinstance(produced, ChunkEnvelope)
                        else type(produced).__name__
                    )
                    raise StreamIntegrityError(
                        f"operator stage {stage} ({operator.name!r}) returned "
                        f"{got} for chunk {envelope.sequence}; an operator "
                        "returns one envelope with the sequence it received"
                    )
                current = produced
                stage += 1
                if obs.enabled:
                    obs.histogram(
                        "dataplane.stage.seconds", stage=operator.name
                    ).observe(self.clock() - stage_start)
                    obs.counter(
                        "dataplane.stage.envelopes", stage=operator.name
                    ).inc()
                    obs.counter(
                        "dataplane.stage.tuples", stage=operator.name
                    ).inc(int(current.count))
            for sink in self.sinks:
                stage_start = self.clock()
                sink.accept(current)
                if obs.enabled:
                    obs.histogram(
                        "dataplane.stage.seconds", stage=sink.name
                    ).observe(self.clock() - stage_start)
                    obs.counter("dataplane.stage.envelopes", stage=sink.name).inc()
            delivered = int(current.count)
            elapsed = self.clock() - started
            if self.governor is not None:
                proposal = self.governor.propose(
                    self.retune.rate, int(self.retune.last_kept), elapsed
                )
                if proposal is not None:
                    self.retune.set_rate(proposal)
                    self.retunes += 1
                    obs.counter("dataplane.rate.retunes").inc()
        except BaseException:
            # Keep what the completed operators produced: a re-run of this
            # sequence resumes after them instead of applying them twice.
            self._failed = (envelope.sequence, envelope.crc32, stage, current)
            raise
        self._failed = None
        self.position += 1
        self.envelopes_accepted += 1
        self.tuples_in += int(keys.size)
        self.tuples_out += delivered
        obs.counter("dataplane.chunks.accepted").inc()
        obs.counter("dataplane.tuples.seen").inc(int(keys.size))
        obs.counter("dataplane.tuples.delivered").inc(delivered)
        obs.histogram("dataplane.chunk.seconds").observe(elapsed)

    def _run_threaded(self) -> None:
        obs = self.observer
        queue = BoundedQueue(self.queue_depth, clock=self.clock)
        self.last_queue = queue

        def produce() -> None:
            try:
                for envelope in self._stream():
                    queue.put(envelope)
            except QueueAborted:
                return
            except BaseException as error:  # shipped to the caller's thread
                try:
                    queue.put(_Failure(error))
                except QueueAborted:
                    return
            finally:
                queue.close()

        producer = threading.Thread(
            target=produce, name="dataplane-source", daemon=True
        )
        producer.start()
        try:
            while True:
                item = queue.get()
                if item is CLOSED:
                    break
                if isinstance(item, _Failure):
                    raise item.error
                if obs.enabled:
                    obs.gauge("dataplane.queue.depth").set(queue.depth)
                self._deliver(item)
        except BaseException:
            # No join: a producer parked inside the source exits on its
            # next put into the aborted queue.
            queue.abort()
            raise
        else:
            producer.join()
        finally:
            wait = queue.get_wait.value
            if obs.enabled and wait is not None:
                obs.histogram("dataplane.queue.wait_seconds").observe(wait)

    def run(self) -> PipelineResult:
        """Drive the source to exhaustion; returns this run's summary.

        Re-running after a fault resumes from the retained head cursor:
        replayed prefixes are skipped as duplicates.  The envelope whose
        delivery raised resumes at the first operator that did not
        complete, and each sink's own cursor skips it where it was
        already applied, so no stage applies it twice and the re-run is
        bit-identical to a clean run.
        """
        before_envelopes = self.envelopes_accepted
        before_in = self.tuples_in
        before_out = self.tuples_out
        before_dup = self.duplicates
        before_retunes = self.retunes
        self.last_queue = None
        with self.observer.span(
            "dataplane.run",
            operators=len(self.operators),
            sinks=len(self.sinks),
            queue_depth=self.queue_depth,
        ):
            if self.queue_depth == 0:
                for envelope in self._stream():
                    self._deliver(envelope)
            else:
                self._run_threaded()
            for sink in self.sinks:
                sink.flush()
        queue = self.last_queue
        return PipelineResult(
            envelopes=self.envelopes_accepted - before_envelopes,
            tuples_in=self.tuples_in - before_in,
            tuples_out=self.tuples_out - before_out,
            duplicates=self.duplicates - before_dup,
            retunes=self.retunes - before_retunes,
            max_queue_depth=0 if queue is None else queue.high_watermark,
            queue_put_wait=None if queue is None else queue.put_wait.value,
            queue_get_wait=None if queue is None else queue.get_wait.value,
        )

    def __repr__(self) -> str:
        stages = [self.source.name]
        stages += [operator.name for operator in self.operators]
        stages += [getattr(sink, "name", "sink") for sink in self.sinks]
        return (
            f"Pipeline({' -> '.join(stages)}, queue_depth={self.queue_depth}, "
            f"position={self.position})"
        )
