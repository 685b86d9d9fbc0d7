"""Composable dataplane: sources → operators → sinks with backpressure.

One scan loop for every workload.  Build a :class:`Pipeline` from
pluggable stages instead of hand-rolling ingest::

    from repro.dataplane import FileSource, Pipeline, SketcherSink

    # Survivors are weighted by 1/p: unbiased while the governor retunes p.
    sketcher = AdaptiveSheddingSketcher(FagmsSketch(4096, seed=1), seed=7)
    pipeline = Pipeline(
        FileSource("stream.rprs", chunk_size=8192),
        sinks=[SketcherSink(sketcher)],
        governor=LoadGovernor(2e-6),
        observer=observer,
    )
    result = pipeline.run()
    f2 = sketcher.self_join_size()

A raw sketch behind a fixed-rate :class:`ShedOperator` is unbiased through
the shed draw instead: ``estimate_self_join_size(sketch, shed.shedder.info())``.

Every stage rides the library's existing seams — sealed
:class:`~repro.resilience.runtime.ChunkEnvelope` cursors (exactly-once),
:class:`~repro.resilience.chaos.ChaosInjector` fault points at the
delivery boundary, ``observer=`` spans/metrics under ``dataplane.*`` —
and a file-backed pipeline is bit-identical to the equivalent
:func:`~repro.engine.scan.run_lockstep_scan`.  See ``docs/DATAPLANE.md``.
"""

from .operators import (
    EngineOperator,
    Operator,
    ShedOperator,
    SketchUpdateOperator,
)
from .pipeline import Pipeline, PipelineResult
from .queue import CLOSED, BoundedQueue, QueueAborted
from .sinks import (
    CallbackSink,
    CheckpointSink,
    CollectSink,
    RegistrySink,
    RuntimeSink,
    Sink,
    SketcherSink,
)
from .sources import (
    FileSource,
    IterableSource,
    SocketSource,
    Source,
    send_frames,
)

__all__ = [
    "Pipeline",
    "PipelineResult",
    "BoundedQueue",
    "CLOSED",
    "QueueAborted",
    "Operator",
    "EngineOperator",
    "ShedOperator",
    "SketchUpdateOperator",
    "Sink",
    "CallbackSink",
    "CheckpointSink",
    "CollectSink",
    "RegistrySink",
    "RuntimeSink",
    "SketcherSink",
    "Source",
    "FileSource",
    "IterableSource",
    "SocketSource",
    "send_frames",
]
