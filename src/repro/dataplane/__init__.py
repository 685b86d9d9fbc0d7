"""Composable dataplane: sources → operators → sinks with backpressure.

One scan loop for every workload (ROADMAP item 5).  Build a
:class:`Pipeline` from pluggable stages instead of hand-rolling ingest::

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
    FilterOperator,
    KeyPartitionOperator,
    MapOperator,
    Operator,
    ShedOperator,
    SketchUpdateOperator,
    TeeOperator,
)
from .pipeline import Branch, Pipeline, PipelineResult
from .queue import CLOSED, BoundedQueue, QueueAborted
from .sinks import (
    CallbackSink,
    CheckpointSink,
    CollectSink,
    ObserverExportSink,
    RegistrySink,
    RuntimeSink,
    Sink,
    SketcherSink,
    flush_all,
)
from .sources import (
    FileSource,
    IterableSource,
    MicroBatchSource,
    SocketSource,
    Source,
    UnionSource,
    send_frames,
)

__all__ = [
    "Branch",
    "Pipeline",
    "PipelineResult",
    "BoundedQueue",
    "CLOSED",
    "QueueAborted",
    "Operator",
    "EngineOperator",
    "FilterOperator",
    "KeyPartitionOperator",
    "MapOperator",
    "ShedOperator",
    "SketchUpdateOperator",
    "TeeOperator",
    "Sink",
    "CallbackSink",
    "CheckpointSink",
    "CollectSink",
    "ObserverExportSink",
    "RegistrySink",
    "RuntimeSink",
    "SketcherSink",
    "flush_all",
    "Source",
    "FileSource",
    "IterableSource",
    "MicroBatchSource",
    "SocketSource",
    "UnionSource",
    "send_frames",
]
