"""Pipeline operators: envelope-in, envelope-out transforms.

Operators are the middle of a :class:`~repro.dataplane.pipeline.Pipeline`.
Each receives one verified :class:`~repro.resilience.runtime.ChunkEnvelope`
and returns exactly one envelope with the same sequence number, so every
sink's exactly-once cursor sees each sequence.  Transforms that change
the payload *reseal* it (fresh count + CRC32, same sequence number) — an
operator that drops every key returns an empty envelope, not none — so
the integrity checks keep working stage to stage.

Shipped operators:

* :class:`ShedOperator` — fixed-rate Bernoulli load shedding via
  :class:`~repro.core.load_shedding.LoadShedder` (at ``p = 1`` the
  envelope passes through untouched and no RNG is consumed, preserving
  bit-identity);
* :class:`SketchUpdateOperator` / :class:`EngineOperator` — feed a raw
  sketch or an :class:`~repro.engine.statistics.OnlineStatisticsEngine`
  in passing (the envelope continues downstream unchanged), so one
  stream can feed several consumers ahead of the sinks.
"""

from __future__ import annotations

import numpy as np

from ..core.load_shedding import LoadShedder
from ..resilience.runtime import ChunkEnvelope, make_envelope
from ..rng import SeedLike

__all__ = [
    "EngineOperator",
    "Operator",
    "ShedOperator",
    "SketchUpdateOperator",
]


class Operator:
    """Base class for pipeline operators.

    :meth:`process` maps one envelope to one envelope with its sequence.
    """

    #: Stage label used in ``dataplane.stage.*`` metrics.
    name = "operator"

    def process(self, envelope: ChunkEnvelope) -> ChunkEnvelope:
        """Transform one envelope into one envelope with the same sequence."""
        raise NotImplementedError


class ShedOperator(Operator):
    """Fixed-rate Bernoulli load shedding as a pipeline stage.

    Wraps a :class:`~repro.core.load_shedding.LoadShedder`; survivors
    are resealed under the same sequence number.  At ``p = 1`` the
    original envelope passes through untouched and the shedder's RNG is
    not consumed, so an unshedded pipeline stays bit-identical to one
    without the stage.  Survivors carry no weights, so the rate stays
    fixed and ``shedder.info()`` is the draw the paper's Props 13–14
    corrections unbias; governed shedding is a ``SketcherSink`` over an
    ``AdaptiveSheddingSketcher``.
    """

    name = "shed"

    def __init__(self, p: float = 1.0, seed: SeedLike = None) -> None:
        self.shedder = LoadShedder(p, seed)

    def process(self, envelope: ChunkEnvelope) -> ChunkEnvelope:
        """Shed the batch; pass through untouched at ``p = 1``."""
        survivors = self.shedder.filter(envelope.keys)
        if self.shedder.p >= 1.0:
            return envelope
        return make_envelope(envelope.sequence, survivors)


class SketchUpdateOperator(Operator):
    """Feed a sketch in passing; the envelope continues unchanged.

    *sketch* is any object with an ``update(keys)`` method — the raw
    sketches, or a shedding sketcher's ``process`` via
    :class:`~repro.dataplane.sinks.SketcherSink` when the stream should
    *end* at the sketch instead.
    """

    name = "sketch"

    def __init__(self, sketch) -> None:
        self.sketch = sketch
        self.tuples = 0

    def process(self, envelope: ChunkEnvelope) -> ChunkEnvelope:
        """Update the sketch with the batch, then forward the envelope."""
        keys = np.asarray(envelope.keys)
        if keys.size:
            self.sketch.update(keys)
        self.tuples += int(keys.size)
        return envelope


class EngineOperator(Operator):
    """Feed one relation of an :class:`OnlineStatisticsEngine` in passing.

    Calls ``engine.consume(relation, keys)`` per envelope and forwards
    the envelope unchanged — the composable form of the lockstep scan's
    inner loop.
    """

    name = "engine"

    def __init__(self, engine, relation: str) -> None:
        self.engine = engine
        self.relation = str(relation)
        self.tuples = 0

    def process(self, envelope: ChunkEnvelope) -> ChunkEnvelope:
        """Consume the batch into the engine, then forward the envelope."""
        keys = np.asarray(envelope.keys)
        if keys.size:
            self.engine.consume(self.relation, keys)
        self.tuples += int(keys.size)
        return envelope
