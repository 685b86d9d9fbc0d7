"""Pipeline operators: envelope-in, envelopes-out transforms.

Operators are the middle of a :class:`~repro.dataplane.pipeline.Pipeline`.
Each receives one verified :class:`~repro.resilience.runtime.ChunkEnvelope`
and yields zero or more envelopes downstream; transforms that change the
payload *reseal* it (fresh count + CRC32, same sequence number) so the
exactly-once cursor and integrity checks keep working stage to stage.

Shipped operators:

* :class:`FilterOperator` / :class:`MapOperator` — vectorized predicate /
  transform on the tuple batch;
* :class:`ShedOperator` — fixed-rate Bernoulli load shedding via
  :class:`~repro.core.load_shedding.LoadShedder` (at ``p = 1`` the
  envelope passes through untouched and no RNG is consumed, preserving
  bit-identity);
* :class:`SketchUpdateOperator` / :class:`EngineOperator` — feed a raw
  sketch or an :class:`~repro.engine.statistics.OnlineStatisticsEngine`
  in passing (the envelope continues downstream unchanged);
* :class:`KeyPartitionOperator` — splitmix64 fan-out to per-shard
  branches, reusing :func:`repro.parallel.partition.shard_ids`;
* :class:`TeeOperator` — copy the stream to side targets (multi-stream
  joins: tee one stream into several sketches).
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.load_shedding import LoadShedder
from ..errors import ConfigurationError
from ..parallel.partition import shard_ids
from ..resilience.runtime import ChunkEnvelope, make_envelope
from ..rng import SeedLike

__all__ = [
    "EngineOperator",
    "FilterOperator",
    "KeyPartitionOperator",
    "MapOperator",
    "Operator",
    "ShedOperator",
    "SketchUpdateOperator",
    "TeeOperator",
]


class Operator:
    """Base class for pipeline operators.

    :meth:`process` maps one envelope to an iterable of envelopes;
    :meth:`flush` runs at end-of-stream for operators that buffer or
    fan out (default: nothing).
    """

    #: Stage label used in ``dataplane.stage.*`` metrics.
    name = "operator"

    def process(self, envelope: ChunkEnvelope) -> Iterable[ChunkEnvelope]:
        """Transform one envelope into zero or more envelopes."""
        raise NotImplementedError

    def flush(self) -> Iterable[ChunkEnvelope]:
        """End-of-stream hook; may emit trailing envelopes."""
        return ()


class FilterOperator(Operator):
    """Keep the tuples selected by a vectorized predicate.

    *predicate* receives the batch's keys array and returns a boolean
    mask (anything :func:`np.asarray` can coerce); the surviving keys
    are resealed under the same sequence number.
    """

    name = "filter"

    def __init__(self, predicate: Callable[[np.ndarray], np.ndarray]) -> None:
        self.predicate = predicate

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Apply the mask and reseal."""
        keys = np.asarray(envelope.keys)
        mask = np.asarray(self.predicate(keys), dtype=bool)
        if mask.shape != keys.shape:
            raise ConfigurationError(
                f"filter predicate returned shape {mask.shape} for a batch "
                f"of shape {keys.shape}"
            )
        yield make_envelope(envelope.sequence, keys[mask])


class MapOperator(Operator):
    """Rewrite the batch with a vectorized transform (e.g. key projection).

    *fn* receives the keys array and returns the replacement array; the
    result is resealed under the same sequence number.
    """

    name = "map"

    def __init__(self, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        self.fn = fn

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Apply the transform and reseal."""
        yield make_envelope(envelope.sequence, self.fn(np.asarray(envelope.keys)))


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

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Shed the batch; pass through untouched at ``p = 1``."""
        survivors = self.shedder.filter(envelope.keys)
        if self.shedder.p >= 1.0:
            yield envelope
        else:
            yield make_envelope(envelope.sequence, survivors)


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

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Update the sketch with the batch, then forward the envelope."""
        keys = np.asarray(envelope.keys)
        if keys.size:
            self.sketch.update(keys)
        self.tuples += int(keys.size)
        yield envelope


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

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Consume the batch into the engine, then forward the envelope."""
        keys = np.asarray(envelope.keys)
        if keys.size:
            self.engine.consume(self.relation, keys)
        self.tuples += int(keys.size)
        yield envelope


class TeeOperator(Operator):
    """Copy every envelope to side targets, then forward it downstream.

    Targets are sinks or :class:`~repro.dataplane.pipeline.Branch`
    sub-chains (anything with ``accept``/``flush``) — the building block
    for multi-stream joins, where one physical stream feeds several
    logical consumers.
    """

    name = "tee"

    def __init__(self, *targets) -> None:
        if not targets:
            raise ConfigurationError("TeeOperator needs at least one target")
        self.targets: Sequence = tuple(targets)

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Deliver to every target, then forward the original envelope."""
        for target in self.targets:
            target.accept(envelope)
        yield envelope

    def flush(self) -> Iterator[ChunkEnvelope]:
        """Flush every target at end-of-stream."""
        for target in self.targets:
            target.flush()
        return iter(())


class KeyPartitionOperator(Operator):
    """splitmix64 fan-out: route each tuple to a per-shard branch.

    Shard assignment reuses :func:`repro.parallel.partition.shard_ids`
    (the sharded engine's partitioner), so a pipeline partition is
    bit-compatible with an offline sharded scan.  Every branch receives
    an envelope for *every* sequence — empty when no tuples landed on
    its shard — keeping per-branch cursors contiguous.  The original
    envelope is forwarded downstream unchanged.
    """

    name = "partition"

    def __init__(self, branches: Sequence) -> None:
        if not branches:
            raise ConfigurationError(
                "KeyPartitionOperator needs at least one branch"
            )
        self.branches: Sequence = tuple(branches)

    def process(self, envelope: ChunkEnvelope) -> Iterator[ChunkEnvelope]:
        """Partition the batch, deliver per-shard envelopes, forward."""
        keys = np.asarray(envelope.keys)
        shards = len(self.branches)
        assignment = (
            shard_ids(keys, shards) if keys.size else np.empty(0, dtype=np.int64)
        )
        for shard, branch in enumerate(self.branches):
            branch.accept(
                make_envelope(envelope.sequence, keys[assignment == shard])
            )
        yield envelope

    def flush(self) -> Iterator[ChunkEnvelope]:
        """Flush every branch at end-of-stream."""
        for branch in self.branches:
            branch.flush()
        return iter(())
