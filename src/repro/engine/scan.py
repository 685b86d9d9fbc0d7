"""Scan driver: run relations through the statistics engine with checkpoints.

:class:`~repro.engine.statistics.OnlineStatisticsEngine` is deliberately
passive (callers push chunks); this module adds the loop an online
aggregation engine actually runs — scan all registered relations in
lockstep fractions, snapshotting the statistics at checkpoints::

    engine = OnlineStatisticsEngine(buckets=4096, seed=7)
    for snapshot in run_lockstep_scan(
        engine,
        {"lineitem": tables.lineitem, "orders": tables.orders},
        checkpoints=(0.01, 0.1, 0.5, 1.0),
    ):
        decide_something(snapshot)

Relations are registered automatically; their arrival order must already
be random (the WOR-prefix premise).

With ``checkpoint_dir`` set, the engine's full state (template header,
per-relation counters and scan cursors) is durably snapshotted through
:class:`~repro.resilience.checkpoint.CheckpointManager` after every
yielded fraction; ``resume=True`` then restarts a killed scan from the
newest intact snapshot, re-yielding only the remaining fractions with
statistics bit-identical to an uninterrupted run.
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from ..errors import CheckpointError, ConfigurationError
from ..observability.observer import Observer
from ..resilience.checkpoint import CheckpointManager
from ..streams.base import Relation
from .snapshot import EngineSnapshot
from .statistics import OnlineStatisticsEngine

__all__ = ["run_lockstep_scan"]

DEFAULT_CHECKPOINTS = (0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0)


def _validate_checkpoints(checkpoints: Sequence[float]) -> list[float]:
    """The distinct scan fractions in ascending order, each in ``(0, 1]``.

    NaN fails the range test too, so it raises instead of reaching the
    scan's tuple-count rounding.
    """
    values = sorted(set(float(c) for c in checkpoints))
    if not values:
        raise ConfigurationError("at least one checkpoint is required")
    if not all(0 < value <= 1 for value in values):
        raise ConfigurationError(
            f"checkpoints must lie in (0, 1], got {checkpoints}"
        )
    return values


def run_lockstep_scan(
    engine: OnlineStatisticsEngine,
    relations: Mapping[str, Relation],
    *,
    checkpoints: Sequence[float] = DEFAULT_CHECKPOINTS,
    checkpoint_dir=None,
    keep_checkpoints: int = 2,
    resume: bool = False,
    observer: Optional[Observer] = None,
) -> Iterator[EngineSnapshot]:
    """Scan every relation to each checkpoint fraction, yielding snapshots.

    At checkpoint ``x`` every relation has had an ``x`` fraction of its
    tuples consumed (ripple-join-style lockstep).  Relations not yet
    registered with *engine* are registered with their exact cardinality.

    *checkpoint_dir* enables durable snapshots (one after each yielded
    fraction).  With ``resume=True`` the scan restarts from the newest
    intact snapshot in that directory: the passed *engine* is rewound to
    the checkpointed state (it must be freshly constructed — its sketch
    template is replaced by the checkpointed one so the hash families
    match), already-completed fractions are not re-yielded, and every
    relation's cardinality is validated against the snapshot.  All
    validation runs before the rewind, so a resume that raises
    :class:`~repro.errors.CheckpointError` leaves *engine* untouched.
    When no usable snapshot exists the scan simply starts from the
    beginning.

    *observer* receives ``scan.*`` spans (one ``scan.fraction`` per
    yielded checkpoint, one ``scan.chunk`` per consumed slice, plus
    checkpoint write/restore spans) and scan-progress metrics; it
    defaults to the engine's own observer, so attaching one observer to
    the engine instruments the whole scan.
    """
    if not relations:
        raise ConfigurationError("at least one relation is required")
    if resume and checkpoint_dir is None:
        raise ConfigurationError("resume=True needs a checkpoint_dir")
    obs = engine.observer if observer is None else observer
    fractions = _validate_checkpoints(checkpoints)
    manager = (
        None
        if checkpoint_dir is None
        else CheckpointManager(checkpoint_dir, keep=keep_checkpoints)
    )
    completed = 0
    if resume and manager is not None:
        snapshot = manager.latest()
        if snapshot is not None:
            with obs.span("scan.checkpoint.restore", position=snapshot.position):
                restored = OnlineStatisticsEngine.from_checkpoint_state(
                    snapshot.state, snapshot.arrays
                )
            obs.counter("scan.checkpoint.restores").inc()
            if set(restored.relations) != set(relations):
                raise CheckpointError(
                    f"checkpointed scan covers relations "
                    f"{sorted(restored.relations)}, caller supplied "
                    f"{sorted(relations)}"
                )
            restored_view = restored.snapshot()
            for name, relation in relations.items():
                recorded = restored_view.relation(name).total_tuples
                if recorded != len(relation):
                    raise CheckpointError(
                        f"relation {name!r} has {len(relation)} tuples but the "
                        f"checkpoint recorded {recorded}"
                    )
            if snapshot.position > len(fractions):
                raise CheckpointError(
                    f"checkpoint completed {snapshot.position} fractions but "
                    f"only {len(fractions)} were requested"
                )
            engine.adopt(restored)
            completed = snapshot.position
    if completed == 0:
        for name, relation in relations.items():
            if name not in engine.relations:
                engine.register(name, len(relation))
            elif engine.fraction_scanned(name) > 0:
                raise ConfigurationError(
                    f"relation {name!r} was already partially scanned; "
                    "run_lockstep_scan needs a fresh engine registration"
                )
    scanned = {name: engine.scanned_tuples(name) for name in relations}
    for index in range(completed, len(fractions)):
        fraction = fractions[index]
        with obs.span("scan.fraction", index=index, fraction=fraction):
            for name, relation in relations.items():
                target = min(
                    len(relation), max(1, int(round(fraction * len(relation))))
                )
                if target > scanned[name]:
                    with obs.span(
                        "scan.chunk", relation=name, rows=target - scanned[name]
                    ):
                        engine.consume(name, relation.keys[scanned[name] : target])
                    scanned[name] = target
            if manager is not None:
                started = obs.clock()
                with obs.span("scan.checkpoint.write", position=index + 1):
                    state, arrays = engine.checkpoint_state()
                    manager.save(position=index + 1, state=state, arrays=arrays)
                obs.histogram("scan.checkpoint.seconds").observe(
                    obs.clock() - started
                )
                obs.counter("scan.checkpoint.writes").inc()
            obs.counter("scan.fractions.completed").inc()
        yield engine.snapshot()
