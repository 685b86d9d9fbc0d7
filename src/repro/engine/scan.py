"""Scan driver: run relations through the statistics engine in lockstep.

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

The snapshots live in memory only.  A scan that must survive a crash is
a :class:`~repro.dataplane.Pipeline`: ``FileSource`` →
``EngineOperator`` → ``CheckpointSink(directory,
engine.checkpoint_state, every=k)``; it resumes from
:meth:`OnlineStatisticsEngine.from_checkpoint_state` with
``Pipeline(..., start=latest.position)`` (see ``docs/ROBUSTNESS.md``).
"""

from __future__ import annotations

from typing import Iterator, Mapping, Optional, Sequence

from ..errors import ConfigurationError
from ..observability.observer import Observer
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
    observer: Optional[Observer] = None,
) -> Iterator[EngineSnapshot]:
    """Scan every relation to each checkpoint fraction, yielding snapshots.

    At checkpoint ``x`` every relation has had an ``x`` fraction of its
    tuples consumed (ripple-join-style lockstep).  Relations not yet
    registered with *engine* are registered with their exact cardinality.

    *observer* receives ``scan.*`` spans (one ``scan.fraction`` per
    yielded checkpoint, one ``scan.chunk`` per consumed slice) and
    scan-progress metrics; it defaults to the engine's own observer, so
    attaching one observer to the engine instruments the whole scan.
    """
    if not relations:
        raise ConfigurationError("at least one relation is required")
    obs = engine.observer if observer is None else observer
    fractions = _validate_checkpoints(checkpoints)
    for name, relation in relations.items():
        if name not in engine.relations:
            engine.register(name, len(relation))
        elif engine.fraction_scanned(name) > 0:
            raise ConfigurationError(
                f"relation {name!r} was already partially scanned; "
                "run_lockstep_scan needs a fresh engine registration"
            )
    scanned = dict.fromkeys(relations, 0)
    for index, fraction in enumerate(fractions):
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
            obs.counter("scan.fractions.completed").inc()
        yield engine.snapshot()
