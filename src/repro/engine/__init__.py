"""Online-aggregation engine substrate (Section VI-C of the paper).

An online-aggregation engine scans relations in random order and keeps the
user updated with progressively refining estimates; the prefix of a
random-order scan is a without-replacement sample of the scanned fraction.
The paper's proposal: sketch the tuples *as they are scanned* and use the
WOR corrections (Section V-D) to turn the sketch into statistics — second
frequency moments, join-size correlations — "essentially for free".

:class:`~repro.engine.statistics.OnlineStatisticsEngine` sketches every
scanned relation with one shared set of hash families;
:func:`~repro.engine.scan.run_lockstep_scan` is the in-memory lockstep
scan loop, yielding an :class:`~repro.engine.snapshot.EngineSnapshot` per
checkpoint that answers every statistic of the scanned prefixes
(self-join, join, point frequency, with plug-in intervals).  A durable
scan is a :class:`~repro.dataplane.Pipeline` feeding an
``EngineOperator`` and a ``CheckpointSink`` over
:meth:`OnlineStatisticsEngine.checkpoint_state`; it resumes from
:meth:`OnlineStatisticsEngine.from_checkpoint_state`.

For the paper's analysis-mode intervals, pass a snapshot relation's
``info()`` and the snapshot's ``averaged_estimators`` to
:func:`repro.core.self_join_interval` or :func:`repro.core.join_interval`
with the exact frequency vectors.
"""

from .scan import run_lockstep_scan
from .snapshot import (
    EngineSnapshot,
    RelationMoments,
    RelationSnapshot,
    StatisticsSnapshot,
    join_interval_between,
    join_size_between,
)
from .statistics import OnlineStatisticsEngine, ScanState

__all__ = [
    "OnlineStatisticsEngine",
    "EngineSnapshot",
    "RelationMoments",
    "RelationSnapshot",
    "ScanState",
    "StatisticsSnapshot",
    "join_interval_between",
    "join_size_between",
    "run_lockstep_scan",
]
