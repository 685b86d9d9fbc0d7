"""Online-aggregation engine substrate (Section VI-C of the paper).

An online-aggregation engine scans relations in random order and keeps the
user updated with progressively refining estimates; the prefix of a
random-order scan is a without-replacement sample of the scanned fraction.
The paper's proposal: sketch the tuples *as they are scanned* and use the
WOR corrections (Section V-D) to turn the sketch into statistics — second
frequency moments, join-size correlations — "essentially for free".

:class:`~repro.engine.online_aggregation.OnlineSelfJoinAggregator` and
:class:`~repro.engine.online_aggregation.OnlineJoinAggregator` implement
exactly that scan loop and yield a
:class:`~repro.engine.online_aggregation.ProgressivePoint` per checkpoint.
"""

from .online_aggregation import (
    OnlineJoinAggregator,
    OnlineSelfJoinAggregator,
    ProgressivePoint,
)
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
    "ProgressivePoint",
    "OnlineSelfJoinAggregator",
    "OnlineJoinAggregator",
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
