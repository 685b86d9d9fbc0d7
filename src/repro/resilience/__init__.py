"""Fault-tolerant streaming runtime for the paper's sketching pipelines.

This package hardens the reproduction for long-running deployments:

* :mod:`~repro.resilience.checkpoint` — durable, atomic, CRC-verified
  snapshots of full pipeline state;
* :mod:`~repro.resilience.adaptive` — piecewise-rate Bernoulli load
  shedding with unbiased estimates and rate-aware confidence bounds
  (generalizing the paper's Props 13–14);
* :mod:`~repro.resilience.governor` — a feedback controller that retunes
  the shedding rate to a processing budget;
* :mod:`~repro.resilience.hardening` — bad-record policies and retrying
  stream readers at the I/O boundary;
* :mod:`~repro.resilience.runtime` — :class:`StreamRuntime`, tying the
  pieces together with envelope integrity checks and ``recover()``;
* :mod:`~repro.resilience.chaos` — the deterministic fault-injection
  harness exercising all of the above (including the process pool);
* :mod:`~repro.resilience.distributed` — the coordinator-side control
  plane for sharded scans: seeded :class:`BackoffPolicy` retry delays,
  :class:`ShardSupervisor` deadlines / heartbeats / hedged dispatch, and
  the widened variance bounds behind graceful degradation.
"""

from .adaptive import AdaptiveSheddingSketcher, averaged_estimator_count
from .clock import DEFAULT_CLOCK, Clock, Ewma, ManualClock
from .chaos import (
    ChaosInjector,
    ChaosShardWorker,
    ParallelChaosPlan,
    ResultDropped,
    SimulatedCrash,
    WorkerFault,
    make_parallel_chaos_plan,
    run_until_complete,
)
from .checkpoint import CHECKPOINT_VERSION, Checkpoint, CheckpointManager
from .distributed import (
    BackoffPolicy,
    BackoffSchedule,
    ShardFailure,
    ShardSupervisor,
    SupervisionOutcome,
    widened_join_variance,
    widened_self_join_variance,
)
from .governor import LoadGovernor
from .hardening import InputHardener, retrying_read_stream
from .runtime import (
    ChunkEnvelope,
    StreamRuntime,
    envelope_stream,
    make_envelope,
    verify_payload,
)

__all__ = [
    "AdaptiveSheddingSketcher",
    "averaged_estimator_count",
    "Clock",
    "DEFAULT_CLOCK",
    "Ewma",
    "ManualClock",
    "BackoffPolicy",
    "BackoffSchedule",
    "ChaosInjector",
    "ChaosShardWorker",
    "ParallelChaosPlan",
    "ResultDropped",
    "ShardFailure",
    "ShardSupervisor",
    "SimulatedCrash",
    "SupervisionOutcome",
    "WorkerFault",
    "make_parallel_chaos_plan",
    "run_until_complete",
    "widened_join_variance",
    "widened_self_join_variance",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointManager",
    "LoadGovernor",
    "InputHardener",
    "retrying_read_stream",
    "ChunkEnvelope",
    "StreamRuntime",
    "envelope_stream",
    "make_envelope",
    "verify_payload",
]
