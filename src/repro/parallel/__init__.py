"""Sharded multiprocess sketching with deterministic merge reduction.

The paper's sketches are *linear*: the sketch of a union of streams is the
sum of the per-stream sketches, provided every site uses the same hash
families.  This subpackage turns that algebraic fact into an execution
engine:

1. :mod:`.partition` splits the key stream deterministically — by hashed
   key (``"hash"``, domain-partitioning, bit-identical to a sequential
   scan) or into contiguous ranges (``"range"``).
2. :mod:`.pool` runs a fixed-size ``multiprocessing`` worker pool (with an
   inline ``workers=0`` fallback) whose workers pin the coordinator's
   kernel backend.
3. :mod:`.shm` moves shard keys and counters through named
   ``multiprocessing.shared_memory`` segments (:class:`~.shm.SharedBlock`),
   the one transport for inline and process pools alike.
4. :mod:`.worker` executes one shard per task on the resilient
   :class:`~repro.resilience.runtime.StreamRuntime` — per-shard Bernoulli
   shedding with independently spawned seed substreams (a retried shard
   runs again from its first chunk, bit-identically) — writing counters
   straight into the dispatch's own shared slot (one per
   ``(shard, attempt)``).
5. :mod:`.merge` reduces the per-shard sketches in a fixed-order balanced
   merge tree (:func:`~.merge.merge_tree`, or its bit-identical
   array-level twin :func:`~.merge.reduce_counter_tree` over shared
   counter slots) and aggregates the per-shard sampling ledgers.
6. :mod:`.coordinator` ties it together behind
   :func:`~.coordinator.run_sharded_sketch` (full engine) and
   :func:`~.coordinator.parallel_update` (chunked work-stealing bulk
   update).

See ``docs/PARALLEL.md`` for the sharding model, the determinism
guarantees, and the failure semantics.
"""

from .coordinator import (
    DegradedScanResult,
    ShardedScanResult,
    parallel_update,
    run_sharded_sketch,
)
from .merge import (
    combine_shard_infos,
    merge_tree,
    reduce_counter_tree,
    sample_size_vector,
)
from .partition import (
    ShardPlan,
    hash_partition,
    make_shard_plan,
    range_partition,
    shard_ids,
)
from .pool import WorkerPool, available_cpus
from .shm import SharedBlock
from .worker import PartialUpdateTask, ShardResult, ShardTask, run_partial_update, run_shard

__all__ = [
    "DegradedScanResult",
    "PartialUpdateTask",
    "ShardPlan",
    "ShardResult",
    "ShardTask",
    "ShardedScanResult",
    "SharedBlock",
    "WorkerPool",
    "available_cpus",
    "combine_shard_infos",
    "hash_partition",
    "make_shard_plan",
    "merge_tree",
    "parallel_update",
    "range_partition",
    "reduce_counter_tree",
    "run_partial_update",
    "run_shard",
    "run_sharded_sketch",
    "sample_size_vector",
    "shard_ids",
]
