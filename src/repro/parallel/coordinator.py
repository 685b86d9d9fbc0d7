"""The coordinator: shard, dispatch, retry, reduce, correct.

:func:`run_sharded_sketch` is the top-level entry point of the parallel
engine.  It partitions the key stream deterministically
(:mod:`.partition`), spawns one independent seed substream per shard from
the root seed (``SeedSequence.spawn`` — reproducible no matter which
process executes which shard), dispatches :class:`~.worker.ShardTask`\\ s
over a :class:`~.pool.WorkerPool`, runs a failed shard again from its
first chunk, reduces the per-shard sketches through the fixed-order
:func:`~.merge.merge_tree`,
and aggregates the per-shard :class:`~repro.sampling.base.SampleInfo`
ledgers for the combined-estimator correction.

Determinism contract (tested in ``tests/parallel/``):

* **hash mode** — the merged sketch is *bit-identical* to a sequential
  scan of the whole stream, for every sketch type and kernel backend,
  because shards partition the key domain and integer counter deltas add
  exactly in any association.
* **range mode** — a key may straddle shards, so with shedding the merged
  sketch is a different (equally valid) random realization: identical in
  distribution to the sequential shedding scan, and identical run-to-run
  for a fixed root seed and shard count.
* The process boundary adds nothing: an inline pool (``workers=0``) and a
  process pool produce bit-identical results for the same plan.

Transport: shard keys and counters always move through
:class:`~.shm.SharedBlock` segments, for inline and process pools alike —
one shared key block the workers slice, and one counter block with a slot
per ``(shard, attempt)`` (slot ``shard * (1 + max_retries) + attempt``)
that the workers' sketches write *in place*.  A retry therefore never
shares memory with an earlier attempt, whatever that attempt's process is
still doing.  Tasks and results carry only descriptors and scalars; the
coordinator copies each winning slot into
:attr:`~.worker.ShardResult.counters`, reduces them with
:func:`~.merge.reduce_counter_tree` (bit-identical to
:func:`~.merge.merge_tree` by construction), and destroys every segment
in a ``finally`` so crashes and exhausted retries never leak ``/dev/shm``
entries.

:func:`parallel_update` is the lightweight sibling for a bulk update of
one sketch: no shedding, no checkpoints — the key stream is cut into more
chunks than workers and the pool's task queue hands them to whichever
worker frees up first (work-stealing, no static shard assignment), each
chunk accumulating into its own shared counter slot.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from ..core.load_shedding import shedding_correction
from ..errors import ConfigurationError, EstimationError
from ..observability.observer import (
    Observer,
    ObserverSnapshot,
    as_observer,
)
from ..resilience.distributed import (
    ShardSupervisor,
    widened_join_variance,
    widened_self_join_variance,
)
from ..rng import SeedLike, as_seed_sequence
from ..sampling.base import SampleInfo
from ..sketches.base import Sketch
from ..sketches.serialization import build_sketch, sketch_header
from ..variance.bounds import ConfidenceInterval, interval
from .merge import combine_shard_infos, reduce_counter_tree, sample_size_vector
from .partition import ShardPlan, make_shard_plan
from .pool import WorkerPool, available_cpus
from .shm import SharedBlock
from .worker import (
    PartialUpdateTask,
    ShardResult,
    ShardTask,
    run_dispatch,
    run_partial_update,
    run_shard,
)

__all__ = [
    "ShardedScanResult",
    "DegradedScanResult",
    "run_sharded_sketch",
    "parallel_update",
]


@dataclass(frozen=True)
class ShardedScanResult:
    """Everything a sharded scan produced, reduced and ready to query."""

    sketch: Sketch
    shard_results: tuple
    plan: ShardPlan
    header: dict
    retries: int

    # ------------------------------------------------------------------
    # Sampling ledger
    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        """The shard mode the scan ran under (``"hash"`` or ``"range"``)."""
        return self.plan.mode

    @property
    def p(self) -> float:
        """The common Bernoulli keep-rate the shards ran at."""
        return self.info().probability

    def infos(self) -> list:
        """Per-shard :class:`~repro.sampling.base.SampleInfo`, in shard order."""
        return [result.info() for result in self.shard_results]

    def info(self) -> SampleInfo:
        """The whole-stream sampling ledger (per-shard ledgers aggregated)."""
        return combine_shard_infos(self.infos())

    def sample_sizes(self) -> np.ndarray:
        """Per-shard realized sample sizes (variance accounting input)."""
        return sample_size_vector(self.infos())

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------

    def self_join_size(self) -> float:
        """Unbiased full-stream ``F₂`` estimate from the merged sketch.

        Workers insert kept tuples Horvitz–Thompson-weighted, so the merged
        counters estimate the *unsampled* stream directly; the additive
        correction ``A = N·(1−p)/p`` (:func:`shedding_correction` over the
        aggregated ledger, one segment at the shards' common rate) removes
        the sampling-noise inflation of the second moment.
        """
        info = self.info()
        correction = shedding_correction([(info.probability, info.population_size)])
        return self.sketch.second_moment() - correction

    def join_size(self, other: "ShardedScanResult") -> float:
        """Unbiased join-size estimate against another sharded scan.

        HT-weighted counters need no trailing ``1/(pq)`` scale (Prop 13's
        weighted form): the plain inner product is already unbiased.
        Joining against a :class:`DegradedScanResult` delegates to its
        shard-aware estimator (the correction is symmetric).
        """
        if isinstance(other, DegradedScanResult):
            return other.join_size(self)
        return self.sketch.inner_product(other.sketch)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def surviving_shards(self) -> tuple:
        """Shard indices that produced a result, ascending."""
        return tuple(result.index for result in self.shard_results)

    def _result_for(self, index: int) -> ShardResult:
        for result in self.shard_results:
            if result.index == index:
                return result
        raise ConfigurationError(
            f"shard {index} has no result (lost or out of range)"
        )

    def shard_sketch(self, index: int) -> Sketch:
        """Rebuild shard *index*'s individual sketch (families + counters)."""
        result = self._result_for(index)
        sketch = build_sketch(self.header)
        sketch._state()[...] = result.counters
        return sketch

    def _partial_merge(self, indices) -> Sketch:
        """Merged sketch over a subset of shards, in fixed reduce order."""
        stack = np.stack([self._result_for(i).counters for i in indices])
        sketch = build_sketch(self.header)
        sketch._state()[...] = reduce_counter_tree(stack)
        return sketch

    def __repr__(self) -> str:
        return (
            f"ShardedScanResult(shards={len(self.shard_results)}, "
            f"mode={self.mode!r}, retries={self.retries}, "
            f"sketch={self.sketch!r})"
        )


@dataclass(frozen=True)
class DegradedScanResult(ShardedScanResult):
    """A sharded scan that lost shards but degraded instead of failing.

    Returned by :func:`run_sharded_sketch` under ``degradation="degrade"``
    when at least one shard exhausted its retries.  ``shard_results``
    holds only the *survivors* (each :class:`~.worker.ShardResult` keeps
    its original shard ``index``); ``lost_shards``/``failures`` record
    what was given up and why.

    The estimators exploit the paper's own sampling math: under hash
    partitioning the surviving shards observe a Bernoulli
    ``q = survived_fraction`` sample of the *key space*, so the survivor
    estimate scaled by ``1/q`` stays unbiased and the price is a
    quantified variance increase — exposed through
    :meth:`self_join_interval` / :meth:`join_interval`, whose widened
    bounds come from
    :func:`repro.resilience.distributed.widened_self_join_variance`.
    """

    lost_shards: tuple = ()
    failures: tuple = ()

    @property
    def lost_fraction(self) -> float:
        """Fraction of the key space on shards that were given up."""
        return len(self.lost_shards) / self.plan.shards

    @property
    def survived_fraction(self) -> float:
        """Key-survival probability ``q`` of the degraded run."""
        return 1.0 - self.lost_fraction

    # ------------------------------------------------------------------
    # Estimates (scaled to the full stream)
    # ------------------------------------------------------------------

    def population_estimate(self) -> float:
        """Estimated full-stream tuple count (survivor count over ``q``)."""
        return self.info().population_size / self.survived_fraction

    def self_join_size(self) -> float:
        """Unbiased full-stream ``F₂`` estimate despite the lost shards."""
        return super().self_join_size() / self.survived_fraction

    def self_join_interval(
        self,
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
        extra_variance: float = 0.0,
    ) -> ConfidenceInterval:
        """Confidence interval honestly widened for the lost key space.

        The variance bound adds the key-loss term ``(1-q)/q·F₄`` and the
        ``1/q``-scaled shedding variance (both via conservative plug-ins;
        see :func:`~repro.resilience.distributed.widened_self_join_variance`).
        *extra_variance* lets callers add their sketch's own estimator
        variance (e.g. ``averaged_agms_self_join_variance``) on top.
        """
        estimate = self.self_join_size()
        variance = widened_self_join_variance(
            estimate,
            survived_fraction=self.survived_fraction,
            probability=self.p,
            population=self.population_estimate(),
        )
        return interval(
            estimate, variance + float(extra_variance), confidence, method
        )

    def _common_survivors(self, other: "ShardedScanResult") -> tuple:
        if self.plan.shards != other.plan.shards:
            raise ConfigurationError(
                f"cannot join scans with different shard counts "
                f"({self.plan.shards} vs {other.plan.shards})"
            )
        if self.mode != "hash" or other.mode != "hash":
            raise ConfigurationError(
                "degraded joins need hash-partitioned scans on both sides "
                "(key-space alignment is what makes the correction valid)"
            )
        common = sorted(
            set(self.surviving_shards()) & set(other.surviving_shards())
        )
        if not common:
            raise EstimationError(
                "no shard survived on both sides; nothing to estimate from"
            )
        return tuple(common)

    def join_size(self, other: "ShardedScanResult") -> float:
        """Unbiased join-size estimate from the commonly surviving shards.

        Both sides are re-merged over the shards *both* runs still have
        (a lost shard on either side removes that key-space slice from
        the product), and the inner product is scaled by the common
        survival fraction.
        """
        common = self._common_survivors(other)
        q = len(common) / self.plan.shards
        left = self._partial_merge(common)
        right = other._partial_merge(common)
        return left.inner_product(right) / q

    def join_interval(
        self,
        other: "ShardedScanResult",
        confidence: float = 0.95,
        *,
        method: str = "chebyshev",
        extra_variance: float = 0.0,
    ) -> ConfidenceInterval:
        """Widened confidence interval for :meth:`join_size`."""
        common = self._common_survivors(other)
        q = len(common) / self.plan.shards
        estimate = self.join_size(other)
        population_f = sum(
            self._result_for(i).info().population_size for i in common
        ) / q
        population_g = sum(
            other._result_for(i).info().population_size for i in common
        ) / q
        variance = widened_join_variance(
            estimate,
            survived_fraction=q,
            probability_f=self.p,
            probability_g=other.p,
            population_f=population_f,
            population_g=population_g,
        )
        return interval(
            estimate, variance + float(extra_variance), confidence, method
        )

    def __repr__(self) -> str:
        return (
            f"DegradedScanResult(survivors={len(self.shard_results)}/"
            f"{self.plan.shards}, lost={self.lost_shards}, "
            f"retries={self.retries}, sketch={self.sketch!r})"
        )


def _default_shards(shards: Optional[int], pool: Optional[WorkerPool]) -> int:
    if shards is not None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        return int(shards)
    if pool is not None and pool.workers > 0:
        return pool.workers
    return max(1, available_cpus())


def _spawn_shard_seeds(seed: SeedLike, shards: int) -> list:
    root = as_seed_sequence(seed)
    return root.spawn(shards)


def _shared_key_block(parts) -> tuple:
    """One int64 key segment holding every shard's slice, plus the ranges."""
    total = int(sum(part.size for part in parts))
    block = SharedBlock.create((total,), np.int64)
    view = block.array
    ranges = []
    offset = 0
    for part in parts:
        stop = offset + int(part.size)
        view[offset:stop] = part
        ranges.append((offset, stop))
        offset = stop
    return block, ranges


def _read_heartbeat(beats: np.ndarray, slot: int) -> int:
    return int(beats[slot])


class _DispatchHandle:
    """What the coordinator's dispatcher hands the supervisor per attempt."""

    __slots__ = ("future", "progress", "slot")

    def __init__(self, future, progress, slot) -> None:
        self.future = future
        self.progress = progress
        self.slot = slot


def run_sharded_sketch(
    keys,
    template: Sketch,
    *,
    shards: Optional[int] = None,
    mode: str = "hash",
    p: float = 1.0,
    seed: SeedLike = None,
    pool: Optional[WorkerPool] = None,
    chunk_size: int = 4096,
    max_retries: int = 2,
    observer: Optional[Observer] = None,
    deadline: Optional[float] = None,
    degradation: str = "fail",
    poll_interval: float = 0.005,
    _worker=run_shard,
) -> ShardedScanResult:
    """Sketch *keys* across shards and reduce to one corrected result.

    Parameters
    ----------
    keys:
        The full key stream (1-D integer array).
    template:
        A sketch defining the families/shape every shard must share.  The
        template itself is *not* mutated; its header is shipped to the
        workers and each shard builds a fresh zeroed copy.
    shards:
        Shard count; defaults to the pool's worker count (or the CPU
        count for an inline/absent pool).
    mode:
        ``"hash"`` (bit-identical to sequential) or ``"range"``
        (contiguous slices; equivalent in distribution under shedding).
    p, seed:
        Bernoulli keep-rate and the *root* seed; each shard sheds with an
        independently spawned substream of it.
    pool:
        A :class:`~.pool.WorkerPool`; ``None`` runs shards inline.
    max_retries:
        Re-dispatch attempts per shard before giving up with
        :class:`~repro.errors.RetryExhaustedError`.  A retry runs the
        shard again from its first chunk, with its shedder rebuilt from
        the shard's spawned seed, so it returns the same counters.
    observer:
        Optional :class:`~repro.observability.Observer`.  The coordinator
        opens a ``parallel.scan`` root span, ships its context to every
        worker (each builds a private shard observer), and absorbs the
        workers' observations back in fixed shard order — so one observer
        ends up with the merged metrics and the full multi-process trace.
    deadline:
        Seconds a dispatch may go without progress (heartbeat ticks over
        a process pool, wall clock otherwise) before the supervisor
        abandons it as hung and retries; consumes a retry attempt.  On a
        process pool the clock starts when a worker starts the dispatch,
        so a shard queued behind busy workers is not culled while the
        run progresses; once abandoned hangs hold every worker, the
        queued shards expire one deadline after the run's last progress
        (see :class:`~repro.resilience.distributed.ShardSupervisor`).  A
        running task cannot be cancelled, so when an abandoned dispatch
        is still running once the shards are settled, the pool's worker
        processes are recycled (:meth:`~.pool.WorkerPool.recycle`).
    degradation:
        ``"fail"`` (default) raises
        :class:`~repro.errors.RetryExhaustedError` when a shard exhausts
        its retries; ``"degrade"`` (hash mode only) records the loss and
        returns a :class:`DegradedScanResult` built from the surviving
        shards, with estimates corrected for the lost key fraction.
    poll_interval:
        Supervisor polling cadence while a deadline is armed.
    """
    obs = as_observer(observer)
    shards = _default_shards(shards, pool)
    if degradation not in ("fail", "degrade"):
        raise ConfigurationError(
            f'degradation must be "fail" or "degrade", got {degradation!r}'
        )
    if degradation == "degrade" and mode != "hash":
        raise ConfigurationError(
            'degradation="degrade" needs mode="hash": only hash '
            "partitioning makes a lost shard a Bernoulli sample of the "
            "key space (range shards are a biased slice)"
        )
    with obs.span("parallel.scan", mode=mode, shards=shards):
        with obs.span("parallel.partition"):
            plan = make_shard_plan(keys, shards, mode=mode)
        header = sketch_header(template)
        seeds = _spawn_shard_seeds(seed, plan.shards)
        trace_parent = ()
        if obs.enabled:
            context = obs.trace_context()
            trace_parent = (
                context.trace_id,
                context.span_id,
                context.process,
            )
        owns_pool = pool is None
        if owns_pool:
            pool = WorkerPool(0)
        attempts = 1 + max_retries
        key_block = counter_block = heartbeat_block = None
        dispatched: list = []

        def dispatch(index: int, attempt: int) -> _DispatchHandle:
            # A shard dispatches at most 1 + max_retries times, so every
            # (shard, attempt) owns one counter slot and one heartbeat slot.
            slot = index * attempts + attempt
            child = seeds[index]
            task = ShardTask(
                index=index,
                header=header,
                shm_keys=key_block.descriptor,
                keys_range=key_ranges[index],
                shm_counters=counter_block.descriptor,
                slot=slot,
                p=p,
                seed_entropy=child.entropy,
                seed_spawn_key=tuple(child.spawn_key),
                chunk_size=chunk_size,
                observe=obs.enabled,
                trace_parent=trace_parent,
                attempt=attempt,
                shm_heartbeat=(
                    () if heartbeat_block is None else heartbeat_block.descriptor
                ),
            )
            progress = None
            if heartbeat_block is not None:
                progress = partial(_read_heartbeat, heartbeat_block.array, slot)
            handle = _DispatchHandle(
                pool.submit(run_dispatch, _worker, task), progress, slot
            )
            dispatched.append(handle)
            return handle

        try:
            with obs.span("parallel.shm.setup", shards=plan.shards):
                key_block, key_ranges = _shared_key_block(plan.parts)
                counter_block = SharedBlock.create(
                    (plan.shards * attempts,) + template._state().shape,
                    np.float64,
                )
            segments = [key_block, counter_block]
            if deadline is not None and not pool.inline:
                # An inline dispatch is done before it is seen.
                heartbeat_block = SharedBlock.create(
                    (plan.shards * attempts,), np.int64
                )
                segments.append(heartbeat_block)
            obs.counter("parallel.shm.segments").inc(len(segments))
            obs.counter("parallel.shm.bytes").inc(
                sum(segment.nbytes for segment in segments)
            )
            supervisor = ShardSupervisor(
                plan.shards,
                max_retries=max_retries,
                deadline=deadline,
                degradation=degradation,
                poll_interval=poll_interval,
                observer=obs,
            )
            with obs.span("parallel.collect"):
                outcome = supervisor.run(dispatch)
            # Counters never crossed the pipe: copy each winning slot out
            # before the segments go away.
            ordered = tuple(
                replace(
                    handle.future.result(),
                    counters=counter_block.array[handle.slot].copy(),
                )
                for _, handle in sorted(outcome.winners.items())
            )
            for result in ordered:
                if result.metrics is not None:
                    obs.absorb(
                        ObserverSnapshot(metrics=result.metrics, spans=result.spans)
                    )
            obs.counter("parallel.shards.completed").inc(len(ordered))
            with obs.span("parallel.merge", shards=len(ordered)):
                merged = build_sketch(header)
                merged._state()[...] = reduce_counter_tree(
                    np.stack([result.counters for result in ordered])
                )
        finally:
            # A dispatch abandoned at its deadline (or still in flight when
            # a shard exhausted its retries) keeps running: a running task
            # cannot be cancelled, and it would hold its worker, and any
            # later close() of the pool, until it ends.
            if any(not handle.future.done() for handle in dispatched):
                pool.recycle()
            if owns_pool:
                pool.close()
            for block in (key_block, counter_block, heartbeat_block):
                if block is not None:
                    block.destroy()
    if outcome.lost:
        lost = tuple(sorted(outcome.lost))
        return DegradedScanResult(
            sketch=merged,
            shard_results=ordered,
            plan=plan,
            header=header,
            retries=outcome.retries,
            lost_shards=lost,
            failures=tuple(outcome.lost[index] for index in lost),
        )
    return ShardedScanResult(
        sketch=merged,
        shard_results=ordered,
        plan=plan,
        header=header,
        retries=outcome.retries,
    )


#: Smallest chunk the auto-chunker will cut — below this the per-task
#: dispatch overhead outweighs any load-balancing gain.
_MIN_AUTO_CHUNK = 16_384

#: Auto-chunk target: this many tasks per worker keeps the pool's queue
#: deep enough that a straggler chunk never idles the other workers.
_CHUNKS_PER_WORKER = 4


def _chunk_ranges(
    n: int, shards: int, workers: int, chunk_size: Optional[int]
) -> list:
    """Contiguous ``(start, stop)`` task ranges over an ``n``-key stream."""
    if chunk_size is not None:
        if chunk_size < 1:
            raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
        step = int(chunk_size)
    else:
        target = max(shards, _CHUNKS_PER_WORKER * workers, 1)
        step = max(_MIN_AUTO_CHUNK, -(-n // target))
    return [(start, min(start + step, n)) for start in range(0, n, step)]


def parallel_update(
    sketch: Sketch,
    keys,
    *,
    shards: Optional[int] = None,
    pool: Optional[WorkerPool] = None,
    chunk_size: Optional[int] = None,
) -> Sketch:
    """Bulk-update *sketch* with *keys*, fanned out over the pool.

    Equivalent — bit-for-bit — to ``sketch.update(keys)``: with no
    shedding every counter delta is an exactly-represented integer sum,
    so any split of the stream adds back to identical floats.  The stream
    is therefore cut into contiguous chunks (more chunks than workers;
    the pool's task queue hands them to whichever worker frees up first —
    dynamic work-stealing, no static shard assignment), each chunk
    accumulates into its own slot of a shared counter block, and the
    slots reduce in the fixed :func:`~.merge.reduce_counter_tree` order.
    Contiguous chunks make the shared key block a single copy of the
    input.  *chunk_size* overrides the auto-chunker (which targets a few
    chunks per worker, never below 16 Ki keys).  Returns *sketch* for
    chaining.
    """
    shards = _default_shards(shards, pool)
    keys = np.asarray(keys)
    if keys.ndim != 1:
        raise ConfigurationError(f"keys must be 1-D, got shape {keys.shape}")
    if keys.size and not np.issubdtype(keys.dtype, np.integer):
        raise ConfigurationError("parallel_update needs integer keys")
    keys = keys.astype(np.int64, copy=False)
    if keys.size == 0:
        return sketch
    header = sketch_header(sketch)
    state_shape = sketch._state().shape
    owns_pool = pool is None
    if owns_pool:
        pool = WorkerPool(0)
    key_block = counter_block = None
    try:
        ranges = _chunk_ranges(int(keys.size), shards, pool.workers, chunk_size)
        key_block = SharedBlock.create((int(keys.size),), np.int64)
        key_block.array[...] = keys
        counter_block = SharedBlock.create((len(ranges),) + state_shape, np.float64)
        tasks = [
            PartialUpdateTask(
                index=index,
                header=header,
                shm_keys=key_block.descriptor,
                keys_range=key_range,
                shm_counters=counter_block.descriptor,
            )
            for index, key_range in enumerate(ranges)
        ]
        pool.map(run_partial_update, tasks)
        reduced = reduce_counter_tree(counter_block.array)
        sketch._state()[...] += reduced
    finally:
        if owns_pool:
            pool.close()
        for block in (key_block, counter_block):
            if block is not None:
                block.destroy()
    return sketch
