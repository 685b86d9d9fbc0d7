"""Deterministic fault injection for the resilience test harness.

:class:`ChaosInjector` sits between an envelope stream and a
:class:`~repro.resilience.runtime.StreamRuntime` and injects the fault
classes the runtime claims to survive:

* **crash** — raise :class:`SimulatedCrash` between two chunks (the
  process "dies"; the harness recovers from the newest checkpoint);
* **truncate** — deliver an envelope whose payload lost its tail while
  the declared count/CRC still describe the full chunk (a torn read; the
  runtime must raise :class:`~repro.errors.StreamIntegrityError`);
* **duplicate** — deliver the same envelope twice (at-least-once
  delivery; the runtime must apply it exactly once);
* **corrupt** — flip bytes in the newest checkpoint file right before a
  crash (disk corruption; recovery must detect it and fall back).

All decisions come from one seeded generator and each fault fires at most
once per chunk sequence, so a replayed stream after recovery re-delivers
the previously faulted chunk *intact* — faults are transient, runs
terminate, and the whole schedule is reproducible from the seed.
:func:`run_until_complete` is the crash-recovery driver used by the tests
and the CI chaos matrix.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

from ..errors import CheckpointError, ConfigurationError, StreamIntegrityError
from ..rng import SeedLike, as_generator
from .checkpoint import CheckpointManager
from .runtime import ChunkEnvelope, StreamRuntime

__all__ = [
    "SimulatedCrash",
    "ResultDropped",
    "ChaosInjector",
    "run_until_complete",
    "WorkerFault",
    "ParallelChaosPlan",
    "make_parallel_chaos_plan",
    "ChaosShardWorker",
]


class SimulatedCrash(RuntimeError):
    """Injected process death.

    Deliberately *not* a :class:`~repro.errors.ReproError`: production
    code must never catch it by accident while handling typed pipeline
    errors.
    """


class ResultDropped(SimulatedCrash):
    """Injected transport loss: the shard's work finished but its result
    never reached the coordinator (a dropped pipe message)."""


class ChaosInjector:
    """Seeded, transient fault injector for envelope streams.

    Parameters
    ----------
    seed:
        Seeds the fault schedule; the same seed produces the same faults
        at the same chunk sequences, every run.
    crash_rate, truncate_rate, duplicate_rate:
        Per-chunk probability of each fault class (a chunk draws each
        independently, at most one fault per chunk wins, in the order
        crash → truncate → duplicate).
    corrupt_rate:
        Probability that a crash is preceded by byte-flipping the newest
        checkpoint file (needs *checkpoint_dir*).
    checkpoint_dir:
        Where :meth:`corrupt_latest_checkpoint` finds snapshots.
    max_faults:
        Hard cap on total injected faults (safety net guaranteeing
        progress even with rates close to 1).
    """

    __slots__ = (
        "crash_rate",
        "truncate_rate",
        "duplicate_rate",
        "corrupt_rate",
        "checkpoint_dir",
        "max_faults",
        "faults",
        "_rng",
        "_decided",
    )

    def __init__(
        self,
        seed: SeedLike,
        *,
        crash_rate: float = 0.0,
        truncate_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        checkpoint_dir=None,
        max_faults: Optional[int] = None,
    ) -> None:
        for name, rate in (
            ("crash_rate", crash_rate),
            ("truncate_rate", truncate_rate),
            ("duplicate_rate", duplicate_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0 <= rate <= 1:
                raise ConfigurationError(f"{name} must be in [0, 1], got {rate}")
        if corrupt_rate > 0 and checkpoint_dir is None:
            raise ConfigurationError(
                "corrupt_rate needs a checkpoint_dir to corrupt"
            )
        if max_faults is not None and max_faults < 0:
            raise ConfigurationError(f"max_faults must be >= 0, got {max_faults}")
        self.crash_rate = float(crash_rate)
        self.truncate_rate = float(truncate_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.corrupt_rate = float(corrupt_rate)
        self.checkpoint_dir = checkpoint_dir
        self.max_faults = max_faults
        #: Tally of injected faults by kind.
        self.faults: dict = {
            "crash": 0,
            "truncate": 0,
            "duplicate": 0,
            "corrupt": 0,
        }
        self._rng = as_generator(seed)
        # sequence -> decided fault kind (or None); drawn once per chunk so
        # the schedule is stable across post-recovery replays.
        self._decided: dict = {}

    # ------------------------------------------------------------------

    @property
    def total_faults(self) -> int:
        """Faults injected so far, across all kinds."""
        return sum(self.faults.values())

    def _decide(self, sequence: int) -> Optional[str]:
        if sequence in self._decided:
            # Already decided (and, if faulty, already injected): replays
            # of this chunk pass through clean — faults are transient.
            return None
        draws = self._rng.random(4)
        if draws[0] < self.crash_rate:
            kind = "crash"
        elif draws[1] < self.truncate_rate:
            kind = "truncate"
        elif draws[2] < self.duplicate_rate:
            kind = "duplicate"
        else:
            kind = None
        if kind == "crash" and draws[3] < self.corrupt_rate:
            kind = "corrupt"
        if kind is not None and (
            self.max_faults is not None and self.total_faults >= self.max_faults
        ):
            kind = None
        self._decided[sequence] = kind
        return kind

    def wrap(self, envelopes: Iterable[ChunkEnvelope]) -> Iterator[ChunkEnvelope]:
        """Deliver *envelopes* with faults injected per the seeded schedule."""
        for envelope in envelopes:
            kind = self._decide(envelope.sequence)
            if kind is None:
                yield envelope
                continue
            self.faults[kind] += 1
            if kind == "corrupt":
                self.corrupt_latest_checkpoint()
                raise SimulatedCrash(
                    f"injected crash (with checkpoint corruption) before "
                    f"chunk {envelope.sequence}"
                )
            if kind == "crash":
                raise SimulatedCrash(
                    f"injected crash before chunk {envelope.sequence}"
                )
            if kind == "truncate":
                cut = max(0, envelope.count - 1 - int(self._rng.integers(0, 3)))
                yield ChunkEnvelope(
                    sequence=envelope.sequence,
                    keys=envelope.keys[:cut],
                    count=envelope.count,
                    crc32=envelope.crc32,
                )
                continue
            # duplicate: deliver intact, twice.
            yield envelope
            yield envelope

    def corrupt_latest_checkpoint(self) -> Optional[str]:
        """Flip bytes in the newest checkpoint file; returns its path.

        Returns ``None`` when no checkpoint exists yet.  The flip hits the
        middle of the file, which lands in the compressed payload or the
        manifest and must be caught by the CRC checks on load.
        """
        if self.checkpoint_dir is None:
            raise ConfigurationError("injector was built without a checkpoint_dir")
        paths = CheckpointManager(self.checkpoint_dir).paths()
        if not paths:
            return None
        target = paths[-1]
        size = os.path.getsize(target)
        with open(target, "r+b") as handle:
            handle.seek(size // 2)
            chunk = handle.read(8)
            handle.seek(size // 2)
            handle.write(bytes(byte ^ 0xFF for byte in chunk))
        return str(target)

    def __repr__(self) -> str:
        return (
            f"ChaosInjector(crash_rate={self.crash_rate}, "
            f"truncate_rate={self.truncate_rate}, "
            f"duplicate_rate={self.duplicate_rate}, "
            f"corrupt_rate={self.corrupt_rate}, faults={self.faults})"
        )


def run_until_complete(
    make_runtime: Callable[[], StreamRuntime],
    make_stream: Callable[[], Iterable],
    *,
    checkpoint_dir=None,
    injector: Optional[ChaosInjector] = None,
    max_restarts: int = 100,
) -> tuple:
    """Drive a runtime over a faulty stream to completion, recovering as needed.

    *make_runtime* builds a fresh runtime (used at cold start and when no
    usable checkpoint survives); *make_stream* re-creates the full
    envelope stream for every attempt (at-least-once redelivery from the
    source).  A :class:`SimulatedCrash` abandons the runtime object and
    recovers from the newest intact checkpoint in *checkpoint_dir*; a
    :class:`~repro.errors.StreamIntegrityError` (torn chunk) keeps the
    runtime and simply replays the stream, relying on duplicate-skipping.
    Returns ``(runtime, restarts)``.
    """
    if max_restarts < 0:
        raise ConfigurationError(f"max_restarts must be >= 0, got {max_restarts}")
    runtime = make_runtime()
    restarts = 0
    while True:
        stream = make_stream()
        if injector is not None:
            stream = injector.wrap(stream)
        try:
            runtime.run(stream)
            return runtime, restarts
        except StreamIntegrityError:
            restarts += 1
            if restarts > max_restarts:
                raise
            # Runtime state is intact (the torn chunk was never applied);
            # replay the stream and let duplicate-skipping fast-forward.
        except SimulatedCrash:
            restarts += 1
            if restarts > max_restarts:
                raise
            if checkpoint_dir is None:
                runtime = make_runtime()
                continue
            try:
                runtime = StreamRuntime.recover(
                    checkpoint_dir,
                    checkpoint_every=runtime.checkpoint_every,
                    keep_checkpoints=(
                        runtime.checkpoint_manager.keep
                        if runtime.checkpoint_manager is not None
                        else 2
                    ),
                    governor=runtime.governor,
                    hardener=runtime.hardener,
                    clock=runtime.clock,
                )
            except CheckpointError:
                # Nothing usable on disk (all snapshots corrupt or none
                # written yet): start over from scratch.
                runtime = make_runtime()


# ----------------------------------------------------------------------
# Process-pool fault injection for the sharded engine
# ----------------------------------------------------------------------

#: Fault classes a pool worker can suffer, in the order the sharded
#: engine's recovery paths are documented in ``docs/ROBUSTNESS.md``.
WORKER_FAULT_KINDS = ("kill", "hang", "slow", "drop", "corrupt_slot")


@dataclass(frozen=True)
class WorkerFault:
    """One injected fault for a specific ``(shard, attempt)`` dispatch.

    * ``kill`` — the worker dies to ``SIGKILL`` mid-dispatch (breaks the
      whole ``ProcessPoolExecutor``; the pool revives and the supervisor
      retries every poisoned shard);
    * ``hang`` — the worker stalls for *duration* seconds before
      crashing (an eventual OOM-kill); with a deadline armed the
      supervisor abandons it as soon as its heartbeat goes quiet;
    * ``slow`` — the worker sleeps *duration* seconds, then completes
      normally (a straggler; the supervisor waits for it);
    * ``drop`` — the shard's work completes (counters written) but the
      result raises :class:`ResultDropped` instead of returning (lost
      transport message; the retry writes its own slot);
    * ``corrupt_slot`` — the worker scribbles NaN over its shared
      counter slot and crashes (torn write; the retry writes its own
      slot, and the torn one is never read).
    """

    kind: str
    duration: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in WORKER_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown worker fault kind {self.kind!r}; "
                f"expected one of {WORKER_FAULT_KINDS}"
            )
        if self.duration < 0:
            raise ConfigurationError(
                f"fault duration must be >= 0, got {self.duration}"
            )


@dataclass(frozen=True)
class ParallelChaosPlan:
    """A seeded, picklable fault schedule keyed by ``(shard, attempt)``.

    Attempts are the supervisor's per-shard dispatch ordinals, so a
    retried dispatch sees a *fresh* key — faults are
    transient exactly like :class:`ChaosInjector`'s, and a plan whose
    faults all target early attempts provably lets every shard finish
    within the retry allowance.
    """

    faults: tuple = ()

    def fault_for(self, shard: int, attempt: int) -> Optional[WorkerFault]:
        """The fault (if any) scheduled for this dispatch."""
        for (fault_shard, fault_attempt), fault in self.faults:
            if fault_shard == shard and fault_attempt == attempt:
                return fault
        return None

    @property
    def total_faults(self) -> int:
        return len(self.faults)


def make_parallel_chaos_plan(
    seed: SeedLike,
    shards: int,
    *,
    kinds: tuple = ("kill", "hang", "slow", "drop"),
    rate: float = 0.35,
    attempts: int = 1,
    duration: float = 0.05,
    max_faults: Optional[int] = None,
) -> ParallelChaosPlan:
    """Draw a reproducible fault schedule for a sharded run.

    Each of the first *attempts* dispatch ordinals of each shard draws an
    independent Bernoulli(*rate*) fault whose kind is picked uniformly
    from *kinds*.  The same seed always yields the same plan.
    """
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    if not 0 <= rate <= 1:
        raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
    if attempts < 0:
        raise ConfigurationError(f"attempts must be >= 0, got {attempts}")
    if not kinds:
        raise ConfigurationError("kinds must name at least one fault class")
    for kind in kinds:
        if kind not in WORKER_FAULT_KINDS:
            raise ConfigurationError(
                f"unknown worker fault kind {kind!r}; "
                f"expected one of {WORKER_FAULT_KINDS}"
            )
    rng = as_generator(seed)
    faults = []
    for shard in range(shards):
        for attempt in range(attempts):
            if float(rng.random()) < rate:
                kind = kinds[int(rng.integers(0, len(kinds)))]
                faults.append(((shard, attempt), WorkerFault(kind, duration)))
    if max_faults is not None:
        faults = faults[: max(0, int(max_faults))]
    return ParallelChaosPlan(faults=tuple(faults))


class ChaosShardWorker:
    """A picklable shard worker that executes a :class:`ParallelChaosPlan`.

    Passed to ``run_sharded_sketch(..., _worker=ChaosShardWorker(plan))``;
    each dispatch looks up its ``(shard, attempt)`` fault and misbehaves
    accordingly before/instead of delegating to the real
    :func:`~repro.parallel.worker.run_shard` (imported lazily — the
    parallel package imports this module).

    ``kill`` faults raise ``SIGKILL`` in the *calling process* — only
    schedule them when the worker runs in a real pool process, never
    inline.
    """

    __slots__ = ("plan",)

    def __init__(self, plan: ParallelChaosPlan) -> None:
        self.plan = plan

    def __call__(self, task):
        from ..parallel.shm import SharedBlock
        from ..parallel.worker import run_shard

        fault = self.plan.fault_for(task.index, task.attempt)
        if fault is None:
            return run_shard(task)
        if fault.kind == "kill":
            signal.raise_signal(signal.SIGKILL)
        if fault.kind == "hang":
            time.sleep(fault.duration)
            raise SimulatedCrash(
                f"shard {task.index} attempt {task.attempt} hung for "
                f"{fault.duration:.6g}s and was culled"
            )
        if fault.kind == "slow":
            time.sleep(fault.duration)
            return run_shard(task)
        if fault.kind == "drop":
            run_shard(task)
            raise ResultDropped(
                f"shard {task.index} attempt {task.attempt} finished but "
                "its result was dropped in transit"
            )
        # corrupt_slot: scribble over this dispatch's output slot, then die.
        block = SharedBlock.attach(task.shm_counters)
        try:
            block.array[task.slot] = float("nan")
        finally:
            block.close()
        raise SimulatedCrash(
            f"shard {task.index} attempt {task.attempt} tore its counter "
            "slot and crashed"
        )
