"""Degradation-aware fault tolerance for the sharded engine.

This module is the coordinator-side control plane for distributed scans:

* :class:`BackoffPolicy` / :class:`BackoffSchedule` — one shared, seeded
  retry-delay policy (exponential growth, cap, optional cumulative wait
  budget, deterministic jitter drawn through :mod:`repro.rng`) that
  replaces ad-hoc ``sleep(base * 2 ** k)`` loops.  Same seed, same
  schedule — retry timing is as reproducible as everything else here.
  :func:`~repro.resilience.hardening.retrying_read_stream` spaces its
  re-reads with it.
* :class:`ShardSupervisor` — deadlines, heartbeat-driven hang detection,
  bounded retries (a failed shard runs again from its first chunk, which
  is bit-identical because shard work is deterministic), and graceful
  degradation: with ``degradation="degrade"`` a shard that exhausts its
  retries is recorded as a :class:`ShardFailure` instead of sinking the
  whole run.
* :func:`widened_self_join_variance` / :func:`widened_join_variance` —
  conservative runtime bounds on the extra estimator variance a degraded
  (partial-shard) run pays, mirroring the exact closed forms in
  :func:`repro.variance.sampling.degraded_bernoulli_self_join_variance`
  but computable from plug-in estimates alone.

The paper's own machinery justifies degradation: under hash partitioning
every key lands on exactly one shard, so losing shards is equivalent to
Bernoulli-sampling the *key space* with survival probability
``q = surviving_shards / shards``.  A degraded run therefore returns the
survivor estimate scaled by ``1/q`` (unbiased, Prop 9-style) and widens
its confidence interval by the corresponding variance terms — exactly
the "estimate from a sampled sub-stream, pay with quantified variance"
trade the source paper makes for load shedding.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
)
from ..observability import as_observer
from ..rng import SeedLike, as_generator

__all__ = [
    "BackoffPolicy",
    "BackoffSchedule",
    "ShardFailure",
    "SupervisionOutcome",
    "ShardSupervisor",
    "widened_self_join_variance",
    "widened_join_variance",
]


# ----------------------------------------------------------------------
# Backoff
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BackoffPolicy:
    """Seeded exponential backoff with cap, budget, and deterministic jitter.

    ``delay(k) = min(cap, base * factor**k) * (1 - jitter * u_k)`` where
    ``u_k`` is the k-th uniform draw of a generator seeded from *seed* —
    the same seed always produces the same schedule, so retry timing is
    reproducible and testable.  *budget* bounds the cumulative wait of
    one :class:`BackoffSchedule`; once the next delay would exceed it the
    schedule reports exhaustion (``next_delay() is None``) instead of
    sleeping, turning pathological retry storms into a bounded cost.

    The policy object is immutable and shared; per-shard state lives in
    the :class:`BackoffSchedule` instances it hands out.
    """

    base: float = 0.05
    factor: float = 2.0
    cap: float = 5.0
    jitter: float = 0.0
    budget: Optional[float] = None
    seed: SeedLike = 0

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ConfigurationError(f"base delay must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ConfigurationError(f"factor must be >= 1, got {self.factor}")
        if self.cap < 0:
            raise ConfigurationError(f"cap must be >= 0, got {self.cap}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be in [0, 1], got {self.jitter}"
            )
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError(
                f"budget must be >= 0, got {self.budget}"
            )

    def schedule(self, seed: SeedLike = None) -> "BackoffSchedule":
        """Start a fresh schedule (pass a spawned seed for substreams)."""
        return BackoffSchedule(self, self.seed if seed is None else seed)


class BackoffSchedule:
    """Stateful delay stream produced by :meth:`BackoffPolicy.schedule`."""

    __slots__ = ("_policy", "_rng", "_attempts", "_total")

    def __init__(self, policy: BackoffPolicy, seed: SeedLike) -> None:
        self._policy = policy
        self._rng = as_generator(seed)
        self._attempts = 0
        self._total = 0.0

    @property
    def attempts(self) -> int:
        """Delays handed out so far."""
        return self._attempts

    @property
    def total_waited(self) -> float:
        """Cumulative seconds of delay handed out so far."""
        return self._total

    def next_delay(self) -> Optional[float]:
        """The next delay in seconds, or ``None`` once *budget* is spent."""
        policy = self._policy
        raw = min(policy.cap, policy.base * policy.factor**self._attempts)
        if policy.jitter:
            raw *= 1.0 - policy.jitter * float(self._rng.random())
        if policy.budget is not None and self._total + raw > policy.budget:
            return None
        self._attempts += 1
        self._total += raw
        return raw

    def __iter__(self):
        while True:
            delay = self.next_delay()
            if delay is None:
                return
            yield delay

    def __repr__(self) -> str:
        return (
            f"BackoffSchedule(attempts={self._attempts}, "
            f"total_waited={self._total:.6g})"
        )


# ----------------------------------------------------------------------
# Supervision
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardFailure:
    """Plain-data record of one shard the supervisor gave up on.

    *kind* is ``"error"`` (every attempt raised) or ``"deadline"`` (the
    final attempt hung past its no-progress deadline).
    """

    shard: int
    attempts: int
    kind: str
    error: str


@dataclass
class SupervisionOutcome:
    """What :meth:`ShardSupervisor.run` hands back to the coordinator."""

    winners: Dict[int, Any] = field(default_factory=dict)
    lost: Dict[int, ShardFailure] = field(default_factory=dict)
    retries: int = 0
    deadline_failures: int = 0


class _Dispatch:
    """The one live dispatch of a shard the supervisor is waiting on."""

    __slots__ = ("shard", "handle", "progress_at", "progress_value")

    def __init__(self, shard: int, handle, now: float) -> None:
        self.shard = shard
        self.handle = handle
        self.progress_at = now
        self.progress_value: Optional[int] = None


class ShardSupervisor:
    """Coordinator-side shard lifecycle: deadlines, retries, loss.

    The supervisor is transport-agnostic: it drives an injected
    ``dispatch(shard, attempt)`` callable that returns a handle exposing
    ``handle.future`` (``done()`` / ``result()`` / ``cancel()``) and
    optionally ``handle.progress`` — a zero-argument callable reading that
    dispatch's heartbeat counter.  *attempt* is a per-shard dispatch
    ordinal (0 for the first launch, 1 for the first retry, ...), which is
    what the chaos harness keys its fault plans on.  An abandoned attempt
    may still be running and writing, so the dispatcher gives every
    ``(shard, attempt)`` its own output (the coordinator's counter slots).

    A failed shard runs again from its first chunk, as soon as its failure
    is seen.  Shard work depends only on the shard's keys and its spawned
    seed, so the retry's result is bit-identical to an undisturbed run.  A
    shard may fail ``max_retries`` times and be relaunched; the next
    failure exhausts it.  What *exhausted* means is the degradation knob:
    ``"fail"`` raises :class:`~repro.errors.RetryExhaustedError`
    immediately, ``"degrade"`` records a :class:`ShardFailure` and keeps
    going (unless *every* shard is lost, which always raises).

    Hang detection uses heartbeats when the dispatch provides them: a
    dispatch whose progress counter does not move for *deadline* seconds
    is abandoned (kind ``"deadline"``).  A counter that reads 0 has not
    started: the dispatch is waiting for a worker, and its clock restarts
    whenever any dispatch of the run starts, ticks or finishes.  So a
    dispatch queued behind busy workers waits as long as they work, but
    once the whole run stalls — abandoned hangs hold every worker, or no
    worker starts — the queued dispatches expire one deadline later too.
    Without a heartbeat channel the deadline falls back to wall-clock
    time since dispatch.
    """

    def __init__(
        self,
        shards: int,
        *,
        max_retries: int = 2,
        deadline: Optional[float] = None,
        degradation: str = "fail",
        poll_interval: float = 0.005,
        observer=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if shards < 1:
            raise ConfigurationError(f"shards must be >= 1, got {shards}")
        if max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {max_retries}"
            )
        if deadline is not None and deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline}")
        if degradation not in ("fail", "degrade"):
            raise ConfigurationError(
                f'degradation must be "fail" or "degrade", got {degradation!r}'
            )
        if poll_interval <= 0:
            raise ConfigurationError(
                f"poll_interval must be > 0, got {poll_interval}"
            )
        self._shards = int(shards)
        self._max_retries = int(max_retries)
        self._deadline = deadline
        self._degradation = degradation
        self._poll_interval = float(poll_interval)
        self._observer = observer
        self._clock = clock

    # ------------------------------------------------------------------

    def run(self, dispatch) -> SupervisionOutcome:
        """Drive every shard to a winner or a recorded loss."""
        obs = as_observer(self._observer)
        with obs.span(
            "parallel.supervise",
            shards=self._shards,
            degradation=self._degradation,
        ):
            return self._run(dispatch, obs)

    def _run(self, dispatch, obs) -> SupervisionOutcome:
        outcome = SupervisionOutcome()
        active: List[_Dispatch] = []  # at most one live dispatch per shard
        failures = [0] * self._shards  # also the next attempt ordinal
        last_error: Dict[int, BaseException] = {}

        def launch(shard: int) -> None:
            handle = dispatch(shard, failures[shard])
            active.append(_Dispatch(shard, handle, self._clock()))

        def settle(shard: int, exc: BaseException, kind: str) -> None:
            """A shard's dispatch failed; retry, degrade, or raise."""
            last_error[shard] = exc
            failures[shard] += 1
            count = failures[shard]
            if kind == "deadline":
                outcome.deadline_failures += 1
                obs.counter("parallel.shard.deadline_expired").inc()
            if count <= self._max_retries:
                outcome.retries += 1
                obs.counter("parallel.shard.retries").inc()
                launch(shard)
            elif self._degradation == "degrade":
                outcome.lost[shard] = ShardFailure(
                    shard=shard,
                    attempts=count,
                    kind=kind,
                    error=repr(exc),
                )
                obs.counter("parallel.shard.degraded").inc()
            else:
                raise RetryExhaustedError(
                    f"shard {shard} failed {count} time(s); giving up"
                ) from exc

        for shard in range(self._shards):
            launch(shard)
        run_progress_at = self._clock()  # last start, tick or finish

        while active:
            progressed = False

            # 1. Reap finished dispatches.
            for record in list(active):
                future = record.handle.future
                if not future.done():
                    continue
                active.remove(record)
                progressed = True
                try:
                    future.result()
                except Exception as exc:
                    settle(record.shard, exc, "error")
                else:
                    outcome.winners[record.shard] = record.handle

            # 2. Abandon dispatches that made no progress for a deadline.
            if self._deadline is not None:
                now = self._clock()
                if progressed:
                    run_progress_at = now
                for record in active:
                    progress = getattr(record.handle, "progress", None)
                    if progress is None:
                        continue
                    value = progress()
                    if value != record.progress_value:
                        record.progress_value = value
                        record.progress_at = now
                        if value:
                            run_progress_at = now
                for record in list(active):
                    if record.progress_value == 0:
                        # Not started: it waits for a worker, and is hung
                        # only once the whole run is.
                        record.progress_at = max(
                            record.progress_at, run_progress_at
                        )
                    if now - record.progress_at <= self._deadline:
                        continue
                    active.remove(record)
                    record.handle.future.cancel()
                    progressed = True
                    settle(
                        record.shard,
                        DeadlineExceededError(
                            f"shard {record.shard} made no progress for more "
                            f"than {self._deadline:.6g}s"
                        ),
                        "deadline",
                    )

            if not progressed and active:
                self._wait(active[0])

        if len(outcome.lost) >= self._shards:
            final = last_error[max(last_error)] if last_error else None
            raise RetryExhaustedError(
                f"all {self._shards} shard(s) failed; nothing to degrade to"
            ) from final
        return outcome

    def _wait(self, record: _Dispatch) -> None:
        """Block on one live dispatch, at most one poll when deadlines run."""
        timeout = self._poll_interval if self._deadline is not None else None
        try:
            record.handle.future.result(timeout=timeout)
        except Exception:
            pass  # reaped (with attribution) on the next pass


# ----------------------------------------------------------------------
# Widened variance bounds for degraded estimates
# ----------------------------------------------------------------------


def _check_fraction(name: str, value: float, *, closed_low: bool) -> float:
    value = float(value)
    low_ok = value >= 0.0 if closed_low else value > 0.0
    if not (low_ok and value <= 1.0):
        bound = "[0, 1]" if closed_low else "(0, 1]"
        raise ConfigurationError(f"{name} must be in {bound}, got {value}")
    return value


def widened_self_join_variance(
    estimate: float,
    *,
    survived_fraction: float,
    probability: float = 1.0,
    population: float = 0.0,
) -> float:
    """Conservative variance bound for a degraded self-join estimate.

    The exact variance of the ``1/q``-scaled survivor estimator is
    ``(1-q)/q * F4 + V_p(f) / q`` (see
    :func:`repro.variance.sampling.degraded_bernoulli_self_join_variance`),
    but ``F4``/``F3`` are unobservable at runtime.  This bound substitutes
    the plug-in estimates the run *does* have — ``F2_hat`` (the degraded
    self-join estimate itself) and ``F1_hat`` (the scaled population) —
    using ``F4 <= F2**2``, ``F3 <= F2**1.5`` (power-mean/norm
    monotonicity for non-negative frequencies) and dropping the
    negative-signed Eq. 7 terms.  Every substitution only enlarges the
    bound, so Chebyshev intervals built from it over-cover; the Monte
    Carlo suite (``tests/test_variance_degraded.py``) checks both the
    exact form and the conservativeness of this plug-in.
    """
    q = _check_fraction("survived_fraction", survived_fraction, closed_low=False)
    p = _check_fraction("probability", probability, closed_low=False)
    f2 = max(float(estimate), 0.0)
    f1 = max(float(population), 0.0)
    key_loss = (1.0 - q) / q * f2 * f2
    if p >= 1.0:
        return key_loss
    f3 = f2**1.5
    shedding = (1.0 - p) / p**3 * (
        4.0 * p * p * f3
        + 2.0 * p * abs(1.0 - 3.0 * p) * f2
        + p * abs(2.0 - 3.0 * p) * f1
    )
    return key_loss + shedding / q


def widened_join_variance(
    estimate: float,
    *,
    survived_fraction: float,
    probability_f: float = 1.0,
    probability_g: float = 1.0,
    population_f: float = 0.0,
    population_g: float = 0.0,
) -> float:
    """Conservative variance bound for a degraded join-size estimate.

    Mirrors :func:`widened_self_join_variance` for the binary-join
    estimator: the key-loss term uses ``sum((f_i g_i)**2) <= J**2`` and
    the Eq. 6 shedding terms use ``sum(f g**2) <= J * G1`` and
    ``sum(f**2 g) <= J * F1`` (``max g <= G1`` for non-negative integer
    frequencies).  All substitutions enlarge the bound.
    """
    q = _check_fraction("survived_fraction", survived_fraction, closed_low=False)
    p_f = _check_fraction("probability_f", probability_f, closed_low=False)
    p_g = _check_fraction("probability_g", probability_g, closed_low=False)
    j = max(float(estimate), 0.0)
    f1 = max(float(population_f), 0.0)
    g1 = max(float(population_g), 0.0)
    key_loss = (1.0 - q) / q * j * j
    a = (1.0 - p_f) / p_f
    b = (1.0 - p_g) / p_g
    shedding = a * j * g1 + b * j * f1 + a * b * j
    return key_loss + shedding / q
