"""BackoffPolicy schedules and ShardSupervisor lifecycle, fully faked.

Every test here runs on an injected fake clock and hand-built dispatch
handles, so deadlines and retries are exercised in microseconds of real
time and with exact, deterministic timings.
"""

from __future__ import annotations

from concurrent.futures import CancelledError

import pytest

from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    RetryExhaustedError,
)
from repro.observability import Observer
from repro.resilience.distributed import (
    BackoffPolicy,
    ShardFailure,
    ShardSupervisor,
    widened_join_variance,
    widened_self_join_variance,
)

# ----------------------------------------------------------------------
# Fakes
# ----------------------------------------------------------------------


class FakeClock:
    """Monotonic clock that only moves when the supervisor waits."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


class FakeFuture:
    """A future whose fate the test scripts up front."""

    def __init__(self, clock: FakeClock, *, result=None, error=None, never=False):
        self._clock = clock
        self._result = result
        self._error = error
        self._never = never
        self.cancelled = False

    def done(self) -> bool:
        return self.cancelled or not self._never

    def cancel(self) -> bool:
        self.cancelled = True
        return True

    def result(self, timeout=None):
        if self.cancelled:
            raise CancelledError()
        if self._never:
            # A real future would block for *timeout* then time out.
            self._clock.sleep(timeout if timeout is not None else 3600.0)
            raise TimeoutError("still running")
        if self._error is not None:
            raise self._error
        return self._result


class DueFuture(FakeFuture):
    """A future that finishes once the fake clock passes *due*."""

    def __init__(self, clock: FakeClock, due: float, result=None):
        super().__init__(clock, result=result, never=True)
        self._due = due

    def done(self) -> bool:
        return self._clock.now > self._due or super().done()

    def result(self, timeout=None):
        if not self.cancelled and self._clock.now > self._due:
            return self._result
        return super().result(timeout)


class Handle:
    def __init__(self, future, progress=None):
        self.future = future
        self.progress = progress


class ScriptedDispatch:
    """Dispatch callable returning pre-scripted handles per (shard, attempt).

    *script* maps ``(shard, attempt)`` to a handle factory; unscripted
    dispatches succeed immediately with the value ``(shard, attempt)``.
    Every call is recorded for assertions on ordinals/flags.
    """

    def __init__(self, clock: FakeClock, script=None):
        self.clock = clock
        self.script = dict(script or {})
        self.calls = []

    def __call__(self, shard, attempt, exclusive):
        self.calls.append((shard, attempt, exclusive))
        factory = self.script.get((shard, attempt))
        if factory is None:
            return Handle(FakeFuture(self.clock, result=(shard, attempt)))
        return factory()


def busy_until(clock: FakeClock, due: float) -> Handle:
    """A started dispatch whose heartbeat ticks every poll until *due*."""
    return Handle(
        DueFuture(clock, due, result="busy"),
        progress=lambda: 1 + round(clock.now * 1000),
    )


def make_supervisor(clock: FakeClock, **kwargs) -> ShardSupervisor:
    kwargs.setdefault("clock", clock)
    return ShardSupervisor(kwargs.pop("shards", 3), **kwargs)


# ----------------------------------------------------------------------
# BackoffPolicy / BackoffSchedule
# ----------------------------------------------------------------------


class TestBackoffPolicy:
    def test_exponential_growth_with_cap(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=0.5, jitter=0.0)
        schedule = policy.schedule()
        delays = [schedule.next_delay() for _ in range(5)]
        assert delays == [0.1, 0.2, 0.4, 0.5, 0.5]
        assert schedule.attempts == 5
        assert schedule.total_waited == pytest.approx(1.7)

    def test_same_seed_same_schedule(self):
        policy = BackoffPolicy(base=0.05, jitter=0.5, seed=42)
        first = [policy.schedule().next_delay() for _ in range(1)]
        a = policy.schedule()
        b = policy.schedule()
        assert [a.next_delay() for _ in range(6)] == [
            b.next_delay() for _ in range(6)
        ]
        assert first[0] == policy.schedule().next_delay()

    def test_different_seeds_differ(self):
        policy = BackoffPolicy(base=0.05, jitter=0.9)
        a = [policy.schedule(seed=1).next_delay() for _ in range(1)]
        b = [policy.schedule(seed=2).next_delay() for _ in range(1)]
        assert a != b

    def test_jitter_only_shrinks_within_bounds(self):
        policy = BackoffPolicy(base=1.0, factor=1.0, cap=1.0, jitter=0.3, seed=7)
        schedule = policy.schedule()
        for _ in range(20):
            assert 0.7 <= schedule.next_delay() <= 1.0

    def test_budget_exhaustion_yields_none_and_stops_iteration(self):
        policy = BackoffPolicy(base=0.1, factor=2.0, cap=10.0, jitter=0.0, budget=0.35)
        schedule = policy.schedule()
        assert list(schedule) == [0.1, 0.2]  # next (0.4) would burst 0.35
        assert schedule.next_delay() is None
        assert schedule.total_waited == pytest.approx(0.3)

    def test_zero_jitter_draws_no_randomness(self):
        # The schedule must be usable without entropy when jitter is off.
        schedule = BackoffPolicy(base=0.5, jitter=0.0).schedule()
        assert schedule.next_delay() == 0.5

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"base": -0.1},
            {"factor": 0.5},
            {"cap": -1.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
            {"budget": -2.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BackoffPolicy(**kwargs)


# ----------------------------------------------------------------------
# ShardSupervisor — happy path and retries
# ----------------------------------------------------------------------


class TestSupervisorBasics:
    def test_all_shards_win_first_try(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(clock)
        outcome = make_supervisor(clock).run(dispatch)
        assert set(outcome.winners) == {0, 1, 2}
        assert outcome.lost == {}
        assert outcome.retries == 0
        assert dispatch.calls == [(0, 0, False), (1, 0, False), (2, 0, False)]

    def test_failures_consume_retries_then_win(self):
        clock = FakeClock()
        boom = RuntimeError("boom")
        dispatch = ScriptedDispatch(
            clock,
            {
                (1, 0): lambda: Handle(FakeFuture(clock, error=boom)),
                (1, 1): lambda: Handle(FakeFuture(clock, error=boom)),
            },
        )
        outcome = make_supervisor(clock, max_retries=2).run(dispatch)
        assert set(outcome.winners) == {0, 1, 2}
        assert outcome.retries == 2
        # Attempt ordinals are per-shard and dense.
        assert [c for c in dispatch.calls if c[0] == 1] == [
            (1, 0, False),
            (1, 1, False),
            (1, 2, False),
        ]
        # Each retry launched as soon as its failure was seen.
        assert clock.now == 0.0

    def test_exhaustion_raises_with_cause(self):
        clock = FakeClock()
        boom = RuntimeError("boom")
        dispatch = ScriptedDispatch(
            clock,
            {(0, a): (lambda: Handle(FakeFuture(clock, error=boom))) for a in range(3)},
        )
        with pytest.raises(RetryExhaustedError, match=r"shard 0 failed 3 time\(s\)"):
            make_supervisor(clock, shards=2, max_retries=2).run(dispatch)


# ----------------------------------------------------------------------
# Degradation
# ----------------------------------------------------------------------


class TestDegradation:
    def test_exhausted_shard_is_recorded_not_raised(self):
        clock = FakeClock()
        boom = RuntimeError("dead node")
        dispatch = ScriptedDispatch(
            clock,
            {(2, a): (lambda: Handle(FakeFuture(clock, error=boom))) for a in range(2)},
        )
        outcome = make_supervisor(
            clock, max_retries=1, degradation="degrade"
        ).run(dispatch)
        assert set(outcome.winners) == {0, 1}
        failure = outcome.lost[2]
        assert isinstance(failure, ShardFailure)
        assert failure.kind == "error" and failure.attempts == 2
        assert "dead node" in failure.error

    def test_losing_every_shard_still_raises(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {
                (s, a): (lambda: Handle(FakeFuture(clock, error=RuntimeError("x"))))
                for s in range(2)
                for a in range(1)
            },
        )
        with pytest.raises(RetryExhaustedError, match="nothing to degrade to"):
            make_supervisor(
                clock, shards=2, max_retries=0, degradation="degrade"
            ).run(dispatch)

    def test_degraded_metric_counted(self):
        clock = FakeClock()
        obs = Observer(clock)
        dispatch = ScriptedDispatch(
            clock,
            {(0, 0): lambda: Handle(FakeFuture(clock, error=RuntimeError("x")))},
        )
        make_supervisor(
            clock, shards=2, max_retries=0, degradation="degrade", observer=obs
        ).run(dispatch)
        assert obs.metrics.snapshot().counter_value("parallel.shard.degraded") == 1


# ----------------------------------------------------------------------
# Deadlines and heartbeats
# ----------------------------------------------------------------------


class TestDeadlines:
    def test_stalled_dispatch_is_abandoned(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {(0, 0): lambda: Handle(FakeFuture(clock, never=True))},
        )
        outcome = make_supervisor(
            clock,
            shards=2,
            max_retries=1,
            deadline=0.05,
            poll_interval=0.01,
            degradation="degrade",
        ).run(dispatch)
        # The retry (attempt 1) is unscripted and succeeds.
        assert set(outcome.winners) == {0, 1}
        assert outcome.deadline_failures == 1
        assert outcome.retries == 1

    def test_deadline_retry_is_exclusive_after_taint(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {(0, 0): lambda: Handle(FakeFuture(clock, never=True))},
        )
        make_supervisor(
            clock, shards=1, max_retries=1, deadline=0.05, poll_interval=0.01
        ).run(dispatch)
        assert dispatch.calls == [(0, 0, False), (0, 1, True)]

    def test_heartbeat_progress_defers_the_deadline(self):
        clock = FakeClock()
        beats = {"n": 0}

        def progress():
            beats["n"] += 1  # the worker advances every poll: never idle
            return beats["n"]

        future = FakeFuture(clock, never=True)
        calls = {"n": 0}

        def dispatch(shard, attempt, exclusive):
            calls["n"] += 1
            if calls["n"] == 1:
                return Handle(future, progress=progress)
            return Handle(FakeFuture(clock, result="late"))

        supervisor = make_supervisor(
            clock, shards=1, max_retries=0, deadline=0.05, poll_interval=0.02
        )

        # Flip the worker to "done" once the wall clock shows the deadline
        # alone would long since have fired without the heartbeat.
        original_result = future.result

        def result(timeout=None):
            if clock.now > 0.5:
                return "finally"
            return original_result(timeout)

        future.result = result
        future_done = future.done

        def done():
            return clock.now > 0.5 or future_done()

        future.done = done
        outcome = supervisor.run(dispatch)
        assert calls["n"] == 1  # never redispatched: heartbeats kept it alive
        assert outcome.deadline_failures == 0

    def test_unstarted_dispatch_runs_no_deadline(self):
        # Shard 1's heartbeat reads 0 — queued behind shard 0's busy
        # worker — for ten deadlines; then it starts and finishes.
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {
                (0, 0): lambda: busy_until(clock, 0.5),
                (1, 0): lambda: Handle(
                    DueFuture(clock, 0.55, result="done"),
                    progress=lambda: int(clock.now > 0.5),
                ),
            },
        )
        outcome = make_supervisor(
            clock, shards=2, max_retries=2, deadline=0.05, poll_interval=0.01
        ).run(dispatch)
        assert clock.now > 0.55
        assert outcome.deadline_failures == 0
        assert outcome.retries == 0
        assert dispatch.calls == [(0, 0, False), (1, 0, False)]

    def test_deadline_runs_from_the_start_mark(self):
        # Queued until 0.3, when shard 0 frees its worker; then started
        # and silent: culled one deadline after the start, not after the
        # dispatch.
        clock = FakeClock()
        retried_at = []

        def retry():
            retried_at.append(clock.now)
            return Handle(FakeFuture(clock, result="retry"))

        dispatch = ScriptedDispatch(
            clock,
            {
                (0, 0): lambda: busy_until(clock, 0.3),
                (1, 0): lambda: Handle(
                    FakeFuture(clock, never=True),
                    progress=lambda: int(clock.now > 0.3),
                ),
                (1, 1): retry,
            },
        )
        outcome = make_supervisor(
            clock, shards=2, max_retries=1, deadline=0.05, poll_interval=0.01
        ).run(dispatch)
        assert outcome.deadline_failures == 1
        assert 0.35 <= retried_at[0] <= 0.38

    def test_queued_dispatches_expire_once_the_run_stalls(self):
        # Shard 0 starts and hangs on the only worker; nothing else can
        # start.  Queued dispatches expire one deadline after the last
        # progress, so the retries run out instead of waiting for the
        # hang (these futures would only finish at t=10).
        clock = FakeClock()

        def queued():
            return Handle(DueFuture(clock, 10.0), progress=lambda: 0)

        script = {
            (shard, attempt): queued for shard in range(3) for attempt in range(2)
        }
        script[(0, 0)] = lambda: Handle(DueFuture(clock, 10.0), progress=lambda: 1)
        dispatch = ScriptedDispatch(clock, script)
        with pytest.raises(RetryExhaustedError):
            make_supervisor(
                clock, shards=3, max_retries=1, deadline=0.05, poll_interval=0.01
            ).run(dispatch)
        assert clock.now < 0.2

    def test_exhausted_deadline_records_deadline_kind(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {
                (0, 0): lambda: Handle(FakeFuture(clock, never=True)),
                (0, 1): lambda: Handle(FakeFuture(clock, never=True)),
            },
        )
        outcome = make_supervisor(
            clock,
            shards=2,
            max_retries=1,
            deadline=0.05,
            poll_interval=0.01,
            degradation="degrade",
        ).run(dispatch)
        failure = outcome.lost[0]
        assert failure.kind == "deadline"
        assert "DeadlineExceededError" in failure.error

    def test_deadline_failure_raises_deadline_cause(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {(0, 0): lambda: Handle(FakeFuture(clock, never=True))},
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            make_supervisor(
                clock, shards=1, max_retries=0, deadline=0.05, poll_interval=0.01
            ).run(dispatch)
        assert isinstance(excinfo.value.__cause__, DeadlineExceededError)


# ----------------------------------------------------------------------
# Validation and widened-variance helpers
# ----------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"max_retries": -1},
            {"deadline": 0.0},
            {"degradation": "explode"},
            {"poll_interval": 0.0},
        ],
    )
    def test_constructor_rejects(self, kwargs):
        shards = kwargs.pop("shards", 2)
        with pytest.raises(ConfigurationError):
            ShardSupervisor(shards, **kwargs)


class TestWidenedVariance:
    def test_no_loss_no_shedding_is_free(self):
        assert widened_self_join_variance(100.0, survived_fraction=1.0) == 0.0
        assert (
            widened_join_variance(100.0, survived_fraction=1.0) == 0.0
        )

    def test_more_loss_more_variance(self):
        qs = [1.0, 0.75, 0.5, 0.25]
        variances = [
            widened_self_join_variance(1000.0, survived_fraction=q) for q in qs
        ]
        assert variances == sorted(variances)
        joins = [
            widened_join_variance(1000.0, survived_fraction=q) for q in qs
        ]
        assert joins == sorted(joins)

    def test_shedding_term_appears_below_p_one(self):
        full = widened_self_join_variance(
            1000.0, survived_fraction=0.5, probability=0.5, population=100.0
        )
        lossless = widened_self_join_variance(1000.0, survived_fraction=0.5)
        assert full > lossless

    @pytest.mark.parametrize("q", [0.0, -0.5, 1.5])
    def test_fraction_validation(self, q):
        with pytest.raises(ConfigurationError):
            widened_self_join_variance(10.0, survived_fraction=q)
        with pytest.raises(ConfigurationError):
            widened_join_variance(10.0, survived_fraction=q)
