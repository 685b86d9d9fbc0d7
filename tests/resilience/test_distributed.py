"""BackoffPolicy schedules and ShardSupervisor lifecycle, fully faked.

Every test here runs on an injected fake clock/sleep and hand-built
dispatch handles, so deadlines, hedges, and backoff delays are exercised
in microseconds of real time and with exact, deterministic timings.
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

    def __call__(self, shard, attempt, resume, exclusive):
        self.calls.append((shard, attempt, resume, exclusive))
        factory = self.script.get((shard, attempt))
        if factory is None:
            return Handle(FakeFuture(self.clock, result=(shard, attempt)))
        return factory()


def make_supervisor(clock: FakeClock, **kwargs) -> ShardSupervisor:
    kwargs.setdefault("clock", clock)
    kwargs.setdefault("sleep", clock.sleep)
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
        assert outcome.retries == 0 and outcome.hedges == 0
        assert dispatch.calls == [
            (0, 0, False, False),
            (1, 0, False, False),
            (2, 0, False, False),
        ]

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
            (1, 0, False, False),
            (1, 1, False, False),
            (1, 2, False, False),
        ]

    def test_exhaustion_raises_with_cause(self):
        clock = FakeClock()
        boom = RuntimeError("boom")
        dispatch = ScriptedDispatch(
            clock,
            {(0, a): (lambda: Handle(FakeFuture(clock, error=boom))) for a in range(3)},
        )
        with pytest.raises(RetryExhaustedError, match=r"shard 0 failed 3 time\(s\)"):
            make_supervisor(clock, shards=2, max_retries=2).run(dispatch)

    def test_resume_flag_threads_through_retries(self):
        clock = FakeClock()
        dispatch = ScriptedDispatch(
            clock,
            {(0, 0): lambda: Handle(FakeFuture(clock, error=RuntimeError("x")))},
        )
        make_supervisor(clock, shards=1, resume_retries=True).run(dispatch)
        assert dispatch.calls == [(0, 0, False, False), (0, 1, True, False)]


class TestSupervisorBackoff:
    def test_backoff_delays_are_served_on_the_clock(self):
        clock = FakeClock()
        boom = RuntimeError("flaky")
        dispatch = ScriptedDispatch(
            clock,
            {
                (0, 0): lambda: Handle(FakeFuture(clock, error=boom)),
                (0, 1): lambda: Handle(FakeFuture(clock, error=boom)),
            },
        )
        policy = BackoffPolicy(base=0.2, factor=2.0, cap=5.0, jitter=0.0)
        outcome = make_supervisor(
            clock, shards=1, max_retries=2, backoff=policy
        ).run(dispatch)
        assert outcome.retries == 2
        assert outcome.backoff_wait == pytest.approx(0.2 + 0.4)
        assert clock.now >= 0.6  # the waits really elapsed

    def test_budget_exhaustion_fails_even_with_retries_left(self):
        clock = FakeClock()
        boom = RuntimeError("flaky")
        dispatch = ScriptedDispatch(
            clock,
            {(0, a): (lambda: Handle(FakeFuture(clock, error=boom))) for a in range(9)},
        )
        policy = BackoffPolicy(base=1.0, factor=2.0, jitter=0.0, budget=1.5)
        with pytest.raises(RetryExhaustedError, match="backoff budget"):
            make_supervisor(
                clock, shards=1, max_retries=8, backoff=policy
            ).run(dispatch)

    def test_budget_exhaustion_degrades_with_kind_budget(self):
        clock = FakeClock()
        boom = RuntimeError("flaky")
        dispatch = ScriptedDispatch(
            clock,
            {(0, a): (lambda: Handle(FakeFuture(clock, error=boom))) for a in range(9)},
        )
        policy = BackoffPolicy(base=1.0, factor=2.0, jitter=0.0, budget=1.5)
        outcome = make_supervisor(
            clock, shards=2, max_retries=8, backoff=policy, degradation="degrade"
        ).run(dispatch)
        assert outcome.lost[0].kind == "budget"
        assert set(outcome.winners) == {1}


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
        assert dispatch.calls == [(0, 0, False, False), (0, 1, False, True)]

    def test_heartbeat_progress_defers_the_deadline(self):
        clock = FakeClock()
        beats = {"n": 0}

        def progress():
            beats["n"] += 1  # the worker advances every poll: never idle
            return beats["n"]

        future = FakeFuture(clock, never=True)
        calls = {"n": 0}

        def dispatch(shard, attempt, resume, exclusive):
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
# Hedging
# ----------------------------------------------------------------------


class TestHedging:
    def test_straggler_gets_a_hedge_and_the_hedge_wins(self):
        clock = FakeClock()
        primary = FakeFuture(clock, never=True)
        dispatch = ScriptedDispatch(
            clock,
            {
                (0, 0): lambda: Handle(primary),
                (0, 1): lambda: Handle(FakeFuture(clock, result="hedge-win")),
            },
        )
        outcome = make_supervisor(
            clock, shards=1, hedge_after=0.05, poll_interval=0.01
        ).run(dispatch)
        assert outcome.hedges == 1
        assert outcome.retries == 0
        assert outcome.winners[0].future.result() == "hedge-win"
        assert primary.cancelled  # the loser was cancelled
        # The hedge dispatch is exclusive (private output slot), not a resume.
        assert dispatch.calls == [(0, 0, False, False), (0, 1, False, True)]

    def test_max_hedges_zero_disables_hedging(self):
        clock = FakeClock()
        state = {"calls": 0}

        def dispatch(shard, attempt, resume, exclusive):
            state["calls"] += 1
            future = FakeFuture(clock, never=True)
            original = future.result

            def result(timeout=None):
                if clock.now > 0.3:
                    return "slow-but-fine"
                return original(timeout)

            future.result = result
            done = future.done
            future.done = lambda: clock.now > 0.3 or done()
            return Handle(future)

        outcome = make_supervisor(
            clock, shards=1, hedge_after=0.05, max_hedges=0, poll_interval=0.01
        ).run(dispatch)
        assert state["calls"] == 1
        assert outcome.hedges == 0

    def test_failed_primary_promotes_the_hedge(self):
        clock = FakeClock()
        primary = FakeFuture(clock, never=True)
        original = primary.result
        # The primary fails (rather than completes) shortly after the
        # hedge launches; the hedge must absorb the shard without the
        # failure consuming a retry.
        primary.result = lambda timeout=None: (_ for _ in ()).throw(
            RuntimeError("primary died")
        ) if clock.now > 0.1 else original(timeout)
        done = primary.done
        primary.done = lambda: clock.now > 0.1 or done()

        hedge = FakeFuture(clock, never=True)
        hedge_original = hedge.result
        hedge.result = (
            lambda timeout=None: "rescued"
            if clock.now > 0.2
            else hedge_original(timeout)
        )
        hedge_done = hedge.done
        hedge.done = lambda: clock.now > 0.2 or hedge_done()

        dispatch = ScriptedDispatch(
            clock, {(0, 0): lambda: Handle(primary), (0, 1): lambda: Handle(hedge)}
        )
        outcome = make_supervisor(
            clock, shards=1, hedge_after=0.05, poll_interval=0.01
        ).run(dispatch)
        assert outcome.retries == 0
        assert outcome.winners[0].future.result() == "rescued"

    def test_primary_and_hedge_done_in_one_pass(self):
        # Both dispatches of the shard finish before the supervisor reaps
        # again: the primary wins, and its finished hedge is dropped once.
        clock = FakeClock()
        hedged = []
        primary = FakeFuture(clock, never=True)
        waiting = primary.result
        primary.done = lambda: bool(hedged)
        primary.result = lambda timeout=None: "primary" if hedged else waiting(timeout)

        def hedge():
            hedged.append(True)
            return Handle(FakeFuture(clock, result="hedge"))

        dispatch = ScriptedDispatch(
            clock, {(0, 0): lambda: Handle(primary), (0, 1): hedge}
        )
        outcome = make_supervisor(
            clock, shards=1, hedge_after=0.05, poll_interval=0.01
        ).run(dispatch)
        assert outcome.hedges == 1
        assert outcome.winners[0].future.result() == "primary"

    def test_hedge_metric_counted(self):
        clock = FakeClock()
        obs = Observer(clock)
        dispatch = ScriptedDispatch(
            clock,
            {
                (0, 0): lambda: Handle(FakeFuture(clock, never=True)),
                (0, 1): lambda: Handle(FakeFuture(clock, result="ok")),
            },
        )
        make_supervisor(
            clock, shards=1, hedge_after=0.02, poll_interval=0.01, observer=obs
        ).run(dispatch)
        assert obs.metrics.snapshot().counter_value("parallel.shard.hedges") == 1


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
            {"hedge_after": -1.0},
            {"max_hedges": -1},
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
