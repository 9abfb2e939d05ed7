"""Unit tests for the resource governor (Budget, Guard, checkpoints)."""

import time

import pytest

from repro.errors import BudgetExceededError
from repro.guard import (
    Budget,
    CancelToken,
    Guard,
    GuardTrip,
    checkpoint,
    checkpoint_callable,
    current_guard,
    ensure_guard,
    guarded,
)
from repro.guard._governor import SAMPLE_EVERY, _noop_checkpoint


class TestBudget:
    def test_unlimited_by_default(self):
        assert Budget().unlimited

    def test_any_limit_clears_unlimited(self):
        assert not Budget(step_budget=10).unlimited
        assert not Budget(deadline_s=1.0).unlimited
        assert not Budget(memory_ceiling_mb=100.0).unlimited

    def test_limit_value_lookup(self):
        budget = Budget(deadline_s=2.0, step_budget=7, memory_ceiling_mb=64.0)
        assert budget.limit_value("deadline") == 2.0
        assert budget.limit_value("steps") == 7
        assert budget.limit_value("memory") == 64.0
        assert budget.limit_value("cancelled") is None


class TestCancelToken:
    def test_cancel_is_idempotent_and_visible(self):
        token = CancelToken()
        assert not token.cancelled()
        token.cancel()
        token.cancel()
        assert token.cancelled()


class TestGuardTrips:
    def test_step_budget_trips_with_partial_progress(self):
        guard = Guard(step_budget=3)
        for _ in range(3):
            guard.checkpoint("unit.test")
        with pytest.raises(GuardTrip) as info:
            guard.checkpoint("unit.test", frontier=17)
        trip = info.value.trip
        assert trip.limit == "steps"
        assert trip.site == "unit.test"
        assert trip.steps == 4
        assert trip.frontier == 17
        assert trip.budget_value == 3
        assert guard.tripped is trip
        assert guard.steps == 4

    def test_guardtrip_is_a_budget_exceeded_error(self):
        guard = Guard(step_budget=0)
        with pytest.raises(BudgetExceededError) as info:
            guard.checkpoint("unit.test")
        assert info.value.budget == 0
        assert info.value.limit == "steps"
        assert "[limit=steps]" in str(info.value)
        assert "unit.test" in str(info.value)

    def test_deadline_trips_on_sampled_call(self):
        guard = Guard(deadline_s=0.0)
        guard.start()
        time.sleep(0.005)
        with pytest.raises(GuardTrip) as info:
            guard.checkpoint("unit.test", n=2)  # batched calls always sample
        assert info.value.trip.limit == "deadline"

    def test_deadline_is_counter_sampled_for_fine_calls(self):
        guard = Guard(deadline_s=0.0)
        guard.start()
        time.sleep(0.005)
        # Fine-grained (n=1) calls skip the clock until the sampling call.
        for _ in range(SAMPLE_EVERY - 1):
            guard.checkpoint("unit.test")
        with pytest.raises(GuardTrip):
            guard.checkpoint("unit.test")

    def test_memory_ceiling_trips(self):
        # Any live interpreter is far above a fraction of a megabyte.
        guard = Guard(memory_ceiling_mb=0.001)
        with pytest.raises(GuardTrip) as info:
            guard.checkpoint("unit.test", n=2)
        assert info.value.trip.limit == "memory"

    def test_cancelled_token_trips_on_every_call(self):
        token = CancelToken()
        guard = Guard(cancel_token=token)
        guard.checkpoint("unit.test")
        token.cancel()
        with pytest.raises(GuardTrip) as info:
            guard.checkpoint("unit.test")
        assert info.value.trip.limit == "cancelled"
        assert "cancelled" in str(info.value)

    def test_describe_names_the_limit_and_progress(self):
        guard = Guard(step_budget=1)
        guard.checkpoint("x")
        with pytest.raises(GuardTrip) as info:
            guard.checkpoint("x")
        text = info.value.trip.describe()
        assert "step budget" in text
        assert "after 2 steps" in text

    def test_budget_and_individual_limits_conflict(self):
        with pytest.raises(ValueError):
            Guard(step_budget=1, budget=Budget(step_budget=1))


class TestEnsureGuard:
    def test_guard_passes_through(self):
        guard = Guard(step_budget=5)
        assert ensure_guard(guard) is guard

    def test_budget_wraps(self):
        budget = Budget(deadline_s=1.0)
        assert ensure_guard(budget).budget is budget

    def test_legacy_int_is_a_step_budget(self):
        assert ensure_guard(42).budget.step_budget == 42

    def test_none_is_unlimited(self):
        assert ensure_guard(None).budget.unlimited

    def test_bool_and_junk_rejected(self):
        with pytest.raises(TypeError):
            ensure_guard(True)
        with pytest.raises(TypeError):
            ensure_guard("12")


class TestAmbientActivation:
    def test_activation_is_scoped(self):
        guard = Guard(step_budget=5)
        assert current_guard() is None
        with guard.activate():
            assert current_guard() is guard
            checkpoint("unit.test")
        assert current_guard() is None
        assert guard.steps == 1

    def test_module_checkpoint_without_guard_is_noop(self):
        checkpoint("unit.test")  # must not raise

    def test_stacked_guards_all_consulted(self):
        outer = Guard(step_budget=2)
        inner = Guard(step_budget=100)
        with outer.activate(), inner.activate():
            checkpoint("unit.test")
            checkpoint("unit.test")
            with pytest.raises(GuardTrip) as info:
                checkpoint("unit.test")
        assert info.value.trip.budget_value == 2
        assert inner.tripped is None

    def test_checkpoint_callable_noop_when_inactive(self):
        assert checkpoint_callable("unit.test") is _noop_checkpoint

    def test_checkpoint_callable_counts_deltas(self):
        guard = Guard(step_budget=1000)
        with guard.activate():
            ckpt = checkpoint_callable("unit.test")
            ckpt(0, [])
            ckpt(256, [1, 2])
            ckpt(512, [])
        assert guard.steps == 512


class TestGuardedDecorator:
    def test_trip_converts_to_unknown_answer(self):
        @guarded()
        def search():
            while True:
                checkpoint("unit.search")

        answer = search(guard=10)
        assert answer.is_unknown
        assert answer.trip is not None
        assert answer.trip.limit == "steps"
        assert "unit.search" in answer.detail

    def test_untripped_guard_is_transparent(self):
        @guarded()
        def fine():
            checkpoint("unit.fine")
            return "done"

        assert fine() == "done"
        assert fine(guard=Guard(step_budget=100)) == "done"

    def test_ambient_guard_converts_at_the_boundary(self):
        @guarded()
        def search():
            while True:
                checkpoint("unit.search")

        with Guard(step_budget=5).activate():
            answer = search()
        assert answer.is_unknown
