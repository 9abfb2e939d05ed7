"""Scheduler semantics: dedup, cancellation, budgets, cache speedup."""

from __future__ import annotations

import builtins
import threading
import time

import pytest

from repro.analysis.verdict import Answer
from repro.guard import Budget, CancelToken, checkpoint, guarded
from repro.serve import (
    BATCH_ABORTED_DETAIL,
    CANCELLED_DETAIL,
    JobSpec,
    SolverService,
    register_procedure,
)
from repro.serve.registry import UnknownProcedureError
from repro.workloads.scaling import pl_counter_sws

CALLS: list[str] = []


@guarded()
def counting_procedure(tag: str) -> Answer:
    """Test stub: records every actual execution."""
    CALLS.append(tag)
    return Answer.yes(detail=f"ran {tag}")


@guarded()
def slow_procedure(tag: str, steps: int = 50) -> Answer:
    for _ in range(steps):
        checkpoint("test.slow")
        time.sleep(0.001)
    return Answer.yes(detail=f"ran {tag}")


@guarded()
def raising_procedure(tag: str, error: str = "ValueError") -> Answer:
    raise getattr(builtins, error)(f"boom {tag}")


@pytest.fixture(autouse=True)
def _register_stubs():
    CALLS.clear()
    register_procedure("test_counting", counting_procedure, replace=True)
    register_procedure("test_slow", slow_procedure, replace=True)
    register_procedure("test_raising", raising_procedure, replace=True)
    yield


def test_unknown_procedure_fails_fast():
    service = SolverService()
    with pytest.raises(UnknownProcedureError):
        service.submit("no_such_procedure", 1)


def test_dedup_one_computation_many_handles():
    service = SolverService()
    h1 = service.submit("test_counting", "x")
    h2 = service.submit("test_counting", "x")
    h3 = service.submit("test_counting", "y")
    assert not h1.deduped and h2.deduped and not h3.deduped
    service.drain()
    assert CALLS == ["x", "y"]  # "x" ran once for two handles
    assert h1.result() is h2.result()
    assert service.jobs_deduped == 1 and service.jobs_executed == 2


def test_cache_hit_on_resubmission():
    service = SolverService()
    h1 = service.submit("test_counting", "x")
    h1.result()
    h2 = service.submit("test_counting", "x")
    assert h2.from_cache and h2.done()
    assert h2.result() is h1.result()
    assert CALLS == ["x"]


def test_real_procedure_cached_resubmission_is_10x_faster():
    """The acceptance criterion: identical batch ≥10× faster when cached."""
    service = SolverService()
    specs = [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (10, 11, 12)]
    t0 = time.perf_counter()
    cold = service.run_batch(specs)
    cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = service.run_batch(specs)
    warm_s = time.perf_counter() - t0
    assert [a.verdict for a in warm] == [a.verdict for a in cold]
    assert service.cache.stats.hits >= 3
    assert cold_s / warm_s >= 10, f"cold {cold_s:.4f}s vs warm {warm_s:.4f}s"


def test_cancel_queued_job_via_token_prevents_execution():
    """A token fired while the job is still queued: procedure never runs."""
    service = SolverService()
    token = CancelToken()
    handle = service.submit("test_counting", "doomed", cancel_token=token)
    token.cancel()
    service.drain()
    assert CALLS == []  # never executed
    assert service.jobs_executed == 0 and service.jobs_skipped == 1
    answer = handle.result()
    assert answer.is_unknown and answer.detail == CANCELLED_DETAIL


def test_cancel_via_handle_prevents_execution():
    service = SolverService()
    handle = service.submit("test_counting", "doomed")
    assert handle.cancel()
    service.drain()
    assert CALLS == []
    assert handle.result().detail == CANCELLED_DETAIL


def test_cancelled_result_is_never_cached():
    service = SolverService()
    token = CancelToken()
    h1 = service.submit("test_counting", "again", cancel_token=token)
    token.cancel()
    service.drain()
    assert h1.result().is_unknown
    # Resubmission without the token must actually execute.
    h2 = service.submit("test_counting", "again")
    assert not h2.from_cache
    assert h2.result().is_yes
    assert CALLS == ["again"]


def test_one_live_handle_keeps_a_deduped_job_alive():
    service = SolverService()
    h1 = service.submit("test_counting", "shared")
    h2 = service.submit("test_counting", "shared")
    h1.cancel()
    service.drain()
    assert CALLS == ["shared"]  # h2 still wanted it
    assert h2.result().is_yes


def test_budget_trips_to_unknown_and_is_not_cached():
    service = SolverService()
    budget = Budget(step_budget=5)
    h1 = service.submit("test_slow", "b", budget=budget)
    answer = h1.result()
    assert answer.is_unknown  # tripped, not decided
    # The trip was not cached: a generous retry decides.
    h2 = service.submit("test_slow", "b", budget=Budget(step_budget=10_000))
    assert not h2.from_cache
    assert h2.result().is_yes
    assert service.cache.stats.rejected_unknown >= 1


@pytest.mark.parametrize("workers", [0, 1])
def test_run_batch_budgets_apply_per_job(workers):
    """Every job of a batch runs under its own guard.

    The three 4-step jobs would exhaust one shared 10-step guard; each
    gets its own and decides, and the 50-step job trips alone."""
    budget = Budget(step_budget=10)
    specs = [
        JobSpec("test_slow", (tag,), {"steps": steps}, budget=budget)
        for tag, steps in (("a", 4), ("b", 4), ("hog", 50), ("c", 4))
    ]
    with SolverService(workers=workers) as service:
        answers = service.run_batch(specs)
    assert [a.verdict.value for a in answers] == ["yes", "yes", "unknown", "yes"]
    assert answers[2].trip is not None and answers[2].trip.limit == "steps"


def test_budget_not_part_of_cache_key():
    service = SolverService()
    h1 = service.submit("test_counting", "k", budget=Budget(step_budget=100))
    h1.result()
    h2 = service.submit("test_counting", "k", budget=Budget(step_budget=999))
    assert h2.from_cache  # same question, different budget


def test_run_batch_preserves_job_order():
    service = SolverService()
    specs = [
        JobSpec("test_counting", ("a",)),
        JobSpec("test_counting", ("b",)),
        JobSpec("test_counting", ("a",), label="a-again"),
    ]
    results = service.run_batch(specs)
    assert [r.detail for r in results] == ["ran a", "ran b", "ran a"]
    assert CALLS == ["a", "b"]


def test_run_batch_accepts_mappings():
    service = SolverService()
    results = service.run_batch([{"procedure": "test_counting", "args": ("m",)}])
    assert results[0].is_yes


def test_drain_abort_resolves_every_stranded_handle():
    """Regression: an escape mid-batch must not strand queued handles.

    Before the fix, a procedure raising during drain() left every
    not-yet-run entry unresolved and still registered in-flight, so
    ``JobHandle.result()`` blocked forever (drain had nothing pending)
    and resubmissions deduped against the dead entry.  Only a
    non-``Exception`` escape still aborts a drain.
    """
    service = SolverService()
    doomed = service.submit("test_raising", "first", error="KeyboardInterrupt")
    stranded = [service.submit("test_counting", tag) for tag in ("a", "b", "c")]
    with pytest.raises(KeyboardInterrupt):
        service.drain()
    # The interrupted job's own handle reports the failure...
    assert doomed.done()
    assert doomed.result(timeout=1).detail == "procedure raised KeyboardInterrupt"
    # ...and every queued-behind-it handle resolves instead of hanging.
    for handle in stranded:
        assert handle.done()
        answer = handle.result(timeout=1)
        assert answer.is_unknown and answer.detail == BATCH_ABORTED_DETAIL
    assert CALLS == []  # none of the stranded jobs ever ran
    # The failed keys left the in-flight table: resubmitting re-executes.
    retry = service.submit("test_counting", "a")
    assert not retry.deduped and not retry.from_cache
    assert retry.result(timeout=5).is_yes
    assert CALLS == ["a"]


@pytest.mark.parametrize("workers", [0, 1])
@pytest.mark.parametrize("error", ["ValueError", "TimeoutError"])
def test_raising_job_does_not_strand_the_round(workers, error):
    """In either mode a raising job resolves UNKNOWN; the rest still run.

    A raised ``TimeoutError`` is the job's failure, not the awaiting
    loop's poll timeout (which would re-poll forever)."""
    with SolverService(workers=workers) as service:
        doomed = service.submit("test_raising", "first", error=error)
        survivor = service.submit("test_counting", "ok")
        service.drain()  # must not raise and must not hang
        assert doomed.result(timeout=5).detail == f"procedure raised {error}"
        assert survivor.result(timeout=5).is_yes


def test_token_fired_mid_run_trips_inline_procedure():
    """Regression: a submit-time token firing *after* dispatch must still
    cancel a running in-process entry via its guard checkpoints.

    Before the fix nothing ever propagated the fired token to
    ``entry.token`` (only ``handle.cancel()`` did), so the procedure ran
    to completion.
    """
    service = SolverService()
    token = CancelToken()
    handle = service.submit("test_slow", "t", steps=5_000, cancel_token=token)
    timer = threading.Timer(0.05, token.cancel)
    timer.start()
    try:
        answer = handle.result(timeout=30)
    finally:
        timer.cancel()
    assert answer.is_unknown
    assert answer.trip is not None and answer.trip.limit == "cancelled"
    # A cancellation trip is a non-answer: never cached.
    retry = service.submit("test_slow", "t", steps=5_000)
    assert not retry.from_cache


def test_stats_shape():
    service = SolverService()
    service.run_batch([JobSpec("test_counting", ("s",))])
    stats = service.stats()
    assert stats["jobs_executed"] == 1
    assert set(stats) == {
        "workers",
        "jobs_executed",
        "jobs_deduped",
        "jobs_skipped",
        "cache",
        "resilience",
    }
    assert set(stats["resilience"]) == {
        "retried",
        "rejected",
        "redispatched",
        "worker_lost",
        "dead_lettered",
        "pool_respawns",
        "dlq_depth",
    }
