"""Fault-tolerance policies: retry/escalation, admission, DLQ, recovery."""

from __future__ import annotations

import json
import random
import threading
import time

import pytest

from repro.analysis.verdict import Answer
from repro.guard import Budget, checkpoint, guarded
from repro.guard._governor import Trip
from repro.mediator.mediator import Mediator
from repro.serve import (
    CANCELLED_DETAIL,
    REJECTED_DETAIL,
    WORKER_LOST_DETAIL,
    AdmissionControl,
    DeadLetterQueue,
    DLQRecord,
    RetryPolicy,
    SolverService,
    register_procedure,
)
from repro.serve.__main__ import main
from repro.serve.store import Store
from repro.workloads.pl_services import HASH, union_word_service, word_service
from repro.workloads.travel import travel_service


@guarded()
def stepping_procedure(tag: str, steps: int = 40) -> Answer:
    """Needs ``steps`` guard steps: trips under a smaller step budget."""
    for _ in range(steps):
        checkpoint("test.stepping")
    return Answer.yes(detail=f"ran {tag}")


@pytest.fixture(autouse=True)
def _register_stubs():
    register_procedure("test_stepping", stepping_procedure, replace=True)
    yield


def _fast_policy(**overrides) -> RetryPolicy:
    defaults = dict(
        max_attempts=3,
        budget_multiplier=4.0,
        backoff_base_s=0.0,
        backoff_cap_s=0.0,
        rng=random.Random(0),
    )
    defaults.update(overrides)
    return RetryPolicy(**defaults)


# -- RetryPolicy --------------------------------------------------------------


def test_retry_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(budget_multiplier=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base_s=1.0, backoff_cap_s=0.5)


def test_retryable_only_for_resource_trips():
    policy = _fast_policy()
    tripped = Answer.unknown(
        detail="t",
        trip=Trip(limit="steps", site="s", steps=1, elapsed_s=0.0, budget_value=1),
    )
    cancelled = Answer.unknown(
        detail="c",
        trip=Trip(
            limit="cancelled", site="s", steps=1, elapsed_s=0.0, budget_value=None
        ),
    )
    assert policy.retryable(tripped)
    assert not policy.retryable(cancelled)
    assert not policy.retryable(Answer.yes())
    assert not policy.retryable(Answer.unknown(detail="no trip"))


def test_escalate_scales_and_clamps():
    policy = _fast_policy(step_ceiling=100, deadline_ceiling_s=6.0)
    budget = Budget(step_budget=10, deadline_s=2.0)
    grown = policy.escalate(budget)
    assert grown.step_budget == 40 and grown.deadline_s == 6.0  # clamped
    again = policy.escalate(grown)
    assert again.step_budget == 100  # clamped at the ceiling
    assert policy.escalate(None) is None
    # Unset limits stay unset.
    partial = policy.escalate(Budget(step_budget=10))
    assert partial.step_budget == 40 and partial.deadline_s is None


def test_backoff_is_decorrelated_and_capped():
    policy = RetryPolicy(
        backoff_base_s=0.01, backoff_cap_s=0.5, rng=random.Random(7)
    )
    previous = None
    for _ in range(50):
        wait = policy.backoff_s(previous)
        assert 0.01 <= wait <= 0.5
        assert wait <= max(0.01, 3.0 * (previous or 0.01)) + 1e-9
        previous = wait
    zero = RetryPolicy(backoff_base_s=0.0, backoff_cap_s=0.0)
    assert zero.backoff_s(None) == 0.0


# -- retry + escalation through the scheduler ---------------------------------


def test_retry_escalation_converts_unknown_to_yes():
    # 40 steps needed; 10 -> 40 on the second attempt decides.
    service = SolverService(retry_policy=_fast_policy())
    handle = service.submit(
        "test_stepping", "a", budget=Budget(step_budget=10)
    )
    answer = handle.result()
    assert answer.is_yes
    assert handle.attempts == 2
    assert service.jobs_retried == 1
    assert not handle.dead_lettered


def test_without_policy_trip_resolves_unknown():
    service = SolverService()
    answer = service.submit(
        "test_stepping", "b", budget=Budget(step_budget=10)
    ).result()
    assert answer.is_unknown and answer.trip is not None
    assert service.jobs_retried == 0 and service.jobs_dead_lettered == 0


def test_exhausted_retries_dead_letter():
    # Ceiling pins the budget at 10 steps: every attempt trips.
    policy = _fast_policy(max_attempts=2, step_ceiling=10)
    service = SolverService(retry_policy=policy)
    handle = service.submit(
        "test_stepping", "c", budget=Budget(step_budget=10)
    )
    answer = handle.result()
    assert answer.is_unknown and answer.trip is not None
    assert handle.dead_lettered
    assert handle.attempts == 2
    assert service.jobs_dead_lettered == 1
    records = service.dlq.records()
    assert len(records) == 1
    record = records[0]
    assert record.fingerprint == handle.fingerprint
    assert record.procedure == "test_stepping"
    assert record.attempts == 2
    assert [t["limit"] for t in record.trips] == ["steps", "steps"]
    assert record.last_budget == {"step_budget": 10}
    # The payload re-runs: the dlq CLI depends on it.
    args, kwargs = record.job()
    assert args == ("c",) and kwargs == {}


def test_retrying_entry_stays_dedup_visible():
    """A submit racing a retrying entry joins it instead of forking."""
    policy = _fast_policy(backoff_base_s=0.2, backoff_cap_s=0.2)
    service = SolverService(retry_policy=policy)
    h1 = service.submit("test_stepping", "d", budget=Budget(step_budget=10))
    joined: dict[str, object] = {}

    def late_submit():
        time.sleep(0.05)  # lands inside the backoff window of attempt 1
        joined["handle"] = service.submit(
            "test_stepping", "d", budget=Budget(step_budget=10)
        )

    thread = threading.Thread(target=late_submit)
    thread.start()
    answer = h1.result()
    thread.join()
    assert answer.is_yes
    h2 = joined["handle"]
    assert h2.deduped and h2.result() is answer
    assert service.jobs_executed == 2  # two attempts, not three


def test_cancellation_during_retry_backoff_resolves_promptly():
    # Deterministic 2s backoff; cancelling after ~0.1s must not sleep it out.
    policy = _fast_policy(
        max_attempts=3, backoff_base_s=2.0, backoff_cap_s=2.0
    )
    service = SolverService(retry_policy=policy)
    handle = service.submit(
        "test_stepping", "e", budget=Budget(step_budget=10)
    )
    timer = threading.Timer(0.1, handle.cancel)
    timer.start()
    t0 = time.perf_counter()
    try:
        answer = handle.result(timeout=30)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - t0
    assert answer.is_unknown and answer.detail == CANCELLED_DETAIL
    assert elapsed < 1.5, f"cancellation waited out the backoff ({elapsed:.2f}s)"


# -- composition and bounded FO jobs ------------------------------------------


def _mdtb_job():
    """The chain goal of tests/mediator/test_bounded.py: YES in ~230 steps."""
    alpha = ["a", "b"]
    components = {
        "X": word_service(["a", HASH], alpha, "X"),
        "Y": word_service(["b", HASH], alpha, "Y"),
    }
    goal = union_word_service([["a", HASH, "b", HASH]], alpha)
    return goal, components


def test_tripped_composition_job_is_retried():
    service = SolverService(retry_policy=_fast_policy(budget_multiplier=1000.0))
    handle = service.submit(
        "compose_mdtb_pl",
        *_mdtb_job(),
        invocation_bound=1,
        budget=Budget(step_budget=1),
    )
    answer = handle.result()
    assert handle.attempts >= 2
    assert service.jobs_retried >= 1
    assert not handle.dead_lettered
    assert answer.is_yes and isinstance(answer.witness, Mediator)


def test_composition_job_that_keeps_tripping_is_dead_lettered():
    policy = _fast_policy(max_attempts=2, step_ceiling=1)
    service = SolverService(retry_policy=policy)
    handle = service.submit(
        "compose_mdtb_pl",
        *_mdtb_job(),
        invocation_bound=1,
        budget=Budget(step_budget=1),
    )
    answer = handle.result()
    assert handle.dead_lettered and service.jobs_dead_lettered == 1
    (record,) = service.dlq.records()
    assert record.procedure == "compose_mdtb_pl"
    assert [t["limit"] for t in record.trips] == ["steps", "steps"]
    assert answer.is_unknown and answer.trip.limit == "steps"


def test_bounded_fo_run_bound_is_a_kwarg_beside_the_job_budget():
    service = SolverService(retry_policy=_fast_policy())
    handle = service.submit(
        "nonempty_fo_bounded",
        travel_service(),
        max_runs=50,
        budget=Budget(step_budget=10**7),
    )
    answer = handle.result()
    # The run bound belongs to the question: no trip, so no retry.
    assert answer.is_unknown and answer.trip is None
    assert "run bound reached after 50 runs" in answer.detail
    assert handle.attempts == 1 and service.jobs_retried == 0


def test_bounded_fo_job_budget_escalates_up_to_the_run_bound():
    # One guard step per run: 10 and 40 steps trip, 160 reach the bound.
    service = SolverService(retry_policy=_fast_policy())
    handle = service.submit(
        "nonempty_fo_bounded",
        travel_service(),
        max_runs=50,
        budget=Budget(step_budget=10),
    )
    answer = handle.result()
    assert answer.is_unknown and answer.trip is None
    assert handle.attempts == 3 and service.jobs_retried == 2
    assert not handle.dead_lettered


def test_serve_run_passes_max_runs_through_job_kwargs(tmp_path):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(
        json.dumps(
            {
                "procedure": "nonempty_fo_bounded",
                "instances": [
                    {"factory": "repro.workloads.travel:travel_service"}
                ],
                "kwargs": {"max_runs": 50},
                "budget": {"step_budget": 10**7},
                "label": "travel-50",
            }
        )
        + "\n"
    )
    out = tmp_path / "results.jsonl"
    assert main(["run", str(jobs), "--out", str(out)]) == 0
    record, _summary = [json.loads(line) for line in out.read_text().splitlines()]
    assert record["verdict"] == "unknown"
    assert "run bound reached after 50 runs" in record["detail"]


# -- AdmissionControl ---------------------------------------------------------


def test_admission_validation():
    with pytest.raises(ValueError):
        AdmissionControl(max_queue_depth=0)
    with pytest.raises(ValueError):
        AdmissionControl(rate=0)
    with pytest.raises(ValueError):
        AdmissionControl(burst=0)


def test_admission_depth_gate():
    control = AdmissionControl(max_queue_depth=2)
    service = SolverService(admission=control)
    h1 = service.submit("test_stepping", "q1")
    h2 = service.submit("test_stepping", "q2")
    h3 = service.submit("test_stepping", "q3")
    assert not h1.rejected and not h2.rejected
    assert h3.rejected and h3.done()
    answer = h3.result()
    assert answer.is_unknown and answer.detail == REJECTED_DETAIL
    assert service.jobs_rejected == 1 and control.rejected_depth == 1
    # The admitted jobs still run.
    service.drain()
    assert h1.result().is_yes and h2.result().is_yes


def test_admission_rate_buckets_are_per_source():
    control = AdmissionControl(rate=0.001, burst=1)
    service = SolverService(admission=control)
    a1 = service.submit("test_stepping", "r1", source="tenant-a")
    a2 = service.submit("test_stepping", "r2", source="tenant-a")
    b1 = service.submit("test_stepping", "r3", source="tenant-b")
    assert not a1.rejected
    assert a2.rejected  # tenant-a's single token is spent
    assert not b1.rejected  # tenant-b has its own bucket
    assert control.rejected_rate == 1


def test_admission_bypassed_for_dedup_and_cache():
    control = AdmissionControl(max_queue_depth=1)
    service = SolverService(admission=control)
    h1 = service.submit("test_stepping", "s1")
    dup = service.submit("test_stepping", "s1")  # queue is full, but a join
    assert dup.deduped and not dup.rejected
    service.drain()
    cached = service.submit("test_stepping", "s1")  # and a cache hit
    assert cached.from_cache and not cached.rejected


# -- DLQ ----------------------------------------------------------------------


def _record(fingerprint: str = "fp-1", **overrides) -> DLQRecord:
    defaults = dict(
        fingerprint=fingerprint,
        procedure="test_stepping",
        label="job",
        reason="retries exhausted",
        attempts=3,
        trips=[{"limit": "steps"}],
        last_budget={"step_budget": 10},
        payload=DLQRecord.encode_job(("x",), {}),
    )
    defaults.update(overrides)
    return DLQRecord(**defaults)


def test_dlq_record_payload_roundtrip():
    record = _record()
    assert record.job() == (("x",), {})
    assert record.as_dict()["has_payload"] is True
    assert "payload" not in record.as_dict()
    assert record.as_dict(with_payload=True)["payload"] == record.payload
    # Unpicklable args degrade to a record-only entry.
    assert DLQRecord.encode_job((threading.Lock(),), {}) is None
    bare = _record(payload=None)
    assert bare.job() is None and bare.as_dict()["has_payload"] is False


def test_dlq_memory_backend():
    dlq = DeadLetterQueue()
    assert len(dlq) == 0
    dlq.add(_record("fp-a", updated_s=1.0))
    dlq.add(_record("fp-b", updated_s=2.0))
    dlq.add(_record("fp-a", attempts=5, updated_s=3.0))  # update in place
    assert len(dlq) == 2
    assert dlq.get("fp-a").attempts == 5
    assert [r.fingerprint for r in dlq.records()] == ["fp-b", "fp-a"]
    assert dlq.remove("fp-b") and not dlq.remove("fp-b")
    assert dlq.purge() == 1 and len(dlq) == 0


def test_dlq_store_backend(tmp_path):
    with Store(str(tmp_path / "dlq.sqlite3")) as store:
        dlq = DeadLetterQueue(store)
        dlq.add(_record("fp-a"))
        dlq.add(_record("fp-b", payload=None))
        assert len(dlq) == 2
        loaded = dlq.get("fp-a")
        assert loaded.procedure == "test_stepping"
        assert loaded.trips == [{"limit": "steps"}]
        assert loaded.last_budget == {"step_budget": 10}
        assert loaded.job() == (("x",), {})
        assert dlq.get("fp-b").payload is None
        assert dlq.remove("fp-a")
        assert dlq.purge() == 1
        assert dlq.records() == []


def test_service_dlq_uses_store_when_cache_has_disk_tier(tmp_path):
    policy = _fast_policy(max_attempts=1)
    with SolverService(
        cache_dir=str(tmp_path / "cache"), retry_policy=policy
    ) as service:
        handle = service.submit(
            "test_stepping", "persist", budget=Budget(step_budget=10)
        )
        handle.result()
        assert handle.dead_lettered
    # A fresh service over the same directory sees the record.
    with SolverService(cache_dir=str(tmp_path / "cache")) as service:
        records = service.dlq.records()
        assert [r.label for r in records] == ["test_stepping"]


def test_worker_lost_detail_constant_is_distinct():
    assert WORKER_LOST_DETAIL != REJECTED_DETAIL != CANCELLED_DETAIL
