"""Fault-tolerance policies for the serving layer.

The decision procedures are EXPTIME/PSPACE-hard in the worst case, so a
serving tier *will* see jobs that exhaust budgets, stall workers, or
kill processes outright.  This module holds the policy objects
:class:`~repro.serve.scheduler.SolverService` composes to survive that
— each one optional, each independently testable:

* :class:`RetryPolicy` — bounded re-execution of guard-tripped jobs
  with **budget escalation** (multiply every set limit by
  ``budget_multiplier``, clamped to per-limit ceilings) and
  **decorrelated-jitter backoff** between attempts, so a fleet of
  retrying jobs does not re-converge into the thundering herd that
  tripped them.  Cancellation-aware: the scheduler polls handles during
  the backoff wait and resolves promptly instead of sleeping through it.
* :class:`AdmissionControl` — a max-queue-depth gate plus per-source
  token buckets on :meth:`SolverService.submit`.  An inadmissible job
  resolves immediately to a typed ``REJECTED`` outcome
  (:data:`REJECTED_DETAIL` UNKNOWN, ``handle.rejected`` true) instead
  of queueing without bound.  Cache hits and dedup joins bypass the
  gate — they add no work.
* :class:`DeadLetterQueue` — where jobs go when escalation is exhausted
  or a worker was lost too many times.  Persisted in the SQLite store's
  ``dlq`` table when the service has a disk tier (so
  ``python -m repro.serve dlq list|retry|purge`` can operate on it
  across processes), with an in-memory fallback otherwise.  Records
  carry the fingerprint, attempt count, full trip history, the last
  escalated budget, and a pickled ``(args, kwargs)`` payload so a later
  ``dlq retry`` can actually re-run the job.

The invariant all three defend: **every submitted job resolves** — to a
decided answer, a sound UNKNOWN, or a typed rejection — and a resolved
UNKNOWN never contradicts what an unfaulted run would answer.
"""

from __future__ import annotations

import pickle
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.guard import Budget

__all__ = [
    "AdmissionControl",
    "DeadLetterQueue",
    "DLQRecord",
    "REJECTED_DETAIL",
    "RETRYABLE_LIMITS",
    "RetryPolicy",
    "WORKER_LOST_DETAIL",
    "decorrelated_jitter_s",
]

#: ``Answer.detail`` of jobs refused by admission control.
REJECTED_DETAIL = "rejected by admission control"

#: ``Answer.detail`` of jobs whose worker died more times than the
#: service's re-dispatch limit allows.
WORKER_LOST_DETAIL = "worker process lost mid-job"

#: Trip limits a retry can help with.  ``cancelled`` is excluded — the
#: caller asked for the job to stop; retrying would countermand them.
RETRYABLE_LIMITS = frozenset({"steps", "deadline", "memory"})


def decorrelated_jitter_s(
    previous_s: float | None, base_s: float, cap_s: float, rng: random.Random
) -> float:
    """The next retry wait: ``min(cap, uniform(base, max(base, 3 * previous)))``.

    Lockstep doubling (``base * 2**attempt``) makes processes that failed
    together retry together and collide again; decorrelated jitter has
    each draw its own wait from a widening window.  Shared by job retry
    (:class:`RetryPolicy`) and the store's lock retry
    (:func:`repro.serve.store.retry_backoff_s`).
    """
    span = max(base_s, 3.0 * (previous_s or base_s))
    return min(cap_s, rng.uniform(base_s, span))


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded budget-escalation retry for guard-tripped jobs.

    ``max_attempts`` counts *executions* (1 disables retry).  Each retry
    multiplies every set budget limit by ``budget_multiplier``, clamping
    to the per-limit ceilings (``None`` ceiling = unclamped).  The wait
    between attempts is decorrelated jitter — ``sleep = min(cap,
    uniform(base, 3 * previous_sleep))`` — bounded by
    ``backoff_cap_s``; pass ``rng`` (e.g. ``random.Random(0)``) for
    deterministic tests.
    """

    max_attempts: int = 3
    budget_multiplier: float = 4.0
    deadline_ceiling_s: float | None = None
    step_ceiling: int | None = None
    memory_ceiling_mb: float | None = None
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    rng: random.Random = field(
        default_factory=random.Random, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.budget_multiplier < 1.0:
            raise ValueError("budget_multiplier must be >= 1.0")
        if self.backoff_base_s < 0 or self.backoff_cap_s < self.backoff_base_s:
            raise ValueError("need 0 <= backoff_base_s <= backoff_cap_s")

    def retryable(self, result: Any) -> bool:
        """Whether ``result`` is a guard-tripped UNKNOWN a retry can fix.

        True only for resource trips (steps/deadline/memory — including
        injected ones, which model real exhaustion).  Decided answers,
        plain UNKNOWNs without a trip, and cancellations are final.
        """
        trip = getattr(result, "trip", None)
        return trip is not None and getattr(trip, "limit", None) in RETRYABLE_LIMITS

    def escalate(self, budget: Budget | None) -> Budget | None:
        """The next attempt's budget: every set limit scaled and clamped."""
        if budget is None:
            return None

        def scale(value, ceiling, cast):
            if value is None:
                return None
            grown = cast(value * self.budget_multiplier)
            return grown if ceiling is None else min(grown, cast(ceiling))

        return Budget(
            deadline_s=scale(budget.deadline_s, self.deadline_ceiling_s, float),
            step_budget=scale(budget.step_budget, self.step_ceiling, int),
            memory_ceiling_mb=scale(
                budget.memory_ceiling_mb, self.memory_ceiling_mb, float
            ),
        )

    def backoff_s(self, previous_s: float | None) -> float:
        """The next wait given the previous one (:func:`decorrelated_jitter_s`)."""
        return decorrelated_jitter_s(
            previous_s, self.backoff_base_s, self.backoff_cap_s, self.rng
        )


class AdmissionControl:
    """Queue-depth cap plus per-source token buckets for ``submit``.

    ``max_queue_depth`` rejects new work once that many distinct
    entries are already queued (``None`` = unbounded).  ``rate`` /
    ``burst`` configure one token bucket per ``source`` label (the
    submit-side tenant tag; ``None`` sources share one bucket): each
    admitted job spends a token, tokens refill at ``rate`` per second
    up to ``burst``.  ``rate=None`` disables the buckets.

    Thread-safe; decisions are O(1).
    """

    def __init__(
        self,
        max_queue_depth: int | None = None,
        rate: float | None = None,
        burst: int = 16,
    ) -> None:
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if rate is not None and rate <= 0:
            raise ValueError("rate must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.max_queue_depth = max_queue_depth
        self.rate = rate
        self.burst = burst
        self._lock = threading.Lock()
        self._buckets: dict[str | None, tuple[float, float]] = {}
        self.rejected_depth = 0
        self.rejected_rate = 0

    def admit(self, source: str | None, queue_depth: int) -> str | None:
        """``None`` to admit, else the rejection reason (``"depth"``/``"rate"``)."""
        if (
            self.max_queue_depth is not None
            and queue_depth >= self.max_queue_depth
        ):
            with self._lock:
                self.rejected_depth += 1
            return "depth"
        if self.rate is None:
            return None
        now = time.monotonic()
        with self._lock:
            tokens, t_last = self._buckets.get(source, (float(self.burst), now))
            tokens = min(float(self.burst), tokens + (now - t_last) * self.rate)
            if tokens < 1.0:
                self._buckets[source] = (tokens, now)
                self.rejected_rate += 1
                return "rate"
            self._buckets[source] = (tokens - 1.0, now)
            return None


@dataclass
class DLQRecord:
    """One dead-lettered job.

    ``trips`` is the attempt-by-attempt history (each entry the trip's
    ``limit``/``site``/``steps`` or a worker-lost marker);
    ``last_budget`` is the final escalated budget as a
    :meth:`~repro.guard.Budget.as_dict` mapping.  ``payload`` is the
    pickled ``(args, kwargs)`` pair when the job's arguments pickle —
    what ``dlq retry`` re-runs — and ``None`` otherwise.
    """

    fingerprint: str
    procedure: str
    label: str
    reason: str
    attempts: int
    trips: list[dict] = field(default_factory=list)
    last_budget: dict | None = None
    payload: bytes | None = None
    updated_s: float = field(default_factory=time.time)

    def as_dict(self, with_payload: bool = False) -> dict[str, Any]:
        out: dict[str, Any] = {
            "fingerprint": self.fingerprint,
            "procedure": self.procedure,
            "label": self.label,
            "reason": self.reason,
            "attempts": self.attempts,
            "trips": self.trips,
            "last_budget": self.last_budget,
            "has_payload": self.payload is not None,
            "updated_s": self.updated_s,
        }
        if with_payload:
            out["payload"] = self.payload
        return out

    def job(self) -> tuple[tuple, dict] | None:
        """The ``(args, kwargs)`` pair for a retry, or ``None``."""
        if self.payload is None:
            return None
        try:
            args, kwargs = pickle.loads(self.payload)
            return tuple(args), dict(kwargs)
        except Exception:  # noqa: BLE001 - a stale payload is no payload
            return None

    @staticmethod
    def encode_job(args: tuple, kwargs: Mapping[str, Any]) -> bytes | None:
        try:
            return pickle.dumps(
                (tuple(args), dict(kwargs)), protocol=pickle.HIGHEST_PROTOCOL
            )
        except Exception:  # noqa: BLE001 - unpicklable args: record-only DLQ
            return None


class DeadLetterQueue:
    """Terminal parking lot for jobs the service could not decide.

    Backed by the SQLite store's ``dlq`` table when one is available
    (shared across processes, survives restarts, what the ``serve dlq``
    CLI reads) and an in-memory dict otherwise.  One record per
    fingerprint: re-dead-lettering the same job updates it in place.
    """

    def __init__(self, store: Any | None = None) -> None:
        self.store = store
        self._lock = threading.Lock()
        self._memory: dict[str, DLQRecord] = {}

    def add(self, record: DLQRecord) -> None:
        if self.store is not None:
            self.store.put_dlq(record)
            return
        with self._lock:
            self._memory[record.fingerprint] = record

    def get(self, fingerprint: str) -> DLQRecord | None:
        if self.store is not None:
            return self.store.get_dlq(fingerprint)
        with self._lock:
            return self._memory.get(fingerprint)

    def records(self) -> list[DLQRecord]:
        """All records, oldest first."""
        if self.store is not None:
            return self.store.list_dlq()
        with self._lock:
            return sorted(self._memory.values(), key=lambda r: r.updated_s)

    def remove(self, fingerprint: str) -> bool:
        if self.store is not None:
            return self.store.delete_dlq(fingerprint)
        with self._lock:
            return self._memory.pop(fingerprint, None) is not None

    def purge(self) -> int:
        """Delete every record; returns how many were dropped."""
        if self.store is not None:
            return self.store.purge_dlq()
        with self._lock:
            count = len(self._memory)
            self._memory.clear()
            return count

    def __len__(self) -> int:
        if self.store is not None:
            return self.store.dlq_count()
        with self._lock:
            return len(self._memory)
