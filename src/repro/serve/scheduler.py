"""Job scheduler: dedup, caching, budgets, and cancellation.

:class:`SolverService` is the front door of the serving layer.  Callers
:meth:`~SolverService.submit` decision-procedure jobs and get
:class:`JobHandle` futures back; :meth:`~SolverService.drain` (or
``handle.result()``) runs everything that is still pending.

The pipeline per submission:

1. **Fingerprint.**  The job is keyed by
   :func:`repro.serve.fingerprint.job_fingerprint` — procedure name plus
   the canonical form of its arguments.  Budgets are not part of the
   key (decided answers are budget-independent; UNKNOWN is never
   cached).
2. **Cache probe.**  A hit resolves the handle immediately
   (``handle.from_cache`` is true) without queueing anything.
3. **In-flight dedup.**  If an un-drained entry with the same
   fingerprint exists, the new handle joins it — one computation, many
   handles (``handle.deduped`` is true for the joiners).
4. **Queue.**  Otherwise a new entry is queued.  Nothing executes until
   a drain, so a whole batch dedups before any work starts and a queued
   job can still be cancelled.

Execution runs in *rounds* through one loop: every ready entry is
submitted to a runner, then each future is awaited in turn, and
retries, caching, resolution and the serving metrics happen there
whatever the runner.  With ``workers=0`` (the default) the runner is a
:class:`repro.serve.pool.InlineRunner` — each job runs in the draining
thread when the round awaits it; with ``workers>=1`` it is a
:class:`repro.serve.pool.WorkerPool`, whose worker processes run the
round's jobs concurrently.

Cancellation: ``handle.cancel()`` or a fired
:class:`~repro.guard.CancelToken` passed at submit time.  An entry whose
handles are all cancelled before it starts is **skipped** — the
procedure is never called — and resolves to an UNKNOWN answer with
detail :data:`CANCELLED_DETAIL`.  In-process entries additionally get a
service-side token wired into their :class:`~repro.guard.Guard`, so
cancelling mid-run trips the procedure cooperatively at its next
checkpoint.

Failure: a procedure that raises resolves its handles UNKNOWN
(``procedure raised <Type>``) in either mode and the round runs on.
Only a non-``Exception`` escape (``KeyboardInterrupt``) aborts a drain,
after resolving the entries it strands (:data:`BATCH_ABORTED_DETAIL`).

Fault tolerance (all opt-in, composed from
:mod:`repro.serve.resilience`):

* A :class:`~repro.serve.resilience.RetryPolicy` re-queues
  guard-tripped entries with escalated budgets; the drain loop waits
  out each backoff (cancellation-aware) and re-runs them.  Entries stay
  dedup-visible across attempts — a second ``submit`` of a retrying
  fingerprint joins it, it never forks a parallel computation.
* An :class:`~repro.serve.resilience.AdmissionControl` gates ``submit``:
  inadmissible jobs resolve immediately to
  :data:`~repro.serve.resilience.REJECTED_DETAIL` UNKNOWN with
  ``handle.rejected`` set.  Cache hits and dedup joins bypass the gate.
* A worker that dies abruptly (OOM kill, segfault, chaos ``os._exit``)
  breaks the whole :class:`ProcessPoolExecutor`; the drain catches
  :class:`BrokenProcessPool`, **respawns the pool in place**, and
  re-dispatches the lost entries (each loss re-draws its chaos fate via
  a fresh attempt number).  An entry lost more than
  ``worker_redispatch_limit`` times resolves to
  :data:`~repro.serve.resilience.WORKER_LOST_DETAIL` UNKNOWN and is
  dead-lettered.
* Jobs that exhaust escalation, or die too often, land in the
  :class:`~repro.serve.resilience.DeadLetterQueue` (persisted in the
  SQLite store when the cache has a disk tier) for
  ``python -m repro.serve dlq list|retry|purge``.

The drain invariant is unchanged and now fault-proof: **every handle
resolves** — decided, UNKNOWN (tripped / cancelled / raised /
worker-lost / batch-aborted), or rejected — no matter which workers
died.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent import futures as _futures
from typing import Any, Iterable, Mapping, Sequence

from repro import metrics
from repro.analysis.verdict import Answer
from repro.guard import Budget, CancelToken
from repro.serve.cache import AnswerCache, default_cache_directory
from repro.serve.fingerprint import job_fingerprint
from repro.serve.pool import BrokenProcessPool, InlineRunner, WorkerPool
from repro.serve.registry import get_procedure
from repro.serve.resilience import (
    REJECTED_DETAIL,
    WORKER_LOST_DETAIL,
    AdmissionControl,
    DeadLetterQueue,
    DLQRecord,
    RetryPolicy,
)

__all__ = [
    "BATCH_ABORTED_DETAIL",
    "CANCELLED_DETAIL",
    "JobHandle",
    "JobSpec",
    "SolverService",
]

#: Sentinel ``_await`` returns when the entry's worker died and broke
#: the pool — the caller must respawn and decide re-dispatch.
_WORKER_LOST = object()

#: ``Answer.detail`` of jobs cancelled before execution.
CANCELLED_DETAIL = "cancelled before execution"

#: ``Answer.detail`` of jobs stranded when a non-``Exception`` escape
#: (``KeyboardInterrupt``, ``SystemExit``) interrupts a drain: they
#: resolve to UNKNOWN instead of hanging their handles.
BATCH_ABORTED_DETAIL = "batch aborted: the drain was interrupted"

#: While a pooled job runs, the awaiting drain merges worker spools this
#: often so ``serve top`` shows live progress instead of a silent gap.
HEARTBEAT_INTERVAL_S = 1.0


class JobSpec:
    """A declarative job for :meth:`SolverService.run_batch`."""

    __slots__ = ("procedure", "args", "kwargs", "budget", "label")

    def __init__(
        self,
        procedure: str,
        args: Sequence[Any] = (),
        kwargs: Mapping[str, Any] | None = None,
        budget: Budget | None = None,
        label: str | None = None,
    ) -> None:
        self.procedure = procedure
        self.args = tuple(args)
        self.kwargs = dict(kwargs or {})
        self.budget = budget
        self.label = label or procedure


class _EntryToken(CancelToken):
    """The service-side token wired into an entry's :class:`Guard`.

    Besides the explicitly-fired flag (set by ``handle.cancel()`` via
    ``_on_handle_cancelled``), it *polls the entry's handles*: a handle
    whose submit-time :class:`CancelToken` fires mid-run never calls
    back into the service, so the guard checkpoint consulting this
    token is the only place that can observe it.  Once every handle is
    cancelled the flag latches and the running procedure trips at its
    next checkpoint.
    """

    __slots__ = ("_entry",)

    def __init__(self, entry: "_Entry") -> None:
        super().__init__()
        self._entry = entry

    def cancelled(self) -> bool:
        if super().cancelled():
            return True
        handles = self._entry.handles
        if handles and all(h.cancelled for h in handles):
            self.cancel()  # latch, so later checks skip the handle scan
            return True
        return False


class _Entry:
    """One unique computation; possibly shared by several handles."""

    __slots__ = (
        "key",
        "procedure",
        "args",
        "kwargs",
        "budget",
        "handles",
        "done",
        "result",
        "token",
        "future",
        "t_submitted",
        "t_dispatched",
        "attempts",
        "dispatch_seq",
        "worker_lost",
        "trips",
        "not_before",
        "last_backoff_s",
        "dead_lettered",
    )

    def __init__(
        self,
        key: str,
        procedure: str,
        args: tuple,
        kwargs: dict,
        budget: Budget | None,
    ) -> None:
        self.key = key
        self.procedure = procedure
        self.args = args
        self.kwargs = kwargs
        self.budget = budget
        self.handles: list[JobHandle] = []
        self.done = threading.Event()
        self.result: Any = None
        # Service-side token: fires when every handle cancels — whether
        # via handle.cancel() or a submit-time token firing mid-run — so
        # an in-process run trips cooperatively at its next checkpoint.
        self.token = _EntryToken(self)
        self.future: Any = None
        self.t_submitted = time.perf_counter()
        self.t_dispatched: float | None = None
        # Resilience bookkeeping.  ``attempts`` counts completed
        # executions (what RetryPolicy.max_attempts bounds);
        # ``dispatch_seq`` counts pool dispatches including worker-lost
        # re-dispatches — it feeds the chaos key so a re-dispatched job
        # re-draws its fate instead of dying forever.
        self.attempts = 0
        self.dispatch_seq = 0
        self.worker_lost = 0
        self.trips: list[dict] = []
        self.not_before: float | None = None
        self.last_backoff_s: float = 0.0
        self.dead_lettered = False

    def all_cancelled(self) -> bool:
        return bool(self.handles) and all(h.cancelled for h in self.handles)

    def resolve(self, result: Any) -> None:
        self.result = result
        self.done.set()

    @property
    def label(self) -> str:
        return self.handles[0].label if self.handles else self.procedure


class JobHandle:
    """Future-like handle for one submitted job."""

    def __init__(
        self,
        service: "SolverService",
        entry: _Entry,
        *,
        label: str,
        cancel_token: CancelToken | None,
        from_cache: bool,
        deduped: bool,
        rejected: bool = False,
    ) -> None:
        self._service = service
        self._entry = entry
        self._cancelled = False
        self._cancel_token = cancel_token
        self.label = label
        self.from_cache = from_cache
        self.deduped = deduped
        self.rejected = rejected

    @property
    def fingerprint(self) -> str:
        return self._entry.key

    @property
    def procedure(self) -> str:
        return self._entry.procedure

    @property
    def attempts(self) -> int:
        """How many times the job executed (>1 = it was retried)."""
        return self._entry.attempts

    @property
    def dead_lettered(self) -> bool:
        """Whether the job exhausted its retries and landed in the DLQ."""
        return self._entry.dead_lettered

    @property
    def cancelled(self) -> bool:
        """Whether this handle asked for cancellation (directly or via token)."""
        if self._cancelled:
            return True
        token = self._cancel_token
        return token is not None and token.cancelled()

    def cancel(self) -> bool:
        """Request cancellation; returns True if the job had not finished.

        A queued entry whose handles are all cancelled is skipped at the
        next drain without ever calling the procedure.  For an entry
        already running in-process, the service token trips it at its
        next guard checkpoint; a pool job already running in a worker
        completes (bounded by its budget) but this handle still reports
        ``cancelled``.
        """
        if self._entry.done.is_set():
            return False
        self._cancelled = True
        self._service._on_handle_cancelled(self._entry)
        return True

    def done(self) -> bool:
        return self._entry.done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """The job's result, draining the service if still pending."""
        if not self._entry.done.is_set():
            self._service.drain()
        if not self._entry.done.wait(timeout):
            raise TimeoutError(f"job {self.label!r} did not finish in {timeout}s")
        return self._entry.result


class SolverService:
    """Concurrent solver front end with caching, dedup, and recovery.

    ``workers=0`` executes in-process; ``workers>=1`` uses a process
    pool.  ``cache_dir`` (default: ``$REPRO_CACHE_DIR`` if set) enables
    the on-disk cache tier.  ``retry_policy`` / ``admission`` opt into
    budget-escalation retry and submit-side admission control;
    ``worker_redispatch_limit`` bounds how many times one entry may
    lose its worker before it is dead-lettered (the DLQ defaults to one
    backed by the cache's store when a disk tier exists).
    """

    def __init__(
        self,
        workers: int = 0,
        cache: AnswerCache | None = None,
        cache_dir: str | None = None,
        retry_policy: RetryPolicy | None = None,
        admission: AdmissionControl | None = None,
        dlq: DeadLetterQueue | None = None,
        worker_redispatch_limit: int = 2,
    ) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if worker_redispatch_limit < 0:
            raise ValueError("worker_redispatch_limit must be >= 0")
        self.workers = workers
        self._owns_cache = cache is None
        if cache is None:
            cache = AnswerCache(
                directory=cache_dir if cache_dir is not None else default_cache_directory()
            )
        self.cache = cache
        self.retry_policy = retry_policy
        self.admission = admission
        self.dlq = dlq if dlq is not None else DeadLetterQueue(self.cache.store)
        self.worker_redispatch_limit = worker_redispatch_limit
        self._lock = threading.Lock()
        self._pending: OrderedDict[str, _Entry] = OrderedDict()
        self._inflight: dict[str, _Entry] = {}
        # Lifetime pool-dispatch count per fingerprint.  Feeds the
        # chaos-injection attempt key, so a job re-submitted after an
        # earlier entry resolved (e.g. its UNKNOWN was never cached)
        # keeps drawing *fresh* chaos fates instead of deterministically
        # replaying its first entry's kills forever.
        self._dispatch_history: dict[str, int] = {}
        self._pool: WorkerPool | None = None
        self.jobs_executed = 0
        self.jobs_deduped = 0
        self.jobs_skipped = 0
        self.jobs_retried = 0
        self.jobs_rejected = 0
        self.jobs_redispatched = 0
        self.jobs_worker_lost = 0
        self.jobs_dead_lettered = 0

    # -- submission --------------------------------------------------------------

    def submit(
        self,
        procedure: str,
        *args: Any,
        budget: Budget | None = None,
        cancel_token: CancelToken | None = None,
        label: str | None = None,
        source: str | None = None,
        **kwargs: Any,
    ) -> JobHandle:
        """Queue one job; returns a :class:`JobHandle`.

        ``budget`` bounds the execution (per job, not per handle — on a
        dedup join the *first* submission's budget applies).
        ``cancel_token`` marks this handle cancelled once fired; fired
        before the drain dispatches the entry, the procedure never runs.
        ``source`` is the admission-control tenant tag: each source gets
        its own token bucket when the service has an
        :class:`~repro.serve.resilience.AdmissionControl`.  An
        inadmissible job comes back already resolved
        (:data:`~repro.serve.resilience.REJECTED_DETAIL` UNKNOWN,
        ``handle.rejected``); cache hits and dedup joins are never
        rejected — they add no work.
        """
        get_procedure(procedure)  # fail fast on unknown names
        key = job_fingerprint(procedure, args, kwargs)
        label = label or procedure
        with self._lock:
            entry = self._pending.get(key) or self._inflight.get(key)
            if entry is not None:
                handle = JobHandle(
                    self,
                    entry,
                    label=label,
                    cancel_token=cancel_token,
                    from_cache=False,
                    deduped=True,
                )
                entry.handles.append(handle)
                self.jobs_deduped += 1
                metrics.counter("serve.jobs.deduped").inc()
                return handle
        cached = self.cache.get(key, procedure)
        if cached is not None:
            entry = _Entry(key, procedure, args, dict(kwargs), budget)
            entry.resolve(cached)
            metrics.counter("serve.jobs.completed", outcome="cached").inc()
            return JobHandle(
                self,
                entry,
                label=label,
                cancel_token=cancel_token,
                from_cache=True,
                deduped=False,
            )
        with self._lock:
            # Re-check: another thread may have queued the same key
            # while we probed the cache.
            entry = self._pending.get(key) or self._inflight.get(key)
            if entry is None:
                if self.admission is not None:
                    reason = self.admission.admit(source, len(self._pending))
                    if reason is not None:
                        return self._reject(
                            key, procedure, args, kwargs, budget,
                            label=label, cancel_token=cancel_token,
                            reason=reason,
                        )
                entry = _Entry(key, procedure, args, dict(kwargs), budget)
                self._pending[key] = entry
                deduped = False
            else:
                deduped = True
                self.jobs_deduped += 1
                metrics.counter("serve.jobs.deduped").inc()
            metrics.gauge("serve.queue.depth").set(len(self._pending))
            handle = JobHandle(
                self,
                entry,
                label=label,
                cancel_token=cancel_token,
                from_cache=False,
                deduped=deduped,
            )
            entry.handles.append(handle)
            return handle

    def session(
        self,
        instance: Any,
        procedure: str = "nonempty_pl",
        *,
        budget: Budget | None = None,
        **kwargs: Any,
    ) -> Any:
        """An incremental editing session wired into this service.

        Returns a :class:`repro.delta.session.Session` sharing this
        service's answer cache, so decided re-check answers are visible
        to later ``submit`` calls under the same job fingerprints, and a
        session reopened in a new process finds its answer there.  The
        session solves inline on the caller's thread — edits are
        latency-sensitive, not throughput work for the pool.
        """
        from repro.delta.session import Session

        return Session(
            instance, procedure, cache=self.cache, budget=budget, **kwargs
        )

    def _reject(
        self,
        key: str,
        procedure: str,
        args: tuple,
        kwargs: Mapping[str, Any],
        budget: Budget | None,
        *,
        label: str,
        cancel_token: CancelToken | None,
        reason: str,
    ) -> JobHandle:
        """An already-resolved REJECTED handle (admission said no)."""
        self.jobs_rejected += 1
        metrics.counter("serve.rejected", reason=reason).inc()
        entry = _Entry(key, procedure, args, dict(kwargs), budget)
        entry.resolve(Answer.unknown(detail=REJECTED_DETAIL))
        return JobHandle(
            self,
            entry,
            label=label,
            cancel_token=cancel_token,
            from_cache=False,
            deduped=False,
            rejected=True,
        )

    # -- execution ---------------------------------------------------------------

    def drain(self) -> int:
        """Run every pending job to completion; returns how many entries ran.

        Each round submits every ready entry before awaiting any, so
        with workers distinct jobs overlap across worker processes.
        Entries a :class:`RetryPolicy` re-queued with a backoff deadline
        are picked up by a later round once their wait elapses (the
        wait polls for cancellation, so cancelling every handle of a
        backing-off entry resolves it promptly).  The drain returns only
        when nothing is pending — every entry resolved, retried to
        resolution, or dead-lettered.
        """
        executed = 0
        while True:
            with self._lock:
                now = time.monotonic()
                ready = [
                    entry
                    for entry in self._pending.values()
                    if entry.not_before is None or entry.not_before <= now
                ]
                for entry in ready:
                    del self._pending[entry.key]
                    self._inflight[entry.key] = entry
                remaining = len(self._pending)
                metrics.gauge("serve.queue.depth").set(remaining)
            if not ready:
                if remaining == 0:
                    break
                self._await_retry_ready()
                continue
            try:
                executed += self._run_round(ready)
            finally:
                # A non-Exception escape aborts the rest of the round;
                # resolve every stranded entry (UNKNOWN, "batch
                # aborted") before propagating so no JobHandle.result()
                # can block forever.  Entries the retry policy re-queued
                # are in _pending again — they are not stranded.
                with self._lock:
                    for entry in ready:
                        if entry.done.is_set():
                            self._inflight.pop(entry.key, None)
                        elif entry.key not in self._pending:
                            entry.resolve(
                                Answer.unknown(detail=BATCH_ABORTED_DETAIL)
                            )
                            self._inflight.pop(entry.key, None)
                metrics.gauge("serve.inflight").set(0)
        return executed

    def _await_retry_ready(self) -> None:
        """Wait until a backing-off entry is ready (or all are gone).

        Polls in small increments so a retry wait never blocks
        cancellation: an entry whose handles all cancel while it waits
        is skipped immediately (:data:`CANCELLED_DETAIL`), exactly as if
        it had been cancelled in the queue.
        """
        while True:
            cancelled: list[_Entry] = []
            with self._lock:
                now = time.monotonic()
                for entry in list(self._pending.values()):
                    if entry.all_cancelled():
                        del self._pending[entry.key]
                        cancelled.append(entry)
                waiting = list(self._pending.values())
                deadlines = [e.not_before or now for e in waiting]
            for entry in cancelled:
                self._skip(entry)
            if not waiting or min(deadlines) <= now:
                return
            time.sleep(min(0.02, max(0.001, min(deadlines) - now)))

    def run_batch(
        self, jobs: Iterable[JobSpec | Mapping[str, Any]]
    ) -> list[Any]:
        """Submit every job, drain, and return results in job order."""
        handles = []
        for job in jobs:
            if isinstance(job, Mapping):
                job = JobSpec(
                    procedure=job["procedure"],
                    args=job.get("args", ()),
                    kwargs=job.get("kwargs"),
                    budget=job.get("budget"),
                    label=job.get("label"),
                )
            handles.append(
                self.submit(
                    job.procedure,
                    *job.args,
                    budget=job.budget,
                    label=job.label,
                    **job.kwargs,
                )
            )
        self.drain()
        return [handle.result() for handle in handles]

    def _skip(self, entry: _Entry) -> None:
        self.jobs_skipped += 1
        metrics.counter("serve.jobs.completed", outcome="skipped").inc()
        entry.resolve(Answer.unknown(detail=CANCELLED_DETAIL))

    def _run_round(self, batch: list[_Entry]) -> int:
        """Skip the cancelled entries, submit the rest, await each in turn."""
        runner = self._runner()
        to_dispatch: list[_Entry] = []
        for entry in batch:
            if entry.all_cancelled():
                self._skip(entry)
                continue
            entry.t_dispatched = time.perf_counter()
            metrics.observe(
                "serve.job.queue_wait_s",
                entry.t_dispatched - entry.t_submitted,
                procedure=entry.procedure,
            )
            self.jobs_executed += 1
            metrics.counter("serve.jobs.executed").inc()
            to_dispatch.append(entry)
        executed = len(to_dispatch)
        inflight = metrics.gauge("serve.inflight")
        # Dispatch/await in waves: a worker death breaks every
        # outstanding future at once, so the first wave ends early with
        # the lost entries collected; the pool is respawned in place and
        # the survivors re-dispatched (fresh attempt number, fresh chaos
        # draw) until every entry resolves or exceeds the re-dispatch
        # limit.
        while to_dispatch:
            for entry in to_dispatch:
                entry.attempts += 1
                seq = self._dispatch_history.get(entry.key, 0)
                self._dispatch_history[entry.key] = seq + 1
                entry.dispatch_seq = seq + 1
                entry.future = runner.submit(
                    entry.procedure,
                    entry.args,
                    entry.kwargs,
                    entry.budget,
                    job_key=entry.key,
                    attempt=seq,
                    cancel_token=entry.token,
                )
            inflight.set(len(to_dispatch))
            lost: list[_Entry] = []
            for entry in to_dispatch:
                result = self._await(entry)
                inflight.dec()
                # A long batch appends snapshots as it goes (throttled).
                metrics.maybe_write_snapshot()
                if result is _WORKER_LOST:
                    entry.attempts -= 1  # it never ran to completion
                    lost.append(entry)
                    continue
                if result is None:
                    continue  # resolved inside (raised or cancelled-in-queue)
                metrics.observe(
                    "serve.job.turnaround_s",
                    time.perf_counter() - entry.t_dispatched,
                    procedure=entry.procedure,
                )
                if self._maybe_schedule_retry(entry, result):
                    metrics.counter("serve.jobs.completed", outcome="retry").inc()
                    continue
                metrics.counter("serve.jobs.completed", outcome="executed").inc()
                self.cache.put(entry.key, result, entry.procedure)
                entry.resolve(result)
            to_dispatch = self._recover_worker_loss(runner, lost) if lost else []
        if self._pool is not None:
            self._pool.merge_traces()
        return executed

    def _recover_worker_loss(
        self, pool: WorkerPool, lost: list[_Entry]
    ) -> list[_Entry]:
        """Respawn the broken pool and decide each lost entry's fate.

        Returns the entries to re-dispatch on the fresh pool.  Entries
        past ``worker_redispatch_limit`` resolve to
        :data:`WORKER_LOST_DETAIL` UNKNOWN and are dead-lettered;
        entries whose handles all cancelled while the pool was down are
        skipped (prompt :data:`CANCELLED_DETAIL`, no re-dispatch).
        """
        pool.respawn()
        redispatch: list[_Entry] = []
        for entry in lost:
            entry.worker_lost += 1
            self.jobs_worker_lost += 1
            metrics.counter("serve.worker.lost", procedure=entry.procedure).inc()
            entry.trips.append(
                {"worker_lost": True, "dispatch": entry.dispatch_seq}
            )
            if entry.all_cancelled():
                self._skip(entry)
                continue
            if entry.worker_lost > self.worker_redispatch_limit:
                self._dead_letter(
                    entry,
                    reason=(
                        f"worker lost {entry.worker_lost}x "
                        f"(re-dispatch limit {self.worker_redispatch_limit})"
                    ),
                )
                metrics.counter(
                    "serve.jobs.completed", outcome="worker_lost"
                ).inc()
                entry.resolve(Answer.unknown(detail=WORKER_LOST_DETAIL))
                continue
            self.jobs_redispatched += 1
            metrics.counter("serve.jobs.redispatched").inc()
            redispatch.append(entry)
        return redispatch

    def _maybe_schedule_retry(self, entry: _Entry, result: Any) -> bool:
        """Re-queue a guard-tripped entry with an escalated budget.

        True iff the entry was re-queued — the caller must then *not*
        cache or resolve ``result``.  Exhausted retries dead-letter the
        entry and return False (the trip UNKNOWN resolves as-is, with
        ``handle.dead_lettered`` set).  Cancellation always wins: a
        fully-cancelled entry is never re-queued.
        """
        policy = self.retry_policy
        trip = getattr(result, "trip", None)
        if trip is not None and getattr(trip, "limit", None) is not None:
            entry.trips.append(
                {
                    "limit": trip.limit,
                    "site": trip.site,
                    "steps": trip.steps,
                    "injected": bool(getattr(trip, "injected", False)),
                }
            )
        if policy is None or not policy.retryable(result):
            return False
        if entry.all_cancelled():
            return False
        if entry.attempts >= policy.max_attempts:
            metrics.counter(
                "serve.retry.exhausted", procedure=entry.procedure
            ).inc()
            self._dead_letter(
                entry,
                reason=f"retries exhausted after {entry.attempts} attempts",
            )
            return False
        entry.budget = policy.escalate(entry.budget)
        entry.last_backoff_s = policy.backoff_s(entry.last_backoff_s or None)
        entry.not_before = time.monotonic() + entry.last_backoff_s
        entry.future = None
        self.jobs_retried += 1
        metrics.counter("serve.retry.scheduled", procedure=entry.procedure).inc()
        metrics.observe("serve.retry.backoff_s", entry.last_backoff_s)
        with self._lock:
            self._inflight.pop(entry.key, None)
            self._pending[entry.key] = entry
        return True

    def _dead_letter(self, entry: _Entry, reason: str) -> None:
        """Park an undecidable entry in the DLQ (store-backed if possible)."""
        entry.dead_lettered = True
        self.jobs_dead_lettered += 1
        metrics.counter("serve.dlq.added", procedure=entry.procedure).inc()
        record = DLQRecord(
            fingerprint=entry.key,
            procedure=entry.procedure,
            label=entry.label,
            reason=reason,
            attempts=entry.attempts,
            trips=list(entry.trips),
            last_budget=entry.budget.as_dict() if entry.budget is not None else None,
            payload=DLQRecord.encode_job(entry.args, entry.kwargs),
        )
        try:
            self.dlq.add(record)
            metrics.gauge("serve.dlq.depth").set(len(self.dlq))
        except Exception:  # noqa: BLE001 - the DLQ must never lose the job's resolve
            metrics.counter("serve.dlq.errors").inc()

    def _heartbeat(self, entry: _Entry) -> None:
        """Surface a long-running pooled job's progress while it runs.

        Folds the worker spools into the parent (so ``serve top`` sees
        fresh ``progress.*`` gauges and the parent trace grows) and
        stamps how long this entry has been running.
        """
        pool = self._pool
        if pool is not None:
            pool.merge_traces()
        if entry.t_dispatched is not None:
            metrics.gauge(
                "serve.job.heartbeat_s", procedure=entry.procedure
            ).set(round(time.perf_counter() - entry.t_dispatched, 3))
        metrics.write_snapshot()

    def _await(self, entry: _Entry) -> Any | None:
        """Await one entry's future, polling for token-fired cancellation.

        A job not yet started whose handles have all cancelled (e.g.
        their submit-time tokens fired after dispatch) is withdrawn
        instead of executed.  A job already running in a worker
        completes — cross-process cooperative cancellation would need a
        shared token — bounded by its budget.  While waiting, a
        heartbeat every :data:`HEARTBEAT_INTERVAL_S` merges worker
        telemetry so progress stays visible mid-job.  Resolves the
        entry and returns ``None`` when the procedure raised or the job
        was cancelled (a non-``Exception`` escape is re-raised after
        resolving); returns :data:`_WORKER_LOST` when the worker died
        and broke the pool (the caller respawns and re-dispatches);
        otherwise returns the result for the caller to cache + resolve.
        """
        last_heartbeat = time.perf_counter()
        while True:
            if entry.all_cancelled() and entry.future.cancel():
                self._skip(entry)
                return None
            try:
                # exception(), not result(): a TimeoutError the job
                # raised must not read as a poll timeout.
                error = entry.future.exception(timeout=0.05)
            except _futures.TimeoutError:
                now = time.perf_counter()
                if now - last_heartbeat >= HEARTBEAT_INTERVAL_S:
                    last_heartbeat = now
                    self._heartbeat(entry)
                continue
            except _futures.CancelledError:
                self._skip(entry)
                return None
            if error is None:
                return entry.future.result()
            if isinstance(error, BrokenProcessPool):
                return _WORKER_LOST
            metrics.counter("serve.jobs.completed", outcome="error").inc()
            entry.resolve(
                Answer.unknown(detail=f"procedure raised {type(error).__name__}")
            )
            if not isinstance(error, Exception):
                raise error
            return None

    def _runner(self) -> InlineRunner | WorkerPool:
        if not self.workers:
            return InlineRunner()
        if self._pool is None:
            self._pool = WorkerPool(self.workers)
        return self._pool

    def _on_handle_cancelled(self, entry: _Entry) -> None:
        if entry.all_cancelled():
            # Trips an in-process run at its next checkpoint; a job not
            # yet started has its future cancelled instead.
            entry.token.cancel()
            future = entry.future
            if future is not None:
                future.cancel()

    # -- lifecycle / introspection -----------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Service + cache + resilience counters, JSON-friendly."""
        try:
            dlq_depth = len(self.dlq)
        except Exception:  # noqa: BLE001 - stats after close(): store is gone
            dlq_depth = self.jobs_dead_lettered
        return {
            "workers": self.workers,
            "jobs_executed": self.jobs_executed,
            "jobs_deduped": self.jobs_deduped,
            "jobs_skipped": self.jobs_skipped,
            "cache": self.cache.stats.as_dict(),
            "resilience": {
                "retried": self.jobs_retried,
                "rejected": self.jobs_rejected,
                "redispatched": self.jobs_redispatched,
                "worker_lost": self.jobs_worker_lost,
                "dead_lettered": self.jobs_dead_lettered,
                "pool_respawns": self._pool.respawns if self._pool else 0,
                "dlq_depth": dlq_depth,
            },
        }

    def close(self) -> None:
        """Shut down the worker pool and any cache this service created."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        if self._owns_cache:
            self.cache.close()

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
