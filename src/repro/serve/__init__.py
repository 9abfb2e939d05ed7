"""repro.serve — concurrent solver service for the decision procedures.

The paper's procedures answer one question at a time; this package turns
them into a *service*: a job scheduler with structural fingerprints, a
content-addressed answer cache, in-flight deduplication, per-job
resource budgets with cancellation, and a process-pool backend whose
workers re-emit their :mod:`repro.obs` spans into the parent trace.

Quickstart::

    from repro import serve
    from repro.guard import Budget
    from repro.workloads.scaling import pl_counter_sws

    sws = pl_counter_sws(8)
    handle = serve.submit("nonempty_pl", sws, budget=Budget(deadline_s=5))
    answer = handle.result()           # runs the pending work
    again = serve.submit("nonempty_pl", sws)
    assert again.from_cache            # same structure => cache hit

Batch mode (and ``python -m repro.serve run jobs.jsonl``) executes a
list of :class:`~repro.serve.scheduler.JobSpec` jobs::

    results = serve.run_batch([
        serve.JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in range(4, 10)
    ])

Components:

* :mod:`repro.serve.fingerprint` — hash-seed- and construction-order-
  independent structural fingerprints of problem instances.
* :mod:`repro.serve.store` — the WAL-mode SQLite store of answers and
  dead letters; safe for many concurrent reader/writer processes.
* :mod:`repro.serve.cache` — in-memory LRU over the optional store
  disk tier (``REPRO_CACHE_DIR``); never caches UNKNOWN.
* :mod:`repro.serve.scheduler` — :class:`SolverService`,
  :class:`JobHandle`, dedup and cancellation semantics.
* :mod:`repro.serve.resilience` — :class:`RetryPolicy` (budget
  escalation + decorrelated-jitter backoff), :class:`AdmissionControl`
  (queue-depth cap + per-source token buckets), and the store-backed
  :class:`DeadLetterQueue` (``python -m repro.serve dlq``).
* :mod:`repro.serve.pool` — the in-process and worker-pool runners,
  worker spool merging, and in-place respawn after a worker death.
* :mod:`repro.serve.registry` — the name → procedure table.

See ``docs/SERVING.md`` for the full design.
"""

from repro.serve.cache import AnswerCache, CacheStats, cacheable
from repro.serve.store import Store, StoreError
from repro.serve.fingerprint import (
    FingerprintError,
    canonical,
    fingerprint,
    job_fingerprint,
)
from repro.serve.pool import WorkerPool
from repro.serve.registry import (
    PROCEDURES,
    UnknownProcedureError,
    get_procedure,
    procedure_names,
    register_procedure,
)
from repro.serve.resilience import (
    REJECTED_DETAIL,
    RETRYABLE_LIMITS,
    WORKER_LOST_DETAIL,
    AdmissionControl,
    DeadLetterQueue,
    DLQRecord,
    RetryPolicy,
)
from repro.serve.scheduler import (
    BATCH_ABORTED_DETAIL,
    CANCELLED_DETAIL,
    JobHandle,
    JobSpec,
    SolverService,
)

__all__ = [
    "AdmissionControl",
    "AnswerCache",
    "BATCH_ABORTED_DETAIL",
    "CacheStats",
    "CANCELLED_DETAIL",
    "DeadLetterQueue",
    "DLQRecord",
    "FingerprintError",
    "JobHandle",
    "JobSpec",
    "PROCEDURES",
    "REJECTED_DETAIL",
    "RETRYABLE_LIMITS",
    "RetryPolicy",
    "SolverService",
    "Store",
    "StoreError",
    "UnknownProcedureError",
    "WORKER_LOST_DETAIL",
    "WorkerPool",
    "cacheable",
    "canonical",
    "default_service",
    "fingerprint",
    "get_procedure",
    "job_fingerprint",
    "procedure_names",
    "register_procedure",
    "reset_default_service",
    "run_batch",
    "submit",
]

_default_service: SolverService | None = None


def default_service() -> SolverService:
    """The process-wide service behind :func:`submit`/:func:`run_batch`.

    Created on first use: in-process execution, disk cache tier enabled
    iff ``REPRO_CACHE_DIR`` is set.
    """
    global _default_service
    if _default_service is None:
        _default_service = SolverService()
    return _default_service


def reset_default_service() -> None:
    """Discard the default service (tests; after env-var changes)."""
    global _default_service
    if _default_service is not None:
        _default_service.close()
    _default_service = None


def submit(procedure: str, *args, **kwargs) -> JobHandle:
    """Submit a job to the default service (see :meth:`SolverService.submit`)."""
    return default_service().submit(procedure, *args, **kwargs)


def run_batch(jobs) -> list:
    """Run a batch on the default service (see :meth:`SolverService.run_batch`)."""
    return default_service().run_batch(jobs)
