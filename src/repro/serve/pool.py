"""Process-pool execution of solver jobs.

Workers receive *names*, not code: a job crosses the process boundary
as ``(procedure_name, args, kwargs, budget_spec)`` where the procedure
name resolves against :mod:`repro.serve.registry` inside the worker and
the budget travels as the plain dict from
:meth:`repro.guard.Budget.as_dict`.  The instance arguments themselves
pickle thanks to the model types' round-trip support (interned PL
formulas re-intern on load; compiled AFA engines are dropped and
rebuilt on first use).

Tracing across the boundary: when the parent has :mod:`repro.obs`
enabled, each worker is initialized with its own JSONL trace file under
a spool directory (``worker-<pid>.jsonl``).  The parent periodically
merges those files — re-emitting each span event into its own sink via
:func:`repro.obs.reemit` with a ``worker_pid`` attribute — so one
parent trace tells the whole story.  Merging tracks per-file byte
offsets, so it is incremental and idempotent.

Metrics cross the boundary the same way: when the parent has
:mod:`repro.metrics` enabled, each worker records into its own registry
(zeroed after the fork — the parent owns the pre-fork counts) and
spools one *cumulative* snapshot per completed job
(``metrics-<pid>.json``, atomic rename).  :meth:`WorkerPool.merge_metrics`
folds the spools into the parent registry delta-wise, so parent-side
histograms include worker-recorded samples and repeated merges never
double-count.

Cancellation: a queued job's future can still be cancelled; a job
already running in a worker runs to completion (its budget's deadline
still bounds it).  Cross-process cooperative cancellation would need a
shared token; the scheduler therefore checks tokens before dispatch.

Worker loss: an abruptly dead worker (OOM kill, segfault, chaos
``os._exit``) breaks the whole :class:`ProcessPoolExecutor` — every
in-flight future raises :class:`BrokenProcessPool`.  :meth:`WorkerPool.respawn`
rebuilds the executor in place (same spool directories, same merge
offsets, so no telemetry is lost) and the scheduler re-dispatches or
resolves the stranded jobs; the pool itself never leaks a hung future.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import tempfile
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Mapping

from repro import metrics, obs
from repro.guard import Budget
from repro.guard import inject as _inject
from repro.obs import progress as _obs_progress

__all__ = ["BrokenProcessPool", "WorkerPool"]

#: Module-level so the fork/spawn child can import it by qualified name.
_WORKER_TRACE_DIR: str | None = None


def _worker_init(trace_dir: str | None, metrics_dir: str | None) -> None:
    """Per-worker initializer: give the worker its own trace/metrics sinks."""
    global _WORKER_TRACE_DIR
    _WORKER_TRACE_DIR = trace_dir
    if trace_dir is not None:
        path = os.path.join(trace_dir, f"worker-{os.getpid()}.jsonl")
        # "a": a recycled pid (or a fork that inherited an open sink)
        # must not truncate events the parent has not merged yet.
        obs.configure(path=path, mode="a")
    else:
        # A forked worker inherits the parent's open sink; writing to it
        # from two processes would interleave half-lines.  Detach.
        if obs.is_enabled():
            obs.configure(enabled=False)
    # The fork also inherits the parent's metrics registry and sink:
    # zero the registry (the parent owns those counts) and spool
    # cumulative snapshots for the parent to merge delta-wise.
    spool = (
        os.path.join(metrics_dir, f"metrics-{os.getpid()}.json")
        if metrics_dir is not None
        else None
    )
    metrics.reset_after_fork(spool)
    # Progress telemetry: the inherited tracker state belongs to the
    # parent; re-arm a fresh one (keeps enablement + interval).
    _obs_progress.reset()


def _run_job(
    name: str,
    args: tuple,
    kwargs: Mapping[str, Any],
    budget_spec: Mapping[str, Any] | None,
    job_key: str | None = None,
    attempt: int = 0,
) -> Any:
    """Worker-side job body: resolve the procedure by name and run it.

    ``attempt`` is the parent's dispatch count for this entry (retries
    and post-crash re-dispatches increment it); it only feeds the chaos
    harness's per-dispatch fault decisions.
    """
    from repro.serve.registry import get_procedure

    procedure = get_procedure(name)
    guard = Budget.from_dict(budget_spec) if budget_spec else None
    # Chaos (if armed via install_chaos before the fork, or REPRO_CHAOS):
    # this dispatch may draw a mid-search kill, an injected trip, or a
    # pre-execution stall.
    stall_s = _inject.apply_job_chaos(job_key or name, attempt)
    if stall_s > 0:
        time.sleep(stall_s)
    metrics.gauge("serve.worker.busy").set(1)
    t0 = time.perf_counter()
    try:
        if guard is not None:
            return procedure(*args, guard=guard, **dict(kwargs))
        return procedure(*args, **dict(kwargs))
    finally:
        _inject.clear_job_chaos()
        elapsed = time.perf_counter() - t0
        metrics.observe("serve.job.latency_s", elapsed, procedure=name)
        metrics.counter("serve.worker.jobs").inc()
        metrics.counter("serve.worker.busy_s").inc(elapsed)
        metrics.gauge("serve.worker.busy").set(0)
        # Cumulative spool write per job: the parent can merge at any
        # point and always sees one complete snapshot.
        metrics.write_snapshot()


class WorkerPool:
    """A :class:`ProcessPoolExecutor` wired for solver jobs and tracing."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.workers = workers
        self._trace_dir: str | None = None
        self._metrics_dir: str | None = None
        self._merge_offsets: dict[str, int] = {}
        if obs.is_enabled():
            self._trace_dir = tempfile.mkdtemp(prefix="repro-serve-trace-")
        if metrics.is_enabled():
            self._metrics_dir = tempfile.mkdtemp(prefix="repro-serve-metrics-")
            metrics.gauge("serve.pool.workers").set(workers)
        self.respawns = 0
        self._executor = self._spawn_executor()

    def _spawn_executor(self) -> ProcessPoolExecutor:
        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            context = multiprocessing.get_context()
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=context,
            initializer=_worker_init,
            initargs=(self._trace_dir, self._metrics_dir),
        )

    def respawn(self) -> None:
        """Replace a broken executor with a fresh one, in place.

        Called after a worker died abruptly and broke the pool.  The
        dead executor is shut down without waiting (its workers are
        gone); spool directories and merge offsets survive, so worker
        telemetry from before the crash still merges.  Any telemetry
        the surviving spool files hold is folded in first — the dead
        workers will never write again.
        """
        self.merge_traces()
        self.merge_metrics()
        try:
            self._executor.shutdown(wait=False)
        except Exception:  # noqa: BLE001 - a broken executor may refuse
            pass
        self.respawns += 1
        metrics.counter("serve.pool.respawns").inc()
        self._executor = self._spawn_executor()

    def submit(
        self,
        name: str,
        args: tuple,
        kwargs: Mapping[str, Any],
        budget: Budget | None,
        job_key: str | None = None,
        attempt: int = 0,
    ) -> Future:
        spec = budget.as_dict() if budget is not None else None
        return self._executor.submit(
            _run_job, name, args, dict(kwargs), spec, job_key, attempt
        )

    # -- trace spool merging -----------------------------------------------------

    def merge_traces(self) -> int:
        """Fold new worker span events into the parent sink.

        Returns the number of events merged.  Safe to call repeatedly;
        each call only reads bytes appended since the last one.
        """
        if self._trace_dir is None or not obs.is_enabled():
            return 0
        merged = 0
        try:
            names = sorted(os.listdir(self._trace_dir))
        except OSError:
            return 0
        for fname in names:
            if not fname.endswith(".jsonl"):
                continue
            path = os.path.join(self._trace_dir, fname)
            offset = self._merge_offsets.get(path, 0)
            try:
                with open(path, encoding="utf-8") as handle:
                    handle.seek(offset)
                    payload = handle.read()
                    self._merge_offsets[path] = handle.tell()
            except OSError:
                continue
            pid = fname[len("worker-") : -len(".jsonl")]
            for line in payload.splitlines():
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue
                obs.reemit(event, worker_pid=pid)
                merged += 1
        return merged

    # -- metrics spool merging ---------------------------------------------------

    def merge_metrics(self) -> int:
        """Fold worker metrics spools into the parent registry.

        Each spool file is one cumulative snapshot per worker; the
        registry merges delta-wise per source, so calling this
        repeatedly (mid-batch, post-batch, at shutdown) never
        double-counts.  Returns the number of spools merged.
        """
        if self._metrics_dir is None or not metrics.is_enabled():
            return 0
        merged = 0
        try:
            names = sorted(os.listdir(self._metrics_dir))
        except OSError:
            return 0
        for fname in names:
            if not fname.startswith("metrics-") or not fname.endswith(".json"):
                continue
            path = os.path.join(self._metrics_dir, fname)
            try:
                with open(path, encoding="utf-8") as handle:
                    snap = json.load(handle)
            except (OSError, json.JSONDecodeError):
                continue
            pid = fname[len("metrics-") : -len(".json")]
            metrics.REGISTRY.merge_snapshot(snap, source=pid)
            merged += 1
        return merged

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
        self.merge_traces()
        self.merge_metrics()
        for attr in ("_trace_dir", "_metrics_dir"):
            directory = getattr(self, attr)
            if directory is not None:
                try:
                    for fname in os.listdir(directory):
                        os.unlink(os.path.join(directory, fname))
                    os.rmdir(directory)
                except OSError:
                    pass
                setattr(self, attr, None)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
