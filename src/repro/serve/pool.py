"""Job runners: the worker pool and its in-process twin.

Workers receive *names*, not code: a job crosses the process boundary
as ``(procedure_name, args, kwargs, budget_spec)`` where the procedure
name resolves against :mod:`repro.serve.registry` inside the worker and
the budget travels as the plain dict from
:meth:`repro.guard.Budget.as_dict`.  The instance arguments themselves
pickle thanks to the model types' round-trip support (interned PL
formulas re-intern on load; compiled AFA engines are dropped and
rebuilt on first use).

:class:`InlineRunner` offers the pool's ``submit`` for ``workers=0``:
its future runs the job in whichever thread awaits it, so the
scheduler's round loop drives in-process and pooled jobs alike.  Both
runners execute one job body (:func:`_solve`: resolve the procedure,
run it under the guard, observe ``serve.job.latency_s``); a worker
wraps it with budget decoding, chaos, busy gauges and a per-job
metrics snapshot (:func:`_run_job`).

Telemetry across the boundary: when the parent has a :mod:`repro.obs`
sink or records :mod:`repro.metrics` as the pool is made, each worker's
sink is its own JSONL spool (``worker-<pid>.jsonl``) in one temporary
directory — its span and progress events, and after every job one
*cumulative* ``metrics`` snapshot if the parent was recording (the
worker's registry is zeroed after the fork; the parent owns the
pre-fork counts).  :meth:`WorkerPool.merge_traces` folds the spools in:
events are re-emitted into the parent's sink via
:func:`repro.obs.reemit` with a ``worker_pid`` attribute (dropped when
the parent has none), and each spool's newest snapshot merges into the
parent registry delta-wise.
Merging tracks per-file byte offsets and reads whole lines only, so it
is incremental and idempotent and never consumes a line a worker is
still writing.

Cancellation: a queued job's future can still be cancelled; a job
already running in a worker runs to completion (its budget's deadline
still bounds it).  A token cannot cross processes, so the pool ignores
``cancel_token`` and the scheduler checks tokens before dispatch; an
in-process job's guard polls its token at every checkpoint.

Worker loss: an abruptly dead worker (OOM kill, segfault, chaos
``os._exit``) breaks the whole :class:`ProcessPoolExecutor` — every
in-flight future raises :class:`BrokenProcessPool`.  :meth:`WorkerPool.respawn`
rebuilds the executor in place (same spool directory, same merge
offsets, so no telemetry is lost) and the scheduler re-dispatches or
resolves the stranded jobs; the pool itself never leaks a hung future.
The reverse holds too: each worker exits when its parent dies, even by
a signal that leaves no chance to shut the executor down.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import tempfile
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Mapping

from repro import metrics, obs
from repro.guard import Budget, CancelToken, Guard
from repro.guard import inject as _inject
from repro.serve.registry import get_procedure

__all__ = ["BrokenProcessPool", "InlineRunner", "WorkerPool"]


def _exit_with_parent() -> None:
    """End this worker once its parent process is gone.

    A parent killed by a signal never shuts its executor down, and its
    workers would stay blocked on the call queue, reparented to init.
    ``join`` waits on the parent sentinel, a pipe that reads EOF once
    every holder of its write end has exited, however it died: the
    parent, and any worker forked after this one (which inherited the
    parent's end and exits first, the same way).
    """
    multiprocessing.parent_process().join()
    os._exit(1)


def _worker_init(spool_dir: str | None, record: bool) -> None:
    """Per-worker initializer: exit with the parent, and point the
    worker's telemetry at its spool.

    The fork inherits the parent's sink, which two processes must not
    append to (their half-lines would interleave), and its metrics
    registry, whose counts the parent owns.  Metrics go off first, so
    detaching the sink writes no final snapshot into the parent's file;
    the registry is zeroed; then the spool becomes the worker's sink and
    recording mirrors the parent's.
    """
    threading.Thread(target=_exit_with_parent, daemon=True).start()
    metrics.configure(enabled=False)
    metrics.REGISTRY.reset()
    if spool_dir is None:
        obs.configure(enabled=False)
        return
    # "a": a recycled pid must not truncate lines the parent has not
    # merged yet.
    obs.configure(path=os.path.join(spool_dir, f"worker-{os.getpid()}.jsonl"))
    metrics.configure(enabled=record)


def _solve(
    name: str,
    args: tuple,
    kwargs: Mapping[str, Any],
    guard: Guard | Budget | None,
) -> Any:
    """The job body both runners share: resolve, run under ``guard``, time."""
    procedure = get_procedure(name)
    t0 = time.perf_counter()
    try:
        if guard is not None:
            return procedure(*args, guard=guard, **kwargs)
        return procedure(*args, **kwargs)
    finally:
        metrics.observe(
            "serve.job.latency_s", time.perf_counter() - t0, procedure=name
        )


def _run_job(
    name: str,
    args: tuple,
    kwargs: Mapping[str, Any],
    budget_spec: Mapping[str, Any] | None,
    job_key: str | None = None,
    attempt: int = 0,
) -> Any:
    """Worker-side job: decode the budget, draw chaos, run :func:`_solve`.

    ``attempt`` is the parent's dispatch count for this entry (retries
    and post-crash re-dispatches increment it); it only feeds the chaos
    harness's per-dispatch fault decisions.
    """
    budget = Budget.from_dict(budget_spec) if budget_spec else None
    # Chaos (if armed via install_chaos before the fork, or REPRO_CHAOS):
    # this dispatch may draw a mid-search kill, an injected trip, or a
    # pre-execution stall.
    stall_s = _inject.apply_job_chaos(job_key or name, attempt)
    if stall_s > 0:
        time.sleep(stall_s)
    metrics.gauge("serve.worker.busy").set(1)
    t0 = time.perf_counter()
    try:
        return _solve(name, args, kwargs, budget)
    finally:
        _inject.clear_job_chaos()
        metrics.counter("serve.worker.jobs").inc()
        metrics.counter("serve.worker.busy_s").inc(time.perf_counter() - t0)
        metrics.gauge("serve.worker.busy").set(0)
        # One cumulative snapshot per job, appended to the spool: the
        # parent can merge at any point and always finds a whole one.
        metrics.write_snapshot()


class _DeferredFuture(Future):
    """A future whose job runs in the first thread that awaits it."""

    def __init__(self, job: Callable[[], Any]) -> None:
        super().__init__()
        self._job: Callable[[], Any] | None = job

    def _run(self) -> None:
        job, self._job = self._job, None
        # False when the future was cancelled before anyone awaited it.
        if job is not None and self.set_running_or_notify_cancel():
            try:
                self.set_result(job())
            except BaseException as error:  # noqa: BLE001 - the awaiter gets it
                self.set_exception(error)

    def result(self, timeout: float | None = None) -> Any:
        self._run()
        return super().result(timeout)

    def exception(self, timeout: float | None = None) -> BaseException | None:
        self._run()
        return super().exception(timeout)


class InlineRunner:
    """Runs jobs in the calling process, behind :class:`WorkerPool`'s ``submit``.

    The job runs when the scheduler's round awaits its future, under a
    :class:`~repro.guard.Guard` that polls ``cancel_token``, so an
    entry cancelled mid-run trips at its next checkpoint.  No chaos is
    drawn and no worker telemetry is recorded: the spans and metrics
    land in this process directly.
    """

    def submit(
        self,
        name: str,
        args: tuple,
        kwargs: Mapping[str, Any],
        budget: Budget | None,
        job_key: str | None = None,
        attempt: int = 0,
        cancel_token: CancelToken | None = None,
    ) -> Future:
        guard = Guard(budget=budget, cancel_token=cancel_token)
        return _DeferredFuture(functools.partial(_solve, name, args, kwargs, guard))


#: How a snapshot line reads in a spool: sinks write ``json.dumps`` with its
#: default separators.
_SNAPSHOT_TAG = b'"event": "metrics"'


def _newest_snapshot(lines: list[bytes]) -> dict | None:
    """The newest whole ``metrics`` event among spool ``lines``, parsing no other line.

    Snapshots are cumulative, so the newest one is all a merge needs.
    """
    for line in reversed(lines):
        if _SNAPSHOT_TAG not in line:
            continue
        try:
            event = json.loads(line)
        except ValueError:  # e.g. a line cut off by a killed worker
            continue
        if event.get("event") == "metrics":
            return event
    return None


class WorkerPool:
    """A :class:`ProcessPoolExecutor` wired for solver jobs and telemetry."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("worker pool needs at least one worker")
        self.workers = workers
        self._record = metrics.is_enabled()
        self._spool_dir: str | None = None
        self._merge_offsets: dict[str, int] = {}
        if obs.is_enabled() or self._record:
            self._spool_dir = tempfile.mkdtemp(prefix="repro-serve-spool-")
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
            initargs=(self._spool_dir, self._record),
        )

    def respawn(self) -> None:
        """Replace a broken executor with a fresh one, in place.

        Called after a worker died abruptly and broke the pool.  The
        dead executor is shut down without waiting (its workers are
        gone); the spool directory and merge offsets survive, so worker
        telemetry from before the crash still merges.  Whatever the
        spools hold is folded in first — the dead workers will never
        write again.
        """
        self.merge_traces()
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
        cancel_token: CancelToken | None = None,
    ) -> Future:
        spec = budget.as_dict() if budget is not None else None
        return self._executor.submit(
            _run_job, name, args, dict(kwargs), spec, job_key, attempt
        )

    # -- spool merging -----------------------------------------------------------

    def merge_traces(self) -> int:
        """Fold what the workers appended to their spools into the parent.

        Span and progress events are re-emitted into the parent's trace
        sink; each spool's newest ``metrics`` snapshot merges into the
        parent registry.  With no sink (:func:`repro.obs.reemit` would
        drop every span and progress event) only that snapshot's line is
        parsed.  Only whole lines are read — a line a worker is still
        writing waits for the next call.  Safe to call repeatedly; each
        call reads only bytes appended since the last one.  Returns the
        number of lines merged.
        """
        if self._spool_dir is None:
            return 0
        merged = 0
        try:
            names = sorted(os.listdir(self._spool_dir))
        except OSError:
            return 0
        for fname in names:
            path = os.path.join(self._spool_dir, fname)
            offset = self._merge_offsets.get(path, 0)
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    payload = handle.read()
            except OSError:
                continue
            whole = payload.rfind(b"\n") + 1
            self._merge_offsets[path] = offset + whole
            pid = fname[len("worker-") : -len(".jsonl")]
            lines = payload[:whole].splitlines()
            snapshot = None
            if obs.is_enabled():
                for line in lines:
                    try:
                        event = json.loads(line)
                    except ValueError:  # e.g. a line cut off by a killed worker
                        continue
                    merged += 1
                    if event.get("event") == "metrics":
                        snapshot = event  # cumulative: the newest one suffices
                    else:
                        obs.reemit(event, worker_pid=pid)
            else:
                snapshot = _newest_snapshot(lines)
                merged += snapshot is not None
            if snapshot is not None and metrics.is_enabled():
                metrics.REGISTRY.merge_snapshot(snapshot, source=pid)
        return merged

    def shutdown(self, wait: bool = True) -> None:
        self._executor.shutdown(wait=wait)
        self.merge_traces()
        directory, self._spool_dir = self._spool_dir, None
        if directory is not None:
            try:
                for fname in os.listdir(directory):
                    os.unlink(os.path.join(directory, fname))
                os.rmdir(directory)
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown()
