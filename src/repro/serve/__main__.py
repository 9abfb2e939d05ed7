"""``python -m repro.serve`` — batch solver service CLI.

Subcommands:

* ``run JOBS.jsonl [--workers N] [--out RESULTS.jsonl] [--cache-dir D]
  [--repeat K] [--trace TRACE.jsonl] [--retries K] [--strict]`` —
  execute a JSONL job file and write one result record per job (in job
  order).  ``--trace`` writes the run's spans, progress events and
  metrics snapshots to one file, as ``REPRO_TRACE`` does for a whole
  process.  ``--retries``/``--budget-multiplier`` turn on
  budget-escalation retry for tripped jobs;
  ``--max-queue-depth``/``--admit-rate`` turn on admission
  control.  The run always prints a per-outcome summary line; the exit
  status is nonzero when any job was dead-lettered, and ``--strict``
  extends that to any UNKNOWN result.
* ``dlq list|retry|purge CACHE_DIR`` — inspect the dead-letter queue
  behind a cache directory, re-run its payload-bearing records (decided
  answers leave the queue), or drop every record.
* ``procedures`` — list the registered decision procedures.
* ``fingerprint JOBS.jsonl`` — print each job's fingerprint without
  running anything (what the cache would key on).
* ``store stats|vacuum`` — inspect and maintain the SQLite answer
  store behind a cache directory (``stats`` prints a JSON summary;
  ``vacuum`` compacts the file).
* ``top [TRACE.jsonl]`` — live dashboard over the metrics snapshots in
  a trace (``run --trace`` or ``REPRO_TRACE``): throughput, queue depth,
  worker utilization, cache hit rate, per-procedure latency
  percentiles.

Job file format — one JSON object per line::

    {"procedure": "nonempty_pl",
     "instances": [{"factory": "repro.workloads.scaling:pl_counter_sws",
                    "args": [10]}],
     "kwargs": {},
     "budget": {"deadline_s": 5.0, "step_budget": 200000},
     "label": "counter-10"}

``instances`` build the procedure's positional arguments, each either a
``factory`` spec (``module:function`` restricted to ``repro.workloads``
modules, plus ``args``/``kwargs`` for it) or an inline ``pickle``
(base64) of a prebuilt instance.  ``budget`` uses the
:meth:`repro.guard.Budget.as_dict` fields.  Lines starting with ``#``
and blank lines are skipped.

With ``--repeat K``, factory arguments equal to the string ``"@round"``
are replaced by the round index, so each round can build an *edited*
version of the instance.  Round 0 runs through the service like any
batch (workers, cache, metrics); PL nonempty/validate jobs then open one
:class:`repro.delta.Session` per fingerprint on that answer, and later
rounds re-check incrementally (cached / replay / warm) instead of
resubmitting; the summary reports the per-mode counts.

Result records carry the job's label, procedure, fingerprint, verdict
summary (via ``Answer.as_dict`` when available), whether it was served
from cache, and the batch-level stats as a trailing ``_summary`` record.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pickle
import sys
import time
from typing import Any

from repro import metrics, obs
from repro.guard import Budget
from repro.serve import top as _top
from repro.serve.cache import STORE_FILE, AnswerCache
from repro.serve.fingerprint import job_fingerprint
from repro.serve.registry import procedure_names, resolve_factory
from repro.serve.resilience import AdmissionControl, DeadLetterQueue, RetryPolicy
from repro.serve.scheduler import JobSpec, SolverService
from repro.serve.store import Store


def _substitute_round(spec: Any, round_index: int) -> Any:
    """Replace ``"@round"`` placeholders in a factory spec's arguments.

    Lets a job file describe an *edited* instance per repeat round, e.g.
    ``{"factory": "repro.workloads.editing:edited_menu", "kwargs":
    {"step": "@round"}}`` — round 0 builds the base version, later
    rounds its successive edits, so ``--repeat`` exercises the delta
    path instead of resubmitting one frozen instance.
    """
    if not (isinstance(spec, dict) and "factory" in spec):
        return spec
    sub = lambda v: round_index if v == "@round" else v  # noqa: E731
    out = dict(spec)
    out["args"] = [sub(v) for v in spec.get("args", ())]
    out["kwargs"] = {k: sub(v) for k, v in spec.get("kwargs", {}).items()}
    return out


def _build_instance(spec: Any, round_index: int = 0) -> Any:
    spec = _substitute_round(spec, round_index)
    if isinstance(spec, dict) and "factory" in spec:
        factory = resolve_factory(spec["factory"])
        return factory(*spec.get("args", ()), **spec.get("kwargs", {}))
    if isinstance(spec, dict) and "pickle" in spec:
        return pickle.loads(base64.b64decode(spec["pickle"]))
    if isinstance(spec, (str, int, float, bool)) or spec is None:
        return spec
    raise ValueError(
        "instance spec must be a factory/pickle object or a JSON scalar, "
        f"got {spec!r}"
    )


class _RawJob:
    """A parsed job line whose instances rebuild per repeat round."""

    def __init__(
        self,
        procedure: str,
        specs: tuple[Any, ...],
        kwargs: dict[str, Any],
        budget: Budget | None,
        label: str,
    ) -> None:
        self.procedure = procedure
        self.specs = specs
        self.kwargs = kwargs
        self.budget = budget
        self.label = label

    def build(self, round_index: int = 0) -> JobSpec:
        try:
            args = tuple(
                _build_instance(spec, round_index) for spec in self.specs
            )
        except (ValueError, TypeError) as error:
            raise SystemExit(f"job {self.label!r}: {error}") from None
        return JobSpec(self.procedure, args, self.kwargs, self.budget, self.label)


def _load_jobs(path: str) -> list[_RawJob]:
    jobs: list[_RawJob] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise SystemExit(f"{path}:{lineno}: bad JSON: {error}") from None
            try:
                procedure = record["procedure"]
                specs = tuple(record.get("instances", ()))
                kwargs = dict(record.get("kwargs", {}))
                budget_spec = record.get("budget")
                budget = Budget.from_dict(budget_spec) if budget_spec else None
                label = record.get("label") or f"{procedure}#{lineno}"
            except (KeyError, ValueError, TypeError) as error:
                raise SystemExit(f"{path}:{lineno}: bad job: {error}") from None
            jobs.append(_RawJob(procedure, specs, kwargs, budget, label))
    return jobs


def _result_record(job: JobSpec, handle: Any, result: Any) -> dict[str, Any]:
    record: dict[str, Any] = {
        "label": job.label,
        "procedure": job.procedure,
        "fingerprint": handle.fingerprint,
        "from_cache": handle.from_cache,
        "deduped": handle.deduped,
        "outcome": _outcome(handle, result),
        "attempts": handle.attempts,
    }
    if hasattr(result, "as_dict"):
        record.update(result.as_dict())
    else:
        record["result"] = repr(result)
    return record


def _outcome(handle: Any, result: Any) -> str:
    """One word for the summary line: how this job's handle resolved."""
    if getattr(handle, "rejected", False):
        return "rejected"
    if getattr(handle, "dead_lettered", False):
        return "dead_lettered"
    verdict = getattr(getattr(result, "verdict", None), "value", None)
    return "unknown" if verdict == "unknown" else "decided"


def _session_record(
    job: JobSpec, session: Any, answer: Any, mode: str
) -> dict[str, Any]:
    """A result record for a job served inline by a delta Session."""
    verdict = getattr(getattr(answer, "verdict", None), "value", None)
    record: dict[str, Any] = {
        "label": job.label,
        "procedure": job.procedure,
        "fingerprint": session.fingerprint,
        "from_cache": mode == "cached",
        "deduped": False,
        "outcome": "unknown" if verdict == "unknown" else "decided",
        "attempts": 1,
        "delta_mode": mode,
    }
    if hasattr(answer, "as_dict"):
        record.update(answer.as_dict())
    return record


def _build_resilience(
    args: argparse.Namespace,
) -> tuple[RetryPolicy | None, AdmissionControl | None]:
    retry = None
    if args.retries > 1:
        retry = RetryPolicy(
            max_attempts=args.retries, budget_multiplier=args.budget_multiplier
        )
    admission = None
    if args.max_queue_depth is not None or args.admit_rate is not None:
        admission = AdmissionControl(
            max_queue_depth=args.max_queue_depth, rate=args.admit_rate
        )
    return retry, admission


def _cmd_run(args: argparse.Namespace) -> int:
    raw_jobs = _load_jobs(args.jobs)
    if not raw_jobs:
        print(f"{args.jobs}: no jobs", file=sys.stderr)
        return 1
    if args.trace:
        # Truncate: one run, one stream (watch it live with
        # ``python -m repro.serve top <path>``, read it afterwards with
        # ``python -m repro.obs explain <path>``).
        obs.configure(path=args.trace, mode="w")
        metrics.configure(enabled=True)
    cache = AnswerCache(directory=args.cache_dir) if args.cache_dir else None
    retry_policy, admission = _build_resilience(args)
    service = SolverService(
        workers=args.workers,
        cache=cache,
        retry_policy=retry_policy,
        admission=admission,
    )
    started = time.perf_counter()
    rounds = max(1, args.repeat)
    sessions: dict[str, Any] = {}
    line_sessions: dict[int, Any] = {}
    jobs: list[JobSpec] = []
    records: list[dict[str, Any]] = []
    if rounds > 1:
        # `--repeat` solves round 0 through the service like any batch,
        # then opens one delta Session per job fingerprint on its answer
        # (taken from the service's cache): later rounds go through
        # edit/recheck (incremental when the spec only moved a little —
        # see `"@round"` factory substitution) instead of resubmitting.
        from repro.core.sws import SWS
        from repro.delta.engine import SUPPORTED_PROCEDURES
    try:
        for rnd in range(rounds):
            # Each repeat round drains before the next submits, so
            # non-session rounds after the first hit the warm answer
            # cache instead of deduping inside one batch.
            entries: list[tuple[JobSpec, Any]] = []
            for idx, raw in enumerate(raw_jobs):
                job = raw.build(rnd)
                jobs.append(job)
                session = line_sessions.get(idx)
                if session is None:
                    handle = service.submit(
                        job.procedure,
                        *job.args,
                        budget=job.budget,
                        label=job.label,
                        **job.kwargs,
                    )
                    entries.append((job, handle))
                    continue
                session.edit(job.args[0])
                result = session.recheck(job.budget)
                entries.append(
                    (job, _session_record(job, session, result.answer, result.mode))
                )
            service.drain()
            for idx, (job, item) in enumerate(entries):
                if isinstance(item, dict):
                    records.append(item)
                    continue
                records.append(_result_record(job, item, item.result()))
                if (
                    rnd == 0
                    and rounds > 1
                    and job.procedure in SUPPORTED_PROCEDURES
                    and len(job.args) == 1
                    and isinstance(job.args[0], SWS)
                ):
                    session = sessions.get(item.fingerprint)
                    if session is None:
                        session = sessions[item.fingerprint] = service.session(
                            job.args[0], job.procedure, budget=job.budget, **job.kwargs
                        )
                    line_sessions[idx] = session
                    records[-1]["delta_mode"] = "solve"
    finally:
        service.close()
        if cache is not None:
            cache.close()
        if args.trace:
            obs.configure(enabled=False)  # writes the final snapshot
            metrics.configure(enabled=False)
    elapsed = time.perf_counter() - started
    summary = {"_summary": service.stats(), "elapsed_s": round(elapsed, 6)}
    if sessions:
        modes: dict[str, int] = {}
        rechecks = 0
        for session in sessions.values():
            rechecks += session.rechecks
            for mode, count in session.modes.items():
                modes[mode] = modes.get(mode, 0) + count
        summary["delta"] = {
            "sessions": len(sessions),
            "rechecks": rechecks,
            "modes": dict(sorted(modes.items())),
        }
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        for record in records:
            out.write(json.dumps(record, sort_keys=True) + "\n")
        out.write(json.dumps(summary, sort_keys=True) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()
    stats = service.stats()
    print(
        f"{len(jobs)} jobs: {stats['jobs_executed']} executed, "
        f"{stats['jobs_deduped']} deduped, "
        f"{stats['cache']['hits']} cache hits, "
        f"{elapsed:.3f}s",
        file=sys.stderr,
    )
    outcomes = {"decided": 0, "unknown": 0, "rejected": 0, "dead_lettered": 0}
    for record in records:
        outcomes[record["outcome"]] += 1
    if sessions:
        delta_stats = summary["delta"]
        print(
            f"delta: {delta_stats['sessions']} session(s), "
            f"{delta_stats['rechecks']} recheck(s): "
            + (
                ", ".join(
                    f"{count} {mode}"
                    for mode, count in delta_stats["modes"].items()
                )
                or "none"
            ),
            file=sys.stderr,
        )
    resilience = stats["resilience"]
    print(
        "outcomes: "
        + ", ".join(f"{count} {name}" for name, count in outcomes.items())
        + f"; {resilience['retried']} retried, "
        f"{resilience['worker_lost']} worker-lost, "
        f"{resilience['dlq_depth']} in dlq",
        file=sys.stderr,
    )
    if outcomes["dead_lettered"]:
        print(
            f"FAIL: {outcomes['dead_lettered']} job(s) dead-lettered "
            "(inspect with `python -m repro.serve dlq list <cache-dir>`)",
            file=sys.stderr,
        )
        return 1
    if args.strict and (outcomes["unknown"] or outcomes["rejected"]):
        print(
            f"FAIL (--strict): {outcomes['unknown']} unknown, "
            f"{outcomes['rejected']} rejected",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_procedures(_args: argparse.Namespace) -> int:
    for name in procedure_names():
        print(name)
    return 0


def _cmd_fingerprint(args: argparse.Namespace) -> int:
    for raw in _load_jobs(args.jobs):
        job = raw.build()
        key = job_fingerprint(job.procedure, job.args, job.kwargs)
        print(f"{key}  {job.label}")
    return 0


def _open_store(args: argparse.Namespace) -> Store:
    path = os.path.join(args.cache_dir, STORE_FILE)
    if not os.path.exists(path):
        raise SystemExit(f"{path}: no store file")
    return Store(path)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        print(json.dumps(store.stats(), indent=2, sort_keys=True))
    return 0


def _cmd_store_vacuum(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        before = store.stats()["file_bytes"]
        store.vacuum()
        after = store.stats()["file_bytes"]
    print(f"vacuumed: {before} -> {after} bytes", file=sys.stderr)
    return 0


def _cmd_dlq_list(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        records = store.list_dlq()
        if args.json:
            for record in records:
                print(json.dumps(record.as_dict(), sort_keys=True))
        else:
            if not records:
                print("dlq: empty", file=sys.stderr)
            for record in records:
                last_trip = record.trips[-1] if record.trips else {}
                print(
                    f"{record.fingerprint[:16]}  {record.procedure:<24} "
                    f"{record.label:<24} attempts={record.attempts} "
                    f"reason={record.reason!r} last_trip={last_trip}"
                )
    return 0


def _cmd_dlq_retry(args: argparse.Namespace) -> int:
    """Re-run dead-lettered jobs; decided answers leave the queue.

    Only payload-bearing records can re-run (the payload is the pickled
    ``(args, kwargs)``).  Each retry starts from the record's last
    escalated budget — optionally re-escalated ``--retries`` more times.
    """
    cache = AnswerCache(directory=args.cache_dir)
    retry_policy = (
        RetryPolicy(
            max_attempts=args.retries, budget_multiplier=args.budget_multiplier
        )
        if args.retries > 1
        else None
    )
    service = SolverService(
        workers=args.workers, cache=cache, retry_policy=retry_policy
    )
    dlq = DeadLetterQueue(cache.store)
    recovered = skipped = still_dead = 0
    try:
        records = dlq.records()
        if args.fingerprint:
            records = [
                r for r in records if r.fingerprint.startswith(args.fingerprint)
            ]
        handles = []
        for record in records:
            job = record.job()
            if job is None:
                skipped += 1
                print(
                    f"skip {record.fingerprint[:16]}: no runnable payload",
                    file=sys.stderr,
                )
                continue
            job_args, job_kwargs = job
            budget = (
                Budget.from_dict(record.last_budget)
                if record.last_budget
                else None
            )
            handles.append(
                (
                    record,
                    service.submit(
                        record.procedure,
                        *job_args,
                        budget=budget,
                        label=record.label,
                        **job_kwargs,
                    ),
                )
            )
        service.drain()
        for record, handle in handles:
            result = handle.result()
            verdict = getattr(getattr(result, "verdict", None), "value", None)
            if verdict != "unknown":
                dlq.remove(record.fingerprint)
                recovered += 1
                print(f"recovered {record.fingerprint[:16]}: {verdict}")
            else:
                still_dead += 1
                detail = getattr(result, "detail", None)
                print(
                    f"still unknown {record.fingerprint[:16]}: {detail}",
                    file=sys.stderr,
                )
    finally:
        service.close()
        cache.close()
    print(
        f"dlq retry: {recovered} recovered, {still_dead} still dead, "
        f"{skipped} skipped",
        file=sys.stderr,
    )
    return 0 if still_dead == 0 else 1


def _cmd_dlq_purge(args: argparse.Namespace) -> int:
    with _open_store(args) as store:
        dropped = store.purge_dlq()
    print(f"dlq: purged {dropped} record(s)", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Batch solver service over the repro decision procedures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a JSONL job file")
    run.add_argument("jobs", help="JSONL job file")
    run.add_argument("--workers", type=int, default=0, help="worker processes (0 = in-process)")
    run.add_argument("--out", default=None, help="results JSONL path (default: stdout)")
    run.add_argument("--cache-dir", default=None, help="on-disk answer cache directory")
    run.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the job list K rounds; PL nonempty/validate jobs reuse "
        'one delta Session per fingerprint ("@round" factory args build '
        "an edited instance per round)",
    )
    run.add_argument(
        "--trace",
        default=None,
        help="write spans, progress events and metrics snapshots to this "
        "JSONL path (watch with `top`, read with `python -m repro.obs explain`)",
    )
    run.add_argument(
        "--retries",
        type=int,
        default=1,
        help="max executions per tripped job (>1 enables budget-escalation retry)",
    )
    run.add_argument(
        "--budget-multiplier",
        type=float,
        default=4.0,
        help="budget growth factor per retry (with --retries)",
    )
    run.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        help="reject submissions once this many jobs are queued",
    )
    run.add_argument(
        "--admit-rate",
        type=float,
        default=None,
        help="token-bucket admission rate (jobs/s) per source",
    )
    run.add_argument(
        "--strict",
        action="store_true",
        help="exit nonzero on any UNKNOWN or rejected result "
        "(dead-lettered jobs always fail the run)",
    )
    run.set_defaults(func=_cmd_run)

    procs = sub.add_parser("procedures", help="list registered procedures")
    procs.set_defaults(func=_cmd_procedures)

    fp = sub.add_parser("fingerprint", help="print job fingerprints without running")
    fp.add_argument("jobs", help="JSONL job file")
    fp.set_defaults(func=_cmd_fingerprint)

    store = sub.add_parser("store", help="inspect/maintain the answer store")
    store_sub = store.add_subparsers(dest="store_command", required=True)

    def _store_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("cache_dir", help="cache directory holding the store")

    st = store_sub.add_parser("stats", help="print a JSON store summary")
    _store_common(st)
    st.set_defaults(func=_cmd_store_stats)

    vac = store_sub.add_parser("vacuum", help="compact the store file")
    _store_common(vac)
    vac.set_defaults(func=_cmd_store_vacuum)

    dlq = sub.add_parser("dlq", help="inspect/re-run/purge the dead-letter queue")
    dlq_sub = dlq.add_subparsers(dest="dlq_command", required=True)

    dl = dlq_sub.add_parser("list", help="print dead-lettered jobs")
    _store_common(dl)
    dl.add_argument("--json", action="store_true", help="one JSON object per record")
    dl.set_defaults(func=_cmd_dlq_list)

    dr = dlq_sub.add_parser("retry", help="re-run payload-bearing DLQ records")
    _store_common(dr)
    dr.add_argument("--fingerprint", default=None, help="only records with this fingerprint prefix")
    dr.add_argument("--workers", type=int, default=0, help="worker processes (0 = in-process)")
    dr.add_argument("--retries", type=int, default=1, help="max executions per job (>1 re-escalates budgets)")
    dr.add_argument("--budget-multiplier", type=float, default=4.0, help="budget growth factor per retry")
    dr.set_defaults(func=_cmd_dlq_retry)

    dp = dlq_sub.add_parser("purge", help="drop every DLQ record")
    _store_common(dp)
    dp.set_defaults(func=_cmd_dlq_purge)

    _top.add_parser(sub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
