"""Per-layer attribution for the ``--trace 1`` run.

:meth:`Tracer.install` wraps each layer's public entry points in
:func:`repro.obs.span` before the service or pool exists, so forked pool
workers inherit the wrappers and spool their spans back through the
pool's existing trace merge.  The spans the program already emits
(``nonempty_pl``, ``afa.compile``, ``afa.search_witness``) nest inside.
Self time per span comes from :mod:`repro.obs.critical_path`, less the
measured cost of each traced child span (see ``Tracer._span_cost``); work
counters from the spans' ``STATS`` deltas (the same numbers
``Answer.provenance`` carries across the process boundary); cache, dedup
and queue numbers from :mod:`repro.metrics`.

Every request runs under a ``request`` root span, so each layer's self
time is a share of request wall time and the request span's own self
time is what no layer accounts for (``layers.unattributed_share``).
While the parent waits on pool workers it runs no span; that wait is
added as a ``pool.wait`` child of ``scheduler.drain``, computed from the
submit-to-completion interval of every pool future.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import io
import json
import pickle
import statistics
import time
from collections import defaultdict
from typing import Any, Callable

from repro import metrics, obs
from repro.analysis import nonemptiness
from repro.automata import afa
from repro.delta import engine, session
from repro.obs.critical_path import build_tree
from repro.serve import cache, pool, scheduler

#: Span name -> layer.  ``request`` is the root and belongs to no layer.
LAYER_OF = {
    "fingerprint": "fingerprint",
    "cache.get": "cache",
    "cache.put": "cache",
    "scheduler.submit": "scheduler",
    "scheduler.drain": "scheduler",
    "pool.wait": "pool",
    "pool.merge": "pool",
    "pool.job": "pool",
    "translate": "translate",
    "afa.compile": "compile",
    "afa.codegen": "compile",
    "afa.patch": "compile",
    "afa.search_witness": "search",
    "search.generic": "search",
    "nonempty_pl": "analysis",
    "delta.edit": "delta",
    "delta.recheck": "delta",
}

#: (owner, attribute, span name): plain timing wrappers.
_WRAPS: list[tuple[Any, str, str]] = [
    (scheduler, "job_fingerprint", "fingerprint"),
    (scheduler.SolverService, "submit", "scheduler.submit"),
    (scheduler.SolverService, "drain", "scheduler.drain"),
    (cache.AnswerCache, "get", "cache.get"),
    (cache.AnswerCache, "put", "cache.put"),
    (pool.WorkerPool, "merge_traces", "pool.merge"),
    (pool.WorkerPool, "merge_metrics", "pool.merge"),
    (pool.WorkerPool, "merge_profiles", "pool.merge"),
    (nonemptiness, "to_afa", "translate"),
    (engine, "to_afa", "translate"),
    (engine, "to_afa_incremental", "translate"),
    (afa, "_compile_searchers", "afa.codegen"),
    (engine, "patch_engine", "afa.patch"),
    (engine, "generic_search", "search.generic"),
    (session.Session, "edit", "delta.edit"),
]

_RECHECK_MODES = ("replay", "warm", "full", "cached")


def _wrap(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    original = getattr(owner, attr, None)
    if original is None:
        return  # entry point gone: its metrics read 0 instead of failing the run
    # wraps() keeps __module__/__qualname__, so a wrapped module-level
    # function still pickles by reference into pool workers.
    setattr(owner, attr, functools.wraps(original)(make(original)))


def _timed(name: str) -> Callable[[Callable], Callable]:
    def make(original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with obs.span(name):
                return original(*args, **kwargs)

        return wrapper

    return make


def _union(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    merged: list[tuple[float, float]] = []
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged


def _covered(a: list[tuple[float, float]], b: list[tuple[float, float]]) -> float:
    """Length of the intersection of two merged interval lists."""
    return sum(
        max(0.0, min(hi, bhi) - max(lo, blo)) for lo, hi in a for blo, bhi in b
    )


def _without_provenance(result: Any) -> Any:
    # Provenance carries timings; dropping it keeps payload sizes exact.
    if dataclasses.is_dataclass(result) and hasattr(result, "provenance"):
        return dataclasses.replace(result, provenance=None)
    return result


class Tracer:
    """Installs the layer wrappers and turns the trace into layer metrics."""

    def __init__(self) -> None:
        self.sink = io.StringIO()
        self.pool_jobs: list[dict[str, Any]] = []
        self.rechecks: list[tuple[str, int]] = []

    def install(self) -> None:
        obs.configure(stream=self.sink)
        for owner, attr, name in _WRAPS:
            _wrap(owner, attr, _timed(name))
        _wrap(pool, "_run_job", self._run_job)
        _wrap(pool.WorkerPool, "submit", self._submit)
        _wrap(session.Session, "recheck", self._recheck)

    def start(self) -> None:
        """Measure what a span costs, then drop everything recorded so far."""
        self.span_cost = self._span_cost()
        self.sink.seek(0)
        self.sink.truncate()
        self.pool_jobs.clear()
        self.rechecks.clear()
        metrics.configure(enabled=True)

    def stop(self) -> None:
        obs.configure(enabled=False)
        self.metrics = metrics.snapshot()
        metrics.configure(enabled=False)

    def request(self) -> Any:
        return obs.span("request")

    @staticmethod
    def _span_cost() -> float:
        """Seconds one child span adds to its parent's self time.

        Entering and leaving a span (counter snapshots, the JSON event)
        happens outside the span's own interval, so it shows up as self
        time of the enclosing span; at ~40 us a span that would swamp the
        sub-millisecond layers of a cache hit.  Median of five batches.
        """
        batches = []
        for _ in range(5):
            gap = 0.0
            for _ in range(200):
                with obs.span("calibrate") as parent:
                    with obs.span("calibrate") as child:
                        pass
                gap += parent.elapsed_s - child.elapsed_s
            batches.append(gap / 200)
        return statistics.median(batches)

    # -- wrappers that record more than a span ---------------------------------

    def _run_job(self, original: Callable) -> Callable:
        signature = inspect.signature(original)

        def wrapper(*args: Any, **kwargs: Any) -> Any:  # runs in the worker
            key = signature.bind(*args, **kwargs).arguments.get("job_key")
            with obs.span("pool.job", job_key=key):
                return original(*args, **kwargs)

        return wrapper

    def _submit(self, original: Callable) -> Callable:
        signature = inspect.signature(original)

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            call = signature.bind(*args, **kwargs).arguments
            job = {
                "key": call.get("job_key"),
                "payload": (call["name"], call["args"], dict(call["kwargs"])),
                "t_submit": time.time(),
            }
            future = original(*args, **kwargs)
            future.add_done_callback(functools.partial(self._done, job))
            self.pool_jobs.append(job)
            return future

        return wrapper

    @staticmethod
    def _done(job: dict[str, Any], future: Any) -> None:
        job["t_done"] = time.time()
        if not future.cancelled() and future.exception() is None:
            job["result"] = future.result()

    def _recheck(self, original: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with obs.span("delta.recheck"):
                result = original(*args, **kwargs)
            self.rechecks.append((result.mode, result.pops))
            return result

        return wrapper

    # -- attribution -------------------------------------------------------------

    def _pool_waits(self, local: list[dict]) -> list[dict]:
        """Synthetic ``pool.wait`` children of each ``scheduler.drain``.

        The wait is the time some pool future was outstanding and the
        parent ran no other span inside the drain.
        """
        jobs = [(j["t_submit"], j["t_done"]) for j in self.pool_jobs if "t_done" in j]
        if not jobs:
            return []
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for event in local:
            if event.get("parent_id") is not None:
                start = event["t_wall"]
                children[event["parent_id"]].append((start, start + event["elapsed_s"]))
        next_id = max(event["span_id"] for event in local) + 1
        waits = []
        for drain in local:
            if drain["name"] != "scheduler.drain":
                continue
            lo = drain["t_wall"]
            hi = lo + drain["elapsed_s"]
            busy = _union([(max(lo, a), min(hi, b)) for a, b in jobs])
            covered = _union(children[drain["span_id"]])
            wait = sum(b - a for a, b in busy) - _covered(busy, covered)
            if wait > 0:
                waits.append(
                    {
                        "event": "span",
                        "name": "pool.wait",
                        "span_id": next_id,
                        "parent_id": drain["span_id"],
                        "elapsed_s": wait,
                    }
                )
                next_id += 1
        return waits

    def _pool_metrics(self, remote: list[dict], busy_s: float, workers: int) -> dict:
        """IPC per job, payload per job and worker busy share of the pool."""
        runs: dict[str, list[tuple[str, float, float]]] = defaultdict(list)
        by_worker: dict[str, list[tuple[float, float]]] = defaultdict(list)
        for event in remote:
            if event["name"] != "pool.job":
                continue
            attrs = event["attrs"]
            start = event["t_wall"]
            end = start + event["elapsed_s"]
            runs[attrs["job_key"]].append((attrs["worker_pid"], start, end))
            by_worker[attrs["worker_pid"]].append((start, end))
        previous_end: dict[tuple[str, float], float] = {}
        for worker, spans in by_worker.items():
            last = 0.0
            for start, end in sorted(spans):
                previous_end[(worker, start)] = last
                last = end
        ipc: list[float] = []
        payload: list[int] = []
        for job in self.pool_jobs:
            if "result" not in job or not runs.get(job["key"]):
                continue
            worker, start, end = runs[job["key"]].pop(0)
            # Time queued behind another job on the same worker is not IPC.
            ready = max(job["t_submit"], previous_end[(worker, start)])
            ipc.append(max(0.0, start - ready) + max(0.0, job["t_done"] - end))
            payload.append(
                len(pickle.dumps(job["payload"], pickle.HIGHEST_PROTOCOL))
                + len(
                    pickle.dumps(
                        _without_provenance(job["result"]), pickle.HIGHEST_PROTOCOL
                    )
                )
            )
        worker_busy = sum(e - s for spans in by_worker.values() for s, e in spans)
        return {
            "pool.ipc_ms_per_job": 1e3 * sum(ipc) / len(ipc) if ipc else 0.0,
            "pool.payload_kb_per_job": sum(payload) / len(payload) / 1024 if payload else 0.0,
            "pool.worker_busy_ratio": worker_busy / (workers * busy_s) if workers else 0.0,
        }

    def report(self, run: dict, workers: int) -> dict[str, dict[str, float]]:
        """Every per-layer metric except ``trace.overhead_ratio``, plus the
        share of request wall time each layer takes in the client process.
        """
        events = [json.loads(line) for line in self.sink.getvalue().splitlines() if line]
        spans = [e for e in events if e.get("event") == "span"]
        local = [e for e in spans if "worker_pid" not in (e.get("attrs") or {})]
        remote = [e for e in spans if "worker_pid" in (e.get("attrs") or {})]
        local += self._pool_waits(local)
        self_s: dict[str, float] = defaultdict(float)
        in_requests: dict[str, float] = defaultdict(float)
        for root in build_tree(local + remote):
            client_request = root.name == "request" and "worker_pid" not in root.attrs
            stack = [root]
            while stack:
                node = stack.pop()
                stack.extend(node.children)
                traced = sum(child.name != "pool.wait" for child in node.children)
                own = max(0.0, node.self_s - self.span_cost * traced)
                self_s[node.name] += own
                if client_request:
                    in_requests[node.name] += own
        wall = sum(in_requests.values())
        shares: dict[str, float] = defaultdict(float)
        for name, seconds in in_requests.items():
            shares[LAYER_OF.get(name, "unattributed")] += seconds / wall
        elapsed: dict[str, list[float]] = defaultdict(list)
        for event in spans:
            elapsed[event["name"]].append(event["elapsed_s"])
        jobs = run["jobs"]

        def ms_per_job(*names: str) -> float:
            return 1e3 * sum(self_s.get(name, 0.0) for name in names) / jobs

        def ms_per_call(name: str) -> float:
            calls = elapsed.get(name, [])
            return 1e3 * sum(calls) / len(calls) if calls else 0.0

        # Work counters: the roots of every process's span trees.
        work: dict[str, int] = defaultdict(int)
        for event in spans:
            if event["name"] in ("request", "pool.job"):
                for counter, value in (event.get("counters") or {}).items():
                    work[counter] += value
        work["vectors_explored"] += sum(pops for _, pops in self.rechecks)

        counters = self.metrics["counters"]
        hits = metrics.counter_total(counters, "serve.cache.hits")
        misses = metrics.counter_total(counters, "serve.cache.misses")
        queue_wait = self.metrics["histograms"].get(
            metrics.encode_key("serve.job.queue_wait_s", {"procedure": "nonempty_pl"})
        )
        requests = elapsed.get("request", [])
        modes = [mode for mode, _ in self.rechecks]
        out = {
            "fingerprint.ms_per_job": ms_per_job("fingerprint"),
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cache.get_ms_per_lookup": ms_per_call("cache.get"),
            "cache.put_ms_per_write": ms_per_call("cache.put"),
            "store.disk_hits": counters.get(
                metrics.encode_key("serve.cache.hits", {"tier": "disk"}), 0
            ),
            "dedup.ratio": metrics.counter_total(counters, "serve.jobs.deduped") / jobs,
            "scheduler.queue_wait_ms_p50": 1e3
            * (metrics.histogram_readout(queue_wait)["p50"] if queue_wait else 0.0),
            "scheduler.retried": metrics.counter_total(counters, "serve.retry.scheduled"),
            "scheduler.worker_lost": metrics.counter_total(counters, "serve.worker.lost"),
            "translate.ms_per_job": ms_per_job("translate"),
            "compile.ms_per_job": ms_per_job("afa.compile", "afa.codegen", "afa.patch"),
            "search.ms_per_job": ms_per_job("afa.search_witness", "search.generic"),
            "search.vectors_per_job": work["vectors_explored"] / jobs,
            "search.pre_steps_per_job": work["pre_steps"] / jobs,
            "afa.symbol_classes_per_job": work["symbol_classes"] / jobs,
            "analysis.other_ms_per_job": ms_per_job("nonempty_pl"),
            "delta.edit_ms": ms_per_call("delta.edit"),
            "delta.recheck_ms": 1e3 * self_s.get("delta.recheck", 0.0) / len(modes)
            if modes
            else 0.0,
            "layers.unattributed_share": shares["unattributed"],
        }
        for mode in _RECHECK_MODES:
            out[f"delta.share.{mode}"] = modes.count(mode) / len(modes) if modes else 0.0
        out.update(self._pool_metrics(remote, sum(requests), workers))
        return {"metrics": out, "shares": dict(shares)}
