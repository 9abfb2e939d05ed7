"""Worker-pool execution: results, budgets, and trace merging.

``test_two_worker_batch_with_cache_hits`` is the serve smoke test CI
runs: a 2-worker batch of 8 jobs, then the identical batch again,
asserting every resubmitted job is a cache hit.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro import metrics, obs
from repro.guard import Budget
from repro.serve import JobSpec, SolverService
from repro.serve.pool import WorkerPool
from repro.workloads.scaling import pl_counter_sws


def _batch():
    # 8 jobs over 4 distinct instances: dedup halves the work even cold.
    return [
        JobSpec("nonempty_pl", (pl_counter_sws(n),), label=f"counter-{n}-{i}")
        for i in (0, 1)
        for n in (6, 7, 8, 9)
    ]


def test_two_worker_batch_with_cache_hits():
    with SolverService(workers=2) as service:
        cold = service.run_batch(_batch())
        assert [a.verdict.value for a in cold] == ["yes"] * 8
        assert service.jobs_executed == 4  # dedup: 4 distinct fingerprints
        assert service.jobs_deduped == 4

        t0 = time.perf_counter()
        warm = service.run_batch(_batch())
        warm_s = time.perf_counter() - t0
        assert [a.verdict.value for a in warm] == ["yes"] * 8
        # Every resubmitted job is answered from the cache...
        assert service.cache.stats.hits >= 8
        assert service.jobs_executed == 4  # ...so nothing new executed
        assert warm_s < 1.0


def test_pool_applies_budget():
    with SolverService(workers=2) as service:
        handle = service.submit(
            "nonempty_pl", pl_counter_sws(14), budget=Budget(step_budget=3)
        )
        answer = handle.result()
        assert answer.is_unknown
        # And the trip was not cached: the cache only holds decisions.
        assert service.cache.stats.stores == 0


def test_worker_spans_merge_into_parent_trace(tmp_path):
    trace = tmp_path / "trace.jsonl"
    obs.configure(path=str(trace), mode="w")
    try:
        with SolverService(workers=2) as service:
            service.run_batch(
                [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (6, 7)]
            )
    finally:
        obs.configure(enabled=False)
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    worker_events = [
        e for e in events if (e.get("attrs") or {}).get("worker_pid")
    ]
    assert worker_events, "no worker spans were re-emitted into the parent sink"
    names = {e["name"] for e in worker_events}
    assert any("nonempty" in name for name in names)


def test_close_removes_the_spool_directory(tmp_path):
    obs.configure(path=str(tmp_path / "trace.jsonl"), mode="w")
    metrics.configure(enabled=True)
    with SolverService(workers=2) as service:
        service.run_batch(
            [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (6, 7)]
        )
        spool = service._pool._spool_dir
        kinds = set()
        for name in os.listdir(spool):
            with open(os.path.join(spool, name), encoding="utf-8") as handle:
                kinds.update(json.loads(line)["event"] for line in handle)
        # Spans and metrics snapshots share each worker's one spool.
        assert {"span", "metrics"} <= kinds
    assert not os.path.exists(spool)


def test_workers_forked_after_the_sink_was_set_never_write_to_it(tmp_path):
    """Regression: a pool made with telemetry off has no spool.  Its
    workers fork after the parent set a sink and turned metrics on, so
    they inherit both, and must detach without writing a line."""
    pool = WorkerPool(2)
    trace = tmp_path / "trace.jsonl"
    try:
        obs.configure(path=str(trace), mode="w")
        metrics.configure(enabled=True)
        futures = [
            pool.submit("nonempty_pl", (pl_counter_sws(n),), {}, None)
            for n in (5, 6)
        ]
        assert all(future.result().is_yes for future in futures)
    finally:
        pool.shutdown()
        obs.configure(enabled=False)
    for event in obs.iter_events(str(trace)):
        assert (event["event"], event["pid"]) == ("metrics", os.getpid()), event


def test_merge_waits_for_a_half_written_line():
    """Regression: a merge that finds a line still being written leaves
    it for the next merge instead of skipping past it."""
    sink = io.StringIO()
    obs.configure(stream=sink)
    pool = WorkerPool(1)
    try:
        line = json.dumps({"event": "span", "name": "late", "span_id": 1})
        path = os.path.join(pool._spool_dir, "worker-4242.jsonl")
        with open(path, "a", encoding="utf-8") as spool:
            spool.write(line[:20])
            spool.flush()
            pool.merge_traces()
            spool.write(line[20:] + "\n")
            spool.flush()
            pool.merge_traces()
    finally:
        pool.shutdown()
        obs.configure(enabled=False)
    merged = [json.loads(event) for event in sink.getvalue().splitlines()]
    assert [(e["name"], e["attrs"]["worker_pid"]) for e in merged] == [("late", "4242")]


def test_pool_results_match_inline():
    specs = [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (5, 6)]
    with SolverService(workers=2) as pooled:
        pooled_results = pooled.run_batch(specs)
    inline = SolverService(workers=0)
    inline_results = inline.run_batch(
        [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (5, 6)]
    )
    assert [a.verdict for a in pooled_results] == [a.verdict for a in inline_results]


def test_respawn_keeps_serving():
    """An explicit respawn (what worker-loss recovery does) is invisible
    to later batches: new executor, counters advanced, answers correct."""
    with SolverService(workers=2) as service:
        assert service.run_batch(
            [JobSpec("nonempty_pl", (pl_counter_sws(6),))]
        )[0].is_yes
        pool = service._pool
        executor_before = pool._executor
        pool.respawn()
        assert pool.respawns == 1
        assert pool._executor is not executor_before
        answer = service.run_batch(
            [JobSpec("nonempty_pl", (pl_counter_sws(7),))]
        )[0]
        assert answer.is_yes
        assert service.stats()["resilience"]["pool_respawns"] == 1


_ORPHAN_PARENT = """
import multiprocessing, threading, time
from repro.serve import SolverService
from repro.workloads.scaling import pl_counter_sws

service = SolverService(workers=2)
service.submit("nonempty_pl", pl_counter_sws(18))
threading.Thread(target=service.drain, daemon=True).start()
while len(multiprocessing.active_children()) < 2:
    time.sleep(0.01)
print(*(child.pid for child in multiprocessing.active_children()), flush=True)
time.sleep(600)
"""


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (a zombie awaiting reaping is not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads process state from /proc")
def test_workers_exit_when_the_parent_is_killed():
    """A parent killed by SIGKILL cannot shut its pool down; its workers
    must still go, not linger reparented to init."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    parent = subprocess.Popen(
        [sys.executable, "-c", _ORPHAN_PARENT],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    pids: list[int] = []
    try:
        pids = [int(pid) for pid in parent.stdout.readline().split()]
        assert len(pids) == 2
        parent.kill()
        parent.wait()
        deadline = time.monotonic() + 5.0
        while any(map(_running, pids)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in pids if _running(pid)]
    finally:
        parent.kill()
        parent.wait()
        parent.stdout.close()
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
