"""Worker-pool execution: results, budgets, and trace merging.

``test_two_worker_batch_with_cache_hits`` is the serve smoke test CI
runs: a 2-worker batch of 8 jobs, then the identical batch again,
asserting every resubmitted job is a cache hit.
"""

from __future__ import annotations

import json
import os
import time

from repro import metrics, obs
from repro.guard import Budget
from repro.serve import JobSpec, SolverService
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


def test_close_removes_both_spool_directories(tmp_path):
    obs.configure(path=str(tmp_path / "trace.jsonl"), mode="w")
    metrics.configure(enabled=True)
    with SolverService(workers=2) as service:
        service.run_batch(
            [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (6, 7)]
        )
        spools = [service._pool._trace_dir, service._pool._metrics_dir]
        assert all(spool and os.listdir(spool) for spool in spools)
    assert not any(os.path.exists(spool) for spool in spools)


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
