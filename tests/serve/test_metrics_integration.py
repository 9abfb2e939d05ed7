"""End-to-end metrics through the scheduler and the worker pool.

The 4-worker test is the cross-process acceptance check: worker-side
latency samples must appear in the parent's histograms with the right
counts, and re-merging the spools (which happens once per batch *and*
again at shutdown) must not double-count anything.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro import metrics, obs
from repro.serve import JobSpec, SolverService
from repro.serve import pool as pool_mod
from repro.workloads.scaling import pl_counter_sws

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _batch():
    # 8 jobs over 4 distinct instances, as in the pool smoke test.
    return [
        JobSpec("nonempty_pl", (pl_counter_sws(n),), label=f"counter-{n}-{i}")
        for i in (0, 1)
        for n in (6, 7, 8, 9)
    ]


def _histogram(name: str, **labels):
    return metrics.REGISTRY.histogram(name, **labels)


def test_four_worker_pool_merges_worker_samples_without_double_count():
    metrics.configure(enabled=True)
    with SolverService(workers=4) as service:
        service.run_batch(_batch())
        pool = service._pool
        assert pool is not None
        # run_batch already merged the spools; merging again must add
        # nothing (delta-wise merge per source).
        latency = _histogram("serve.job.latency_s", procedure="nonempty_pl")
        count_after_batch = latency.count
        pool.merge_traces()
        pool.merge_traces()
        assert latency.count == count_after_batch
    # 4 distinct fingerprints executed in workers: exactly 4 worker-side
    # latency samples merged up (dedup absorbs the other 4 jobs).
    assert latency.count == 4
    assert latency.min > 0
    executed = metrics.REGISTRY.counter("serve.jobs.executed")
    assert executed.value == 4
    deduped = metrics.REGISTRY.counter("serve.jobs.deduped")
    assert deduped.value == 4
    # Queue-wait histograms are parent-side: one sample per dispatch.
    queue_wait = _histogram("serve.job.queue_wait_s", procedure="nonempty_pl")
    assert queue_wait.count == 4
    # Worker counters merge under their own key; gauges come back
    # re-labeled per worker pid.
    instruments = metrics.REGISTRY.instruments()
    assert instruments["serve.worker.jobs"].value == 4
    busy_gauges = [
        key for key in instruments if key.startswith("serve.worker.busy{worker=")
    ]
    assert busy_gauges, "worker gauges did not merge into the parent"


def test_a_merge_with_no_sink_parses_only_the_newest_snapshot(monkeypatch):
    """Metrics on and no trace sink: the workers still spool their spans,
    but the parent parses only each spool's newest snapshot, merges the
    counts a parse of every line would, and re-emits nothing."""
    reemitted, merges = [], []
    monkeypatch.setattr(obs, "reemit", lambda *args, **kwargs: reemitted.append(args))
    newest = pool_mod._newest_snapshot

    def record(lines):
        snapshot = newest(lines)
        events = [json.loads(line) for line in lines]
        full = [event for event in events if event.get("event") == "metrics"]
        merges.append((events, snapshot, full[-1] if full else None))
        return snapshot

    monkeypatch.setattr(pool_mod, "_newest_snapshot", record)
    metrics.configure(enabled=True)
    with SolverService(workers=2) as service:
        assert all(answer.is_yes for answer in service.run_batch(_batch()))
    assert reemitted == []
    assert any(event["event"] != "metrics" for events, _, _ in merges for event in events)
    assert all(snapshot == full for _, snapshot, full in merges)
    latency = _histogram("serve.job.latency_s", procedure="nonempty_pl")
    assert latency.count == 4 and latency.min > 0
    instruments = metrics.REGISTRY.instruments()
    assert instruments["serve.jobs.executed"].value == 4
    assert instruments["serve.worker.jobs"].value == 4


def test_inline_service_records_latency_and_cache_counters():
    metrics.configure(enabled=True)
    service = SolverService(workers=0)
    service.run_batch(_batch())
    latency = _histogram("serve.job.latency_s", procedure="nonempty_pl")
    assert latency.count == 4
    service.run_batch(_batch())  # warm: everything from the answer cache
    instruments = metrics.REGISTRY.instruments()
    counters = {
        key: instrument.value
        for key, instrument in instruments.items()
        if instrument.kind == "counter"
    }
    assert counters["serve.cache.hits{tier=memory}"] == 8
    assert counters["serve.jobs.completed{outcome=cached}"] == 8
    assert latency.count == 4  # cached answers don't re-observe latency
    assert metrics.cache_hit_rate(counters) is not None


def test_inline_and_pooled_rounds_record_the_same_job_metrics():
    """One round loop serves both modes: the same verdicts and
    executions, and one latency and one turnaround sample per executed
    job whether the job ran in-process or in a worker."""
    verdicts = {}
    for workers in (0, 2):
        metrics.REGISTRY.reset()
        metrics.configure(enabled=True)
        with SolverService(workers=workers) as service:
            verdicts[workers] = [a.verdict.value for a in service.run_batch(_batch())]
            assert service.jobs_executed == 4
        for name in ("serve.job.latency_s", "serve.job.turnaround_s"):
            samples = _histogram(name, procedure="nonempty_pl").count
            assert samples == 4, (workers, name, samples)
    assert verdicts[0] == verdicts[2] == ["yes"] * 8


def test_disabled_metrics_record_nothing_through_the_service():
    assert not metrics.is_enabled()
    service = SolverService(workers=0)
    service.run_batch(_batch()[:2])
    assert metrics.REGISTRY.instruments() == {}


def test_repro_trace_alone_streams_spans_and_merged_metrics(tmp_path):
    """``REPRO_TRACE=f`` is the whole switch: a pooled batch leaves spans
    and metrics snapshots in ``f``, and the snapshot written at exit
    carries every job's worker-side latency sample."""
    trace = tmp_path / "trace.jsonl"
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = _SRC
    env["REPRO_TRACE"] = str(trace)
    script = (
        "from repro.serve import JobSpec, SolverService\n"
        "from repro.workloads.scaling import pl_counter_sws\n"
        "with SolverService(workers=2) as service:\n"
        "    answers = service.run_batch(\n"
        "        [JobSpec('nonempty_pl', (pl_counter_sws(n),)) for n in (5, 6, 7)]\n"
        "    )\n"
        "assert all(a.is_yes for a in answers)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    assert {"span", "metrics"} <= {event["event"] for event in events}
    assert any((e.get("attrs") or {}).get("worker_pid") for e in events)
    assert events[-1]["event"] == "metrics"  # the exit snapshot
    latency = metrics.last_snapshot(str(trace))["histograms"][
        "serve.job.latency_s{procedure=nonempty_pl}"
    ]
    assert latency["count"] == 3
