"""Snapshot export, spool files, and cross-process merge semantics."""

import json
import os

import pytest

from repro import metrics, obs
from repro.metrics import Registry
from repro.serve import pool


@pytest.fixture
def sink_off():
    """Detach the telemetry sink after the test."""
    yield
    obs.configure(enabled=False)


@pytest.fixture
def worker_init(monkeypatch, sink_off):
    """``pool._worker_init`` run in this process, minus the watch on a
    parent process it does not have."""
    monkeypatch.setattr(pool, "_exit_with_parent", lambda: None)
    return pool._worker_init


def _snapshots(path):
    """Every metrics snapshot line of ``path``, in order."""
    return [e for e in obs.iter_events(str(path)) if e.get("event") == "metrics"]


def _populated_registry() -> Registry:
    r = Registry()
    r.counter("jobs").inc(4)
    r.counter("hits", tier="memory").inc(2)
    r.gauge("queue.depth").set(3)
    r.histogram("latency_s", procedure="pl").observe(0.01)
    r.histogram("latency_s", procedure="pl").observe(0.02)
    return r


class TestSnapshot:
    def test_snapshot_shape(self):
        snap = _populated_registry().snapshot()
        assert snap["event"] == "metrics"
        assert snap["v"] == metrics.METRICS_SCHEMA_VERSION
        assert snap["seq"] == 1
        assert snap["counters"] == {"jobs": 4, "hits{tier=memory}": 2}
        assert snap["gauges"] == {"queue.depth": 3.0}
        hist = snap["histograms"]["latency_s{procedure=pl}"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(0.03)

    def test_seq_increments_per_snapshot(self):
        r = _populated_registry()
        assert [r.snapshot()["seq"] for _ in range(3)] == [1, 2, 3]

    def test_snapshot_is_json_serializable(self):
        snap = _populated_registry().snapshot()
        assert json.loads(json.dumps(snap)) == snap


class TestExportFiles:
    def test_write_snapshot_appends_jsonl(self, tmp_path, sink_off):
        path = tmp_path / "trace.jsonl"
        obs.configure(path=str(path), mode="w")
        metrics.configure(enabled=True)
        metrics.counter("c").inc()
        metrics.write_snapshot()
        metrics.counter("c").inc()
        metrics.write_snapshot()
        snaps = _snapshots(path)
        assert len(snaps) == 2
        assert snaps[0]["counters"]["c"] == 1
        assert snaps[1]["counters"]["c"] == 2
        assert metrics.last_snapshot(str(path))["counters"]["c"] == 2
        # Detaching the sink while recording writes one last snapshot;
        # with no sink, a snapshot is only returned.
        metrics.counter("c").inc()
        obs.configure(enabled=False)
        assert metrics.write_snapshot()["counters"]["c"] == 3
        assert [s["counters"]["c"] for s in _snapshots(path)] == [1, 2, 3]

    def test_spool_mode_appends_snapshots(self, tmp_path, worker_init):
        metrics.configure(enabled=True)
        worker_init(str(tmp_path), True)
        metrics.counter("c").inc()
        metrics.write_snapshot()
        metrics.counter("c").inc()
        metrics.write_snapshot()
        spool = tmp_path / f"worker-{os.getpid()}.jsonl"
        snaps = _snapshots(spool)
        assert [snap["counters"]["c"] for snap in snaps] == [1, 2]  # cumulative

    def test_write_snapshot_none_when_disabled(self):
        assert metrics.write_snapshot() is None

    def test_last_snapshot_passes_over_a_cut_final_line(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(
            '{"event": "metrics", "seq": 1}\n{"event": "metrics", "seq": 2}\n'
            '{"event": "metrics", "se'  # the writer was killed mid-line
        )
        assert metrics.last_snapshot(str(path))["seq"] == 2

    def test_last_snapshot_none_without_a_whole_snapshot(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('not json\n{"event": "metrics", "se')
        assert metrics.last_snapshot(str(path)) is None

    def test_last_snapshot_skips_foreign_events(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"event": "span"}\n\n{"event": "metrics", "seq": 1}\n'
            '{"event": "progress"}\n'
        )
        assert metrics.last_snapshot(str(path))["seq"] == 1


class TestMergeSnapshot:
    def test_counters_merge_delta_wise(self):
        worker = _populated_registry()
        parent = Registry()
        parent.merge_snapshot(worker.snapshot(), source="w1")
        worker.counter("jobs").inc(2)
        parent.merge_snapshot(worker.snapshot(), source="w1")
        assert parent.counter("jobs").value == 6

    def test_remerge_is_idempotent(self):
        worker = _populated_registry()
        snap = worker.snapshot()
        parent = Registry()
        for _ in range(3):
            parent.merge_snapshot(snap, source="w1")
        assert parent.counter("jobs").value == 4
        assert parent.histogram("latency_s", procedure="pl").count == 2

    def test_distinct_sources_accumulate(self):
        parent = Registry()
        parent.merge_snapshot(_populated_registry().snapshot(), source="w1")
        parent.merge_snapshot(_populated_registry().snapshot(), source="w2")
        assert parent.counter("jobs").value == 8

    def test_restarted_source_contributes_fresh_counts(self):
        worker = _populated_registry()
        parent = Registry()
        parent.merge_snapshot(worker.snapshot(), source="w1")
        fresh = Registry()  # same pid re-used, counts restarted from zero
        fresh.counter("jobs").inc(1)
        fresh.histogram("latency_s", procedure="pl").observe(0.04)
        parent.merge_snapshot(fresh.snapshot(), source="w1")
        assert parent.counter("jobs").value == 5
        assert parent.histogram("latency_s", procedure="pl").count == 3

    def test_gauges_get_worker_label(self):
        parent = Registry()
        parent.merge_snapshot(_populated_registry().snapshot(), source="71")
        instruments = parent.instruments()
        assert instruments["queue.depth{worker=71}"].value == 3.0

    def test_histogram_merge_preserves_quantiles(self):
        worker = _populated_registry()
        parent = Registry()
        parent.merge_snapshot(worker.snapshot(), source="w1")
        merged = parent.histogram("latency_s", procedure="pl")
        assert merged.count == 2
        assert 0.01 <= merged.quantile(0.99) <= 0.02


class TestHistogramReadoutFromDump:
    def test_roundtrip_through_dump(self):
        r = Registry()
        h = r.histogram("h")
        for v in (0.001, 0.004, 0.2):
            h.observe(v)
        readout = metrics.histogram_readout(h.dump())
        assert readout["count"] == 3
        assert readout["min"] == 0.001
        assert readout["max"] == 0.2
        assert 0.001 <= readout["p50"] <= 0.2


class TestResetAfterFork:
    """What ``pool._worker_init`` does to the telemetry a fork inherits."""

    def test_spool_rearm(self, tmp_path, worker_init):
        parent = tmp_path / "parent.jsonl"
        obs.configure(path=str(parent), mode="w")
        metrics.configure(enabled=True)
        metrics.counter("inherited").inc(9)
        spool_dir = tmp_path / "spool"
        spool_dir.mkdir()
        worker_init(str(spool_dir), True)
        assert metrics.is_enabled()
        assert metrics.REGISTRY.instruments() == {}  # parent owns old counts
        metrics.counter("child").inc()
        metrics.write_snapshot()
        spool = spool_dir / f"worker-{os.getpid()}.jsonl"
        snap = json.loads(spool.read_text())
        assert snap["counters"] == {"child": 1}
        assert parent.read_text() == ""  # no final snapshot leaked back

    def test_disable_when_no_spool(self, tmp_path, worker_init):
        parent = tmp_path / "parent.jsonl"
        obs.configure(path=str(parent), mode="w")
        metrics.configure(enabled=True)
        metrics.counter("inherited").inc(9)
        worker_init(None, True)
        assert not metrics.is_enabled()
        assert not obs.is_enabled()
        assert metrics.REGISTRY.instruments() == {}
        assert parent.read_text() == ""
