"""Snapshot export, spool files, and cross-process merge semantics."""

import json

import pytest

from repro import metrics, obs
from repro.metrics import Registry


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
    def test_write_snapshot_appends_jsonl(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        metrics.configure(path=str(path), mode="w", interval_s=3600)
        metrics.counter("c").inc()
        metrics.write_snapshot()
        metrics.counter("c").inc()
        metrics.write_snapshot()
        snaps = _snapshots(path)
        assert len(snaps) == 2
        assert snaps[0]["counters"]["c"] == 1
        assert snaps[1]["counters"]["c"] == 2
        assert metrics.last_snapshot(str(path))["counters"]["c"] == 2

    def test_spool_mode_appends_snapshots(self, tmp_path):
        spool = tmp_path / "worker-123.jsonl"
        metrics.reset_after_fork(open(spool, "a", encoding="utf-8"))
        metrics.counter("c").inc()
        metrics.write_snapshot()
        metrics.counter("c").inc()
        metrics.write_snapshot()
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
    def test_spool_rearm(self, tmp_path):
        metrics.configure(enabled=True)
        metrics.counter("inherited").inc(9)
        spool = tmp_path / "worker-child.jsonl"
        metrics.reset_after_fork(open(spool, "a", encoding="utf-8"))
        assert metrics.is_enabled()
        assert metrics.REGISTRY.instruments() == {}  # parent owns old counts
        metrics.counter("child").inc()
        metrics.write_snapshot()
        snap = json.loads(spool.read_text())
        assert snap["counters"] == {"child": 1}

    def test_disable_when_no_spool(self):
        metrics.configure(enabled=True)
        metrics.reset_after_fork(None)
        assert not metrics.is_enabled()
