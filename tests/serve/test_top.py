"""The `serve top` dashboard: its snapshot reader, pure rendering, CLI."""

import io
import json

from repro.metrics import Registry, last_snapshot
from repro.serve.top import render, run_top


def _snapshot(executed=4, hits=2, misses=2, seq=1, t_wall=1000.0):
    r = Registry()
    r.counter("serve.jobs.completed", outcome="executed").inc(executed)
    r.counter("serve.jobs.executed").inc(executed)
    r.counter("serve.jobs.deduped").inc(1)
    r.counter("serve.cache.hits", tier="memory").inc(hits)
    r.counter("serve.cache.misses").inc(misses)
    r.counter("guard.trips", limit="deadline").inc(1)
    r.gauge("serve.queue.depth").set(2)
    r.gauge("serve.inflight").set(1)
    r.gauge("serve.pool.workers").set(2)
    r.gauge("serve.worker.busy", worker="71").set(1)
    for value in (0.001, 0.004, 0.02):
        r.histogram("serve.job.latency_s", procedure="nonempty_pl").observe(value)
    snap = r.snapshot()
    snap["seq"] = seq
    snap["t_wall"] = t_wall
    return snap


class TestTailSnapshot:
    def test_returns_last_metrics_line(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with open(path, "w") as handle:
            for seq in (1, 2, 3):
                handle.write(json.dumps(_snapshot(seq=seq)) + "\n")
        snap = last_snapshot(str(path))
        assert snap["seq"] == 3

    def test_skips_trailing_garbage(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        with open(path, "w") as handle:
            handle.write(json.dumps(_snapshot(seq=7)) + "\n")
            handle.write('{"truncated mid-wri')  # crash mid-append
        assert last_snapshot(str(path))["seq"] == 7

    def test_missing_file_is_none(self, tmp_path):
        assert last_snapshot(str(tmp_path / "absent.jsonl")) is None

    def test_widens_the_window_until_a_snapshot_fits(self, tmp_path, monkeypatch):
        from repro.metrics import _core

        monkeypatch.setattr(_core, "TAIL_BYTES", 64)  # shorter than one line
        path = tmp_path / "metrics.jsonl"
        with open(path, "w") as handle:
            for seq in (1, 2):
                handle.write(json.dumps(_snapshot(seq=seq)) + "\n")
            handle.write(json.dumps({"event": "span", "name": "x"}) + "\n")
        assert last_snapshot(str(path))["seq"] == 2


class TestRender:
    def test_frame_sections(self):
        frame = render(_snapshot())
        assert "jobs" in frame and "executed 4" in frame
        assert "queue 2" in frame and "in-flight 1" in frame
        assert "workers busy 1/2" in frame and "utilization 50%" in frame
        assert "hit rate 50.0%" in frame
        assert "guard trips deadline=1" in frame
        assert "nonempty_pl" in frame  # latency table row
        assert "p99" in frame

    def test_throughput_rate_needs_previous_frame(self):
        prev = _snapshot(executed=4, t_wall=1000.0)
        snap = _snapshot(executed=10, t_wall=1002.0)
        assert "throughput -" in render(snap)
        assert "throughput 3.0/s" in render(snap, prev)

    def test_no_latency_samples(self):
        r = Registry()
        r.counter("serve.jobs.executed").inc()
        frame = render(r.snapshot())
        assert "no job latency samples yet" in frame


class TestRunTop:
    def test_once_renders_single_frame(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(_snapshot()) + "\n")
        out = io.StringIO()
        assert run_top(str(path), once=True, out=out) == 0
        assert "repro.serve top" in out.getvalue()

    def test_once_without_snapshot_fails(self, tmp_path):
        out = io.StringIO()
        code = run_top(str(tmp_path / "absent.jsonl"), once=True, out=out)
        assert code == 1

    def test_cli_once(self, tmp_path, capsys):
        from repro.serve.__main__ import main

        path = tmp_path / "metrics.jsonl"
        path.write_text(json.dumps(_snapshot()) + "\n")
        assert main(["top", str(path), "--once"]) == 0
        assert "repro.serve top" in capsys.readouterr().out

    def test_cli_requires_a_path(self, capsys, monkeypatch):
        from repro.obs import TRACE_ENV_VAR
        from repro.serve.__main__ import main

        monkeypatch.delenv(TRACE_ENV_VAR, raising=False)
        assert main(["top"]) == 2

class TestProgressAndHeartbeat:
    def test_heartbeat_line_lists_running_jobs(self):
        snap = _snapshot()
        r = Registry()
        r.gauge("serve.job.heartbeat_s", procedure="nonempty_pl").set(3.5)
        snap["gauges"].update(r.snapshot()["gauges"])
        frame = render(snap)
        assert "running" in frame
        assert "nonempty_pl 3.5s" in frame

    def test_progress_table_groups_site_and_worker(self):
        snap = _snapshot()
        r = Registry()
        r.gauge("progress.steps", site="afa.search_witness", worker="71").set(
            120000
        )
        r.gauge(
            "progress.frontier", site="afa.search_witness", worker="71"
        ).set(1873)
        r.gauge(
            "progress.steps_per_s", site="afa.search_witness", worker="71"
        ).set(815000.0)
        r.gauge("progress.steps", site="sat.solve_cnf").set(64)
        snap["gauges"].update(r.snapshot()["gauges"])
        frame = render(snap)
        assert "search site" in frame and "steps/s" in frame
        afa_row = next(
            line for line in frame.splitlines() if "afa.search_witness" in line
        )
        assert "71" in afa_row
        assert "120000" in afa_row
        assert "1873" in afa_row
        assert "815000" in afa_row
        sat_row = next(
            line for line in frame.splitlines() if "sat.solve_cnf" in line
        )
        assert "64" in sat_row
        # No worker label: in-process site rows show "-".
        assert " - " in sat_row or sat_row.split()[1] == "-"

    def test_no_progress_gauges_no_table(self):
        assert "search site" not in render(_snapshot())


class TestResilienceLine:
    def _snapshot_with_faults(self):
        r = Registry()
        r.counter("serve.jobs.executed").inc(4)
        r.counter("serve.retry.scheduled").inc(3)
        r.counter("serve.retry.exhausted").inc(1)
        r.counter("serve.rejected", reason="depth").inc(2)
        r.counter("serve.worker.lost", procedure="nonempty_pl").inc(5)
        r.counter("serve.pool.respawns").inc(2)
        r.counter("serve.dlq.added").inc(1)
        r.gauge("serve.dlq.depth").set(1)
        snap = r.snapshot()
        snap["seq"], snap["t_wall"] = 1, 1000.0
        return snap

    def test_rendered_when_faults_present(self):
        frame = render(self._snapshot_with_faults())
        assert "resilience  retried 3  exhausted 1  rejected 2" in frame
        assert "worker-lost 5 (respawns 2)" in frame
        assert "dlq 1 (+1)" in frame

    def test_omitted_on_a_quiet_service(self):
        frame = render(_snapshot())
        assert "resilience" not in frame
