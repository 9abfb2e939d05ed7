"""The `obs explain` report: its three sections, progress findings, and
lenient parsing."""

import json
import subprocess
import sys

import pytest

from repro import obs
from repro.analysis import nonempty_pl
from repro.guard import Budget
from repro.obs.explain import SECTIONS, SiteCurve, explain
from repro.obs import progress
from repro.workloads.scaling import pl_counter_sws


def _progress_event(site, steps, **extra):
    return {"event": "progress", "v": 1, "site": site, "steps": steps, **extra}


def _span_event(name, span_id, elapsed_s, parent=None, **extra):
    event = {
        "event": "span",
        "name": name,
        "span_id": span_id,
        "elapsed_s": elapsed_s,
        **extra,
    }
    if parent is not None:
        event["parent_id"] = parent
    return event


class TestSiteCurve:
    def test_trends(self):
        curve = SiteCurve("s")
        curve.add(_progress_event("s", 100, frontier=4, steps_per_s=1000.0))
        curve.add(_progress_event("s", 200, frontier=16, steps_per_s=400.0))
        assert curve.steps == 200
        assert curve.frontier_trend() == (4, 16)
        assert curve.rate_trend() == (1000.0, 400.0)
        assert curve.trip("deadline") is None

    def test_trip_and_headroom_from_latest_events(self):
        curve = SiteCurve("s")
        curve.add(_progress_event("s", 10, headroom={"steps": 0.9}))
        curve.add(_progress_event("s", 20, tripped="deadline"))
        curve.add(_progress_event("s", 5, headroom={"deadline": 0.5}))
        curve.add(_progress_event("s", 30, tripped="steps"))
        event, headroom = curve.trip("deadline")
        assert event["steps"] == 20 and headroom == {"steps": 0.9}
        # An older trip keeps its own context when a newer one follows.
        event, headroom = curve.trip("steps")
        assert event["steps"] == 30 and headroom == {"deadline": 0.5}


class TestFindings:
    def test_frontier_growth_flagged(self):
        events = [
            _span_event("root", 1, 1.0),
            _progress_event("bfs", 100, frontier=2),
            _progress_event("bfs", 5000, frontier=64, peak_frontier=80),
        ]
        text = explain_from_events(events)
        assert "frontier growth" in text
        assert "'bfs' grew 2 → 64" in text

    def test_throughput_decay_flagged(self):
        events = [
            _span_event("root", 1, 1.0),
            _progress_event("bfs", 100, steps_per_s=100000.0),
            _progress_event("bfs", 200, steps_per_s=100000.0),
            _progress_event("bfs", 250, steps_per_s=20000.0),
            _progress_event("bfs", 300, steps_per_s=10000.0),
        ]
        text = explain_from_events(events)
        assert "throughput decay" in text

    def test_trip_cross_limit_headroom(self):
        events = [
            _span_event(
                "nonempty_pl", 1, 2.0,
                status="error", attrs={"tripped": "deadline"},
            ),
            _progress_event(
                "bfs", 900,
                tripped="deadline",
                headroom={"steps": 0.95, "deadline": 0.0},
                frontier=12,
            ),
        ]
        text = explain_from_events(events)
        trips = text.split("== whether and why a budget tripped ==")[1]
        assert "'nonempty_pl' hit the deadline limit 1×" in trips
        assert "steps 95% left" in trips
        assert "last progress at 'bfs': 900 steps, frontier 12" in trips

    def test_dominant_phase_and_critical_path(self):
        events = [
            _span_event("root", 1, 1.0),
            _span_event("inner", 2, 0.9, parent=1),
        ]
        text = explain_from_events(events)
        assert "dominant phase: 'inner'" in text
        assert "dominant chain (root 'root'" in text
        assert "└─ inner" in text
        # The chain prints once, in its section, not again as a finding.
        assert "critical path:" not in text


def explain_from_events(events, tmp_path=None, limit=None):
    import tempfile, os

    with tempfile.NamedTemporaryFile(
        "w", suffix=".jsonl", delete=False
    ) as handle:
        for event in events:
            handle.write(json.dumps(event) + "\n")
        path = handle.name
    try:
        return explain([path], limit=limit)
    finally:
        os.unlink(path)


class TestSections:
    def test_three_sections_in_order(self):
        text = explain_from_events([_span_event("root", 1, 1.0)])
        positions = [text.index(f"== {title} ==") for title in SECTIONS]
        assert positions == sorted(positions)
        assert "no budget tripped" in text

    def test_no_limit_prints_every_row_and_limit_caps_each_table(self):
        events = [_span_event(f"proc{i}", i + 1, 0.1 * (i + 1)) for i in range(12)]
        full = explain_from_events(events)
        assert all(f"proc{i} " in full for i in range(12))
        capped = explain_from_events(events, limit=2)
        _, time, work, _ = capped.split("\n== ")
        assert time.count("  n=1") == 2  # self time by span name
        assert work.count("span_id=") == 2  # slowest spans


class TestLenientParsing:
    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            json.dumps(_span_event("root", 1, 1.0))
            + "\n"
            + '{"event": "span", "name": "tru'  # killed mid-write
        )
        skipped = []
        text = explain([str(trace)], on_skip=skipped.append)
        assert "dominant phase" in text
        assert len(skipped) == 1

    def test_real_trace_end_to_end(self, tmp_path, monkeypatch):
        monkeypatch.setattr(progress, "DEFAULT_INTERVAL_S", 1e-9)
        trace = tmp_path / "solve.jsonl"
        obs.configure(path=str(trace), mode="w")
        try:
            nonempty_pl(pl_counter_sws(8), guard=Budget(deadline_s=30))
        finally:
            obs.configure(enabled=False)
        text = explain([str(trace)])
        assert "dominant phase" in text
        assert "progress event(s)" in text


class TestCLI:
    def test_explain_subcommand(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        with trace.open("w") as handle:
            handle.write(json.dumps(_span_event("root", 1, 1.0)) + "\n")
            handle.write("not json\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.obs", "explain", str(trace)],
            capture_output=True,
            text=True,
            env=_src_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "dominant phase" in proc.stdout
        assert "warning" in proc.stderr  # the malformed line was reported

    def test_help_lists_only_explain_and_guard(self, capsys):
        from repro.obs.report import main

        with pytest.raises(SystemExit):
            main(["-h"])
        assert "{explain,guard}" in capsys.readouterr().out


def _src_env():
    import os

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env.pop("REPRO_TRACE", None)
    return env
