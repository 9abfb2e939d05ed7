"""Trace loading and aggregation, the work section of `obs explain`, and
the CLI entry point."""

import json

import pytest

from repro import obs
from repro.obs.explain import explain, render
from repro.obs.report import (
    SpanAggregate,
    aggregate,
    expand_traces,
    load_events,
    main,
)
from repro.workloads.scaling import pl_counter_sws


def _span(name, elapsed, span_id=1, status="ok", counters=None, attrs=None):
    event = {
        "event": "span",
        "v": obs.TRACE_SCHEMA_VERSION,
        "span_id": span_id,
        "parent_id": None,
        "depth": 0,
        "name": name,
        "t_wall": 0.0,
        "elapsed_s": elapsed,
        "status": status,
    }
    if counters:
        event["counters"] = counters
    if attrs:
        event["attrs"] = attrs
    return event


def _work_section(text):
    """The "how much work was done" section of an explain report."""
    return text.split("== how much work was done ==")[1].split("\n== ")[0]


class TestAggregate:
    def test_folds_per_name(self):
        events = [
            _span("a", 1.0, span_id=1, counters={"sat_calls": 2}),
            _span("a", 3.0, span_id=2, counters={"sat_calls": 5}),
            _span("b", 0.5, span_id=3, status="error"),
            {"event": "not-a-span"},
        ]
        aggs = aggregate(events)
        assert set(aggs) == {"a", "b"}
        a = aggs["a"]
        assert a.count == 2
        assert a.errors == 0
        assert a.total_s == pytest.approx(4.0)
        assert a.max_s == pytest.approx(3.0)
        assert a.counters == {"sat_calls": 7}
        assert a.slowest["span_id"] == 2
        assert aggs["b"].errors == 1

    def test_dominant_counters_ranked_by_summed_delta(self):
        agg = SpanAggregate("x")
        agg.add(_span("x", 0.1, counters={"a": 1, "b": 100, "c": 10, "d": 50}))
        assert agg.dominant_counters(limit=2) == [("b", 100), ("d", 50)]


class TestRender:
    def test_table_contains_rows_and_slowest_section(self):
        text = _work_section(
            render(
                [
                    _span("slow_proc", 2.0, span_id=1, attrs={"subject": "c8"}),
                    _span("fast_proc", 0.001, span_id=2),
                ]
            )
        )
        assert "slow_proc" in text and "fast_proc" in text
        assert "slowest spans:" in text
        assert "subject=c8" in text
        # rows run by total time: the slow procedure first
        assert text.index("slow_proc") < text.index("fast_proc")

    def test_sort_and_limit(self):
        events = [
            _span("a", 1.0, span_id=1),
            _span("b", 2.0, span_id=2),
            _span("b", 2.0, span_id=3),
        ]
        full = _work_section(render(events))
        assert full.index("b  ") < full.index("a  ")  # total time, descending
        limited = render(events, limit=1)
        assert "b  " in _work_section(limited)
        assert "a  " not in limited  # --limit caps every section

    def test_empty_trace(self):
        assert "no span" in render([])


class TestReportEndToEnd:
    def test_report_on_a_real_trace(self, tmp_path):
        from repro.analysis import nonempty_pl

        trace = tmp_path / "trace.jsonl"
        obs.configure(path=str(trace), mode="w")
        try:
            nonempty_pl(pl_counter_sws(3))
        finally:
            obs.configure(enabled=False)
        text = _work_section(explain([str(trace)]))
        assert "nonempty_pl" in text
        assert "vectors_explored" in text

    def test_cli_main(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        with open(trace, "w") as handle:
            json.dump(_span("proc", 0.25, counters={"pre_steps": 9}), handle)
            handle.write("\n")
        assert main(["explain", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "proc" in out and "pre_steps=9" in out

    def test_cli_missing_file_exits_nonzero(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", str(tmp_path / "absent.jsonl")])
        assert excinfo.value.code == 1

    def test_cli_malformed_trace_exits_nonzero(self, tmp_path):
        trace = tmp_path / "bad.jsonl"
        trace.write_text("nope\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["explain", str(trace)])
        assert excinfo.value.code == 1


class TestMultiTrace:
    def _write(self, path, events):
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event) + "\n")

    def test_report_merges_several_files(self, tmp_path):
        self._write(tmp_path / "a.jsonl", [_span("proc", 1.0, span_id=1)])
        self._write(tmp_path / "b.jsonl", [_span("proc", 2.0, span_id=1)])
        events = load_events([str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")])
        assert [event["_source"] for event in events] == [0, 1]
        text = _work_section(render(events))
        assert "proc" in text
        assert "    2" in text  # count column folds both files

    def test_report_accepts_a_glob(self, tmp_path):
        self._write(tmp_path / "w-1.jsonl", [_span("proc", 1.0)])
        self._write(tmp_path / "w-2.jsonl", [_span("other", 1.0)])
        text = explain([str(tmp_path / "w-*.jsonl")])
        assert "proc" in text and "other" in text

    def test_unmatched_glob_raises(self, tmp_path):
        with pytest.raises(ValueError, match="no trace files match"):
            expand_traces([str(tmp_path / "nope-*.jsonl")])

    def test_literal_path_passes_through_unmatched(self, tmp_path):
        missing = str(tmp_path / "absent.jsonl")
        assert expand_traces([missing]) == [missing]

    def test_cli_accepts_multiple_traces(self, tmp_path, capsys):
        self._write(tmp_path / "a.jsonl", [_span("proc", 1.0)])
        self._write(tmp_path / "b.jsonl", [_span("proc", 1.0)])
        code = main(
            ["explain", str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")]
        )
        assert code == 0
        assert "proc" in capsys.readouterr().out


class TestLenientParsing:
    """Truncated traces (killed workers) degrade gracefully in the CLI."""

    def test_report_cli_skips_truncated_trailing_line(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as handle:
            handle.write(json.dumps(_span("proc", 0.5)) + "\n")
            handle.write('{"event": "span", "name": "tru')  # mid-write kill
        assert main(["explain", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "proc" in _work_section(captured.out)
        assert "warning" in captured.err

    def test_critical_path_cli_skips_truncated_trailing_line(
        self, tmp_path, capsys
    ):
        trace = tmp_path / "t.jsonl"
        with open(trace, "w") as handle:
            handle.write(json.dumps(_span("proc", 0.5, span_id=7)) + "\n")
            handle.write('{"truncated')
        assert main(["explain", str(trace)]) == 0
        captured = capsys.readouterr()
        assert "dominant chain (root 'proc'" in captured.out
        assert "warning" in captured.err
