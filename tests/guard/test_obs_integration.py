"""Guard trips inside obs spans: verdict=unknown attrs, not error events."""

import io
import json

import pytest

from repro import obs
from repro.analysis.nonemptiness import nonempty_pl
from repro.guard import Guard, GuardTrip, checkpoint
from repro.guard.inject import injected
from repro.workloads.scaling import pl_counter_sws


@pytest.fixture
def trace():
    buf = io.StringIO()
    obs.configure(stream=buf)
    try:
        yield buf
    finally:
        obs.configure(enabled=False)


def _spans(buf: io.StringIO) -> list[dict]:
    return [
        json.loads(line)
        for line in buf.getvalue().splitlines()
        if json.loads(line).get("event") == "span"
    ]


class TestSpanAttributes:
    def test_boundary_span_records_unknown_and_tripped(self, trace):
        with injected("afa.search_witness", limit="deadline"):
            answer = nonempty_pl(pl_counter_sws(2))
        assert answer.is_unknown
        spans = {s["name"]: s for s in _spans(trace)}
        boundary = spans["nonempty_pl"]
        assert boundary["status"] == "ok"
        assert boundary["attrs"]["verdict"] == "unknown"
        assert boundary["attrs"]["tripped"] == "deadline"

    def test_trip_escaping_a_span_is_not_a_bare_error(self, trace):
        with pytest.raises(GuardTrip):
            with obs.span("inner.search"):
                with Guard(step_budget=0).activate():
                    checkpoint("inner.search")
        (span,) = _spans(trace)
        assert span["status"] == "ok"
        assert span["attrs"]["verdict"] == "unknown"
        assert span["attrs"]["tripped"] == "steps"

    def test_real_errors_still_recorded_as_errors(self, trace):
        with pytest.raises(ValueError):
            with obs.span("inner.broken"):
                raise ValueError("boom")
        (span,) = _spans(trace)
        assert span["status"] == "error"
        assert "tripped" not in span.get("attrs", {})

    def test_untripped_guard_leaves_attrs_alone(self, trace):
        answer = nonempty_pl(pl_counter_sws(2), guard=Guard(step_budget=10**9))
        assert answer.is_yes
        spans = {s["name"]: s for s in _spans(trace)}
        assert spans["nonempty_pl"]["attrs"]["verdict"] == "yes"
        assert "tripped" not in spans["nonempty_pl"]["attrs"]

    def test_report_aggregates_trips(self, trace):
        from repro.obs.explain import render
        from repro.obs.report import aggregate

        with injected("afa.search_witness", limit="memory"):
            nonempty_pl(pl_counter_sws(2))
        events = [json.loads(line) for line in trace.getvalue().splitlines()]
        aggregates = aggregate(events)
        assert aggregates["nonempty_pl"].trips == {"memory": 1}
        trips = render(events).split("== whether and why a budget tripped ==")[1]
        assert "'nonempty_pl' hit the memory limit 1×" in trips
