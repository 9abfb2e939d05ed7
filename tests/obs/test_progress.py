"""Search-progress telemetry: disabled path, events, trips, site state.

Progress is tracked exactly while the ``repro.obs`` sink is set; tests
that want a faster cadence than the default interval patch
``progress.DEFAULT_INTERVAL_S`` (the ``fast`` fixture).
"""

import io
import json
import time

import pytest

from repro import metrics, obs
from repro.analysis import nonempty_pl, nonempty_pl_nr_sat
from repro.guard import Budget, _governor, checkpoint, checkpoint_callable, inject
from repro.obs import progress
from repro.reductions.sat_to_sws import clauses_from_tuples, cnf_to_sws
from repro.workloads.scaling import pl_counter_sws, random_3cnf


@pytest.fixture(autouse=True)
def _progress_off():
    """Never leak a sink, its tracker or an injected fault into other tests."""
    obs.configure(enabled=False)
    yield
    obs.configure(enabled=False)
    inject.remove()


@pytest.fixture
def fast(monkeypatch):
    """Emit on every checkpoint past the first one of a site."""
    monkeypatch.setattr(progress, "DEFAULT_INTERVAL_S", 1e-9)


def _events(buf: io.StringIO) -> list[dict]:
    return [json.loads(line) for line in buf.getvalue().splitlines() if line]


def _progress_events(buf: io.StringIO) -> list[dict]:
    return [e for e in _events(buf) if e.get("event") == "progress"]


class TestDisabledPath:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()
        assert _governor._PROGRESS is None

    def test_checkpoint_callable_stays_shared_noop(self):
        assert checkpoint_callable("x") is _governor._noop_checkpoint

    def test_enabling_switches_to_live_closure(self):
        obs.configure(stream=io.StringIO())
        assert checkpoint_callable("x") is not _governor._noop_checkpoint
        obs.configure(enabled=False)
        assert checkpoint_callable("x") is _governor._noop_checkpoint

    def test_no_events_while_disabled(self, fast):
        """Checkpoints with no sink are not tracked: the steps taken then
        never reach a later sink's events."""
        assert nonempty_pl(pl_counter_sws(8)).is_yes
        checkpoint("unit.off", n=5, frontier=3)
        assert _governor._PROGRESS is None
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            checkpoint("unit.off", n=1)
            time.sleep(0.001)
            checkpoint("unit.off", n=1)
        finally:
            obs.configure(enabled=False)
        assert [e["steps"] for e in _progress_events(buf)] == [2]


class TestEvents:
    def test_periodic_events_with_monotone_steps(self, monkeypatch):
        monkeypatch.setattr(progress, "DEFAULT_INTERVAL_S", 0.0001)
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            ckpt = checkpoint_callable("unit.search")
            queue = list(range(7))
            seen = set()
            for n in range(1, 2000):
                seen.add(n)
                ckpt(n, queue, seen, 3)
        finally:
            obs.configure(enabled=False)
        events = _progress_events(buf)
        assert events, "expected at least one progress event"
        steps = [e["steps"] for e in events]
        assert steps == sorted(steps)
        last = events[-1]
        assert last["site"] == "unit.search"
        assert last["v"] == progress.PROGRESS_SCHEMA_VERSION
        assert last["frontier"] == 7
        assert last["visited"] <= 1999
        assert last["depth"] == 3
        assert last["steps_per_s"] >= 0

    def test_visited_counts_monotone_on_real_solve(self, fast):
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            answer = nonempty_pl(pl_counter_sws(8))
        finally:
            obs.configure(enabled=False)
        assert answer.verdict.name == "YES"
        visited = [
            e["visited"]
            for e in _progress_events(buf)
            if "visited" in e and e["site"].startswith("afa.")
        ]
        assert len(visited) >= 1
        assert all(a <= b for a, b in zip(visited, visited[1:]))

    def test_headroom_fractions_from_ambient_guard(self, fast):
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            guard = _governor.Guard(budget=Budget(step_budget=10_000))
            with guard.activate():
                for n in range(50):
                    checkpoint("unit.headroom", n=100)
        finally:
            obs.configure(enabled=False)
        events = _progress_events(buf)
        assert events
        fractions = [e["headroom"]["steps"] for e in events if "headroom" in e]
        assert fractions == sorted(fractions, reverse=True)
        assert all(0.0 <= f <= 1.0 for f in fractions)

    def test_gauges_refresh(self, fast):
        metrics.configure(enabled=True)
        obs.configure(stream=io.StringIO())
        try:
            ckpt = checkpoint_callable("unit.gauges")
            # ckpt takes the *cumulative* count.  The first note creates
            # the site state; emission (and the gauge refresh) happens on
            # a later note once the interval has elapsed.
            ckpt(200, list(range(5)))
            time.sleep(0.002)
            ckpt(256, list(range(5)))
            snap = metrics.REGISTRY.snapshot()
            assert snap["gauges"]["progress.steps{site=unit.gauges}"] == 256
            assert snap["gauges"]["progress.frontier{site=unit.gauges}"] == 5
        finally:
            metrics.configure(enabled=False)
            metrics.REGISTRY.reset()


class TestTrips:
    def test_injected_trip_event_matches_answer_trip(self, fast):
        """The final progress event of a tripped solve mirrors its Trip."""
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            with inject.injected("afa.search_witness", at=1, limit="steps") as plan:
                answer = nonempty_pl(pl_counter_sws(6))
        finally:
            obs.configure(enabled=False)
        assert plan.fired
        assert answer.verdict.name == "UNKNOWN"
        trip = answer.trip
        assert trip is not None and trip.injected
        events = _progress_events(buf)
        assert events, "expected a trip-consistent final progress event"
        last = events[-1]
        assert last["site"] == trip.site
        assert last["steps"] == trip.steps
        assert last["tripped"] == trip.limit
        assert last["injected"] is True

    def test_real_budget_trip_is_consistent_too(self, fast):
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            answer = nonempty_pl(pl_counter_sws(12), guard=Budget(step_budget=600))
        finally:
            obs.configure(enabled=False)
        assert answer.verdict.name == "UNKNOWN"
        trip = answer.trip
        tripped = [e for e in _progress_events(buf) if e.get("tripped")]
        assert tripped
        assert tripped[-1]["steps"] == trip.steps
        assert tripped[-1]["site"] == trip.site
        assert "injected" not in tripped[-1]


class TestSiteState:
    def test_events_fold_steps_per_site(self, fast):
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            # A site's first checkpoint starts its clock; a later one emits.
            checkpoint("unit.a", n=5, frontier=3, visited=10, depth=2)
            time.sleep(0.001)
            checkpoint("unit.a", n=5, frontier=1)
            checkpoint("unit.b", n=7)
            time.sleep(0.001)
            checkpoint("unit.b", n=0)
        finally:
            obs.configure(enabled=False)
        last = {e["site"]: e for e in _progress_events(buf)}
        assert last["unit.a"]["steps"] == 10
        assert last["unit.a"]["frontier"] == 1
        assert last["unit.a"]["peak_frontier"] == 3
        assert last["unit.a"]["visited"] == 10
        assert last["unit.a"]["depth"] == 2
        assert last["unit.b"]["steps"] == 7

    def test_reset_drops_state_keeps_interval(self, fast):
        """Setting the sink again (as a pool worker does after the fork)
        starts a fresh tracker; the patched interval still holds."""
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            checkpoint("unit.a", n=5)
            first = _governor._PROGRESS
            obs.configure(stream=buf)
            assert _governor._PROGRESS is not None
            assert _governor._PROGRESS is not first
            checkpoint("unit.a", n=3)
            time.sleep(0.001)
            checkpoint("unit.a", n=4)
        finally:
            obs.configure(enabled=False)
        # The 5 steps noted before the reset are gone: 3 + 4, not 12.
        assert [e["steps"] for e in _progress_events(buf)] == [7]

    def test_depth_iteration_sites_report_depth(self, fast):
        """Analysis loops with a session-length bound stamp it as depth."""
        buf = io.StringIO()
        obs.configure(stream=buf)
        try:
            sws = cnf_to_sws(clauses_from_tuples(random_3cnf(0, 5, 10)))
            nonempty_pl_nr_sat(sws)
        finally:
            obs.configure(enabled=False)
        depths = [
            e["depth"]
            for e in _progress_events(buf)
            if e["site"] == "nonempty_pl_nr_sat" and "depth" in e
        ]
        assert depths
        assert depths == sorted(depths)
