"""Session lifecycle: cache/store wiring, cold restarts, service hook."""

from __future__ import annotations

import pytest

from repro.analysis import nonempty_pl
from repro.delta import Session
from repro.serve.cache import AnswerCache
from repro.serve.fingerprint import job_fingerprint
from repro.serve.scheduler import SolverService
from repro.workloads.editing import menu_editing_trace
from repro.workloads.scaling import pl_counter_sws


@pytest.fixture
def cache(tmp_path):
    cache = AnswerCache(directory=str(tmp_path / "cache"))
    yield cache
    cache.close()


class TestPersistence:
    def test_decided_answers_flow_into_the_cache(self, cache):
        trace = menu_editing_trace(edits=2)
        session = Session(trace[0], cache=cache)
        session.check()
        key = job_fingerprint("nonempty_pl", (trace[0],), {})
        assert cache.get(key, "nonempty_pl") is not None
        session.edit(trace[1])
        session.recheck()
        edited_key = job_fingerprint("nonempty_pl", (trace[1],), {})
        assert edited_key != key
        assert cache.get(edited_key, "nonempty_pl") is not None

    def test_cold_reopen_rechecks_incrementally(self, cache):
        trace = menu_editing_trace(edits=1)
        Session(trace[0], cache=cache).check()
        # A new Session (fresh process in real life) finds its answer in
        # the cache: no AFA yet, but the edit still avoids the full path
        # because the answer carries the witness.
        reopened = Session(trace[0], cache=cache)
        answer = reopened.check()
        assert answer is not None and answer.is_yes
        assert reopened.answer is answer and answer.witness
        reopened.edit(trace[1])
        result = reopened.recheck()
        assert result.mode in ("replay", "warm")
        assert result.answer.verdict is nonempty_pl(trace[1]).verdict

    def test_stale_snapshot_for_other_version_is_ignored(self, cache):
        trace = menu_editing_trace(edits=1)
        first = Session(trace[0], cache=cache)
        first.check()
        # Same procedure, different version: fingerprints differ, so the
        # cache lookup misses and check() solves fresh.
        other = Session(trace[1], cache=cache)
        assert other.fingerprint != first.fingerprint
        assert other.check().verdict is nonempty_pl(trace[1]).verdict


class TestSessionBehavior:
    def test_edit_is_idempotent_before_recheck(self):
        trace = menu_editing_trace(edits=2)
        session = Session(trace[0])
        session.check()
        session.edit(trace[1])
        delta = session.edit(trace[2])  # replaces the staged version
        assert delta.base_root == session.tree.root
        result = session.recheck()
        assert session.current is trace[2]
        assert result.answer.verdict is nonempty_pl(trace[2]).verdict

    def test_recheck_without_edit_is_cached(self):
        sws = menu_editing_trace(edits=0)[0]
        session = Session(sws)
        first = session.check()
        result = session.recheck()
        assert result.mode == "cached" and result.answer is first

    def test_recheck_before_check_solves_first(self):
        trace = menu_editing_trace(edits=1)
        session = Session(trace[0])
        session.edit(trace[1])
        result = session.recheck()  # implicit initial check
        assert result.answer.verdict is nonempty_pl(trace[1]).verdict
        assert session.rechecks == 1

    def test_kwargs_are_part_of_the_fingerprint(self):
        sws = menu_editing_trace(edits=0)[0]
        plain = Session(sws, "validate_pl", output=True)
        negated = Session(sws, "validate_pl", output=False)
        assert plain.fingerprint != negated.fingerprint

    def test_stats_shape(self):
        trace = menu_editing_trace(edits=1)
        session = Session(trace[0])
        session.check()
        session.edit(trace[1])
        session.recheck()
        stats = session.stats()
        assert stats["rechecks"] == 1
        assert sum(stats["modes"].values()) == 1
        assert stats["procedure"] == "nonempty_pl"
        assert stats["states"] == len(trace[1].states)


class TestServiceHook:
    def test_service_session_shares_the_cache(self, tmp_path):
        service = SolverService(cache=AnswerCache(directory=str(tmp_path)))
        try:
            trace = menu_editing_trace(edits=1)
            session = service.session(trace[0])
            session.check()
            session.edit(trace[1])
            session.recheck()
            # The session published under the scheduler's fingerprints:
            # submitting the same edited instance is a pure cache hit.
            handle = service.submit("nonempty_pl", trace[1])
            service.drain()
            assert handle.result().is_yes
            assert handle.from_cache
        finally:
            service.close()

    def test_service_session_rejects_unsupported(self, tmp_path):
        from repro.delta import DeltaError

        service = SolverService()
        try:
            with pytest.raises(DeltaError):
                service.session(pl_counter_sws(3), "equivalent_pl")
        finally:
            service.close()
