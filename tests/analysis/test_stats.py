"""The work counters threaded through the decision procedures."""

import pytest

from repro.analysis import STATS, nonempty_fo_bounded, nonempty_pl, nonempty_pl_nr_sat
from repro.analysis.equivalence import equivalent_pl
from repro.analysis.stats import Stats, stats_delta
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import pl_counter_sws
from repro.workloads.travel import travel_service


class TestStatsCounters:
    def test_reset_zeroes_everything(self):
        STATS.vectors_explored = 17
        STATS.sat_calls = 3
        STATS.reset()
        assert all(v == 0 for v in STATS.snapshot().values())

    def test_afa_search_counts_vectors_and_steps(self):
        STATS.reset()
        answer = nonempty_pl(pl_counter_sws(3))
        assert answer.is_yes
        assert STATS.vectors_explored > 0
        assert STATS.pre_steps > 0
        assert STATS.afa_compilations >= 1

    def test_symbol_dedup_is_visible(self):
        STATS.reset()
        nonempty_pl(random_pl_sws(3, n_states=4, n_variables=2))
        assert STATS.alphabet_symbols >= STATS.symbol_classes > 0

    def test_sat_path_counts_calls(self):
        STATS.reset()
        sws = random_pl_sws(3, n_states=4, n_variables=2, recursive=False)
        nonempty_pl_nr_sat(sws)
        assert STATS.sat_calls > 0

    def test_runs_are_counted(self):
        from repro.core.run import run

        STATS.reset()
        sws = random_pl_sws(3, n_states=4, n_variables=2)
        run(sws, [frozenset()])
        assert STATS.runs_executed == 1

    def test_bounded_fo_runs_are_counted(self):
        # The bounded procedures call the relational engine directly.
        with stats_delta() as work:
            nonempty_fo_bounded(travel_service(), max_runs=50)
        assert work["runs_executed"] > 0

    def test_intern_and_compile_cache_lookups_are_counted(self):
        STATS.reset()
        equivalent_pl(
            random_pl_sws(3, n_states=3, n_variables=2),
            random_pl_sws(4, n_states=3, n_variables=2),
        )
        assert STATS.intern_hits + STATS.intern_misses > 0
        assert STATS.compile_cache_hits + STATS.compile_cache_misses > 0

    def test_snapshot_is_json_ready(self):
        import json

        STATS.reset()
        nonempty_pl(pl_counter_sws(2))
        snapshot = STATS.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot


class TestStatsDelta:
    """Scoped snapshot-diff measurement — the reset-free alternative."""

    def test_measures_without_mutating_the_singleton(self):
        before = STATS.snapshot()
        with stats_delta() as work:
            nonempty_pl(pl_counter_sws(3))
        assert work["vectors_explored"] > 0
        assert work["pre_steps"] > 0
        # The singleton only ever moved forward; nothing was reset.
        after = STATS.snapshot()
        assert all(after[k] >= before[k] for k in before)

    def test_deltas_compose_under_nesting(self):
        with stats_delta() as outer:
            STATS.sat_calls += 2
            with stats_delta() as inner:
                STATS.sat_calls += 3
        assert inner["sat_calls"] == 3
        assert outer["sat_calls"] == 5

    def test_back_to_back_deltas_are_independent(self):
        with stats_delta() as first:
            STATS.dpll_decisions += 4
        with stats_delta() as second:
            STATS.dpll_decisions += 1
        assert first["dpll_decisions"] == 4
        assert second["dpll_decisions"] == 1

    def test_reads_live_inside_the_block(self):
        with stats_delta() as work:
            assert work["runs_executed"] == 0
            STATS.runs_executed += 2
            assert work["runs_executed"] == 2

    def test_exception_still_records_partial_work(self):
        with pytest.raises(RuntimeError):
            with stats_delta() as work:
                STATS.sat_calls += 6
                raise RuntimeError("interrupted")
        assert work["sat_calls"] == 6

    def test_nonzero_filters_and_as_dict_is_complete(self):
        with stats_delta() as work:
            STATS.intern_hits += 1
        assert work.nonzero() == {"intern_hits": 1}
        full = work.as_dict()
        assert full["intern_hits"] == 1
        assert set(full) == set(STATS.snapshot())
        assert "intern_hits" in repr(work)

    def test_explicit_stats_instance(self):
        local = Stats()
        with stats_delta(local) as work:
            local.sat_calls += 9
        assert work["sat_calls"] == 9
        assert work.get("missing", -1) == -1

    def test_read_before_enter_raises(self):
        delta = stats_delta()
        with pytest.raises(RuntimeError, match="before entering"):
            delta.as_dict()
