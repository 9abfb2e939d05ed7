"""The compiled AFA engine compiles only the code a procedure runs.

A non-emptiness check needs the generated witness search and nothing
else: per-class row closures are compiled on first lookup (``pre_step``,
a patched automaton's engine, delta replay) and the sweep BFS on first
sweep.  The work counters must not depend on any of this.
"""

from __future__ import annotations

import gc
import random
import weakref

import pytest

from repro._stats import STATS
from repro.analysis import nonempty_pl
from repro.automata import afa as afa_mod
from repro.automata.afa import symbol_sort_key
from repro.core.pl_semantics import to_afa, to_afa_incremental
from repro.delta import Session, compute_delta
from repro.logic import pl
from repro.serve import JobSpec, SolverService
from repro.workloads.editing import menu_editing_trace
from repro.workloads.pl_services import HASH, union_word_service
from repro.workloads.scaling import pl_counter_sws

WORDS = ["abca", "bcdd", "cabd", "dadb", "acbd", "bbcd"]


def _menu():
    return union_word_service([list(w) + [HASH] for w in WORDS], "abcd")


@pytest.fixture
def compiled(monkeypatch):
    """Records every searcher kind generated and every row compiled."""
    calls = {"searchers": [], "rows": 0}
    compile_searchers = afa_mod._compile_searchers
    compile_row = pl.compile_row

    def record_searchers(engine, name):
        calls["searchers"].append(name)
        return compile_searchers(engine, name)

    def record_row(entries, index):
        calls["rows"] += 1
        return compile_row(entries, index)

    monkeypatch.setattr(afa_mod, "_compile_searchers", record_searchers)
    monkeypatch.setattr(pl, "compile_row", record_row)
    return calls


class TestOnDemandCompilation:
    def test_nonempty_compiles_only_the_witness_search(self, compiled):
        assert nonempty_pl(_menu()).is_yes
        assert compiled["searchers"] == ["_search"]
        assert compiled["rows"] == 0

    def test_engine_after_search_has_no_rows_and_no_sweeper(self, compiled):
        afa = to_afa(_menu())
        assert afa.accepting_witness() is not None
        engine = afa._engine()
        assert len(engine.rows) == 0
        assert engine._sweep_fn is None
        assert compiled["rows"] == 0

    def test_reachable_vectors_builds_the_sweeper(self, compiled):
        afa = to_afa(_menu())
        afa.reachable_vectors()
        assert compiled["searchers"] == ["_sweep"]
        assert afa._engine()._search_fn is None
        assert compiled["rows"] == 0

    def test_pre_step_compiles_only_its_row(self, compiled):
        afa = to_afa(_menu())
        engine = afa._engine()
        assert len(engine.reps) > 1
        symbol = sorted(afa.alphabet, key=symbol_sort_key)[-1]
        afa.pre_step(afa.empty_word_vector(), symbol)
        assert list(engine.rows) == [engine.rep_of[symbol]]
        assert compiled["rows"] == 1
        assert compiled["searchers"] == []

    def test_patch_engine_on_uncompiled_base(self):
        trace = menu_editing_trace(edits=1)
        base, edited = trace
        delta = compute_delta(base, edited)
        base_afa = to_afa(base)
        incremental = to_afa_incremental(edited, base, base_afa, delta.changed_states)
        assert incremental.transitions.root is base_afa
        assert base_afa._engine_cache is None
        # The patched automaton's engine compiles its root's, and neither
        # compiles a row before one is looked up.
        patched = incremental._engine()
        base_engine = base_afa._engine_cache
        assert base_engine is not None and len(base_engine.rows) == 0
        assert len(patched.rows) == 0
        full = to_afa(edited)._engine()
        n = len(full.order)
        masks = [0, (1 << n) - 1, full.final_mask]
        masks += [(0x9E3779B9 * i) & ((1 << n) - 1) for i in range(1, 20)]
        for symbol in incremental.alphabet:
            p_row = patched.rows[patched.rep_of[symbol]]
            f_row = full.rows[full.rep_of[symbol]]
            assert [p_row(m) for m in masks] == [f_row(m) for m in masks]

    def test_delta_replay_on_uncompiled_base(self):
        trace = menu_editing_trace(edits=3)
        session = Session(trace[0])
        assert session.check().is_yes
        for version in trace[1:]:
            session.edit(version)
            result = session.recheck()
            assert result.mode in ("replay", "warm")
            assert result.answer.verdict is nonempty_pl(version).verdict


class TestNothingCompiledIsRetained:
    def test_served_menus_leave_no_code_behind(self, monkeypatch):
        """Generated searchers die with their automata, and the shared
        compile cache stays within its bound."""
        searchers = []
        compile_searchers = afa_mod._compile_searchers

        def record(engine, name):
            searcher = compile_searchers(engine, name)
            searchers.append(weakref.ref(searcher))
            return searcher

        monkeypatch.setattr(afa_mod, "_compile_searchers", record)
        menus = []
        for seed in range(30):
            rng = random.Random(seed)
            words = ["".join(rng.choice("abcd") for _ in range(4)) for _ in range(3)]
            menus.append(union_word_service([list(w) + [HASH] for w in words], "abcd"))
        with SolverService() as service:
            answers = service.run_batch([JobSpec("nonempty_pl", (m,)) for m in menus])
        assert all(answer.is_yes for answer in answers)
        assert len(searchers) == 30  # one witness search per distinct menu
        del menus, answers
        gc.collect()
        assert [ref for ref in searchers if ref() is not None] == []
        assert len(pl._COMPILE_CACHE) <= pl._COMPILE_CACHE_LIMIT


class TestCountersUnchanged:
    """Work counters pinned at their values before lazy compilation."""

    @pytest.mark.parametrize(
        "make, length, vectors, pre_steps, classes",
        [
            (lambda: pl_counter_sws(8), 256, 256, 256, 1),
            (_menu, 5, 11, 66, 6),
        ],
        ids=["counter8", "menu"],
    )
    def test_counters(self, make, length, vectors, pre_steps, classes):
        STATS.reset()
        answer = nonempty_pl(make())
        counters = STATS.snapshot()
        assert answer.is_yes and len(answer.witness) == length
        assert counters["vectors_explored"] == vectors
        assert counters["pre_steps"] == pre_steps
        assert counters["symbol_classes"] == classes
