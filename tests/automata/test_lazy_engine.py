"""The compiled AFA engine compiles only the code a procedure runs.

A non-emptiness check needs the generated witness search and nothing
else: per-class single-step rows are built on first lookup (``pre_step``,
a patched automaton's engine, delta replay) and the sweep BFS on first
sweep.  The work counters must not depend on any of this.
"""

from __future__ import annotations

import gc
import hashlib
import random
import weakref

import pytest

from repro._stats import STATS
from repro.analysis import nonempty_pl
from repro.automata import afa as afa_mod
from repro.automata.afa import symbol_sort_key
from repro.core.pl_semantics import joint_variables, to_afa, to_afa_incremental
from repro.core.sws import MSG, TransitionRule
from repro.delta import Session, compute_delta
from repro.logic import pl
from repro.serve import JobSpec, SolverService
from repro.workloads.editing import menu_editing_trace, menu_words
from repro.workloads.pl_services import HASH, exactly, union_word_service
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import pl_counter_sws

WORDS = ["abca", "bcdd", "cabd", "dadb", "acbd", "bbcd"]


def _menu():
    return union_word_service([list(w) + [HASH] for w in WORDS], "abcd")


@pytest.fixture
def compiled(monkeypatch):
    """Records every searcher kind generated and every single-step row built."""
    calls = {"searchers": [], "rows": 0}
    compile_searchers = afa_mod._compile_searchers
    row_function = pl.row_function

    def record_searchers(engine, name):
        calls["searchers"].append(name)
        return compile_searchers(engine, name)

    def record_row(plan, index):
        calls["rows"] += 1
        return row_function(plan, index)

    monkeypatch.setattr(afa_mod, "_compile_searchers", record_searchers)
    monkeypatch.setattr(pl, "row_function", record_row)
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


def _big_menu(seed=0):
    """A 128-branch menu: 513 states, 1,026 state bits."""
    return union_word_service(menu_words(128, seed=seed), "abcd")


@pytest.fixture
def generated(monkeypatch):
    """Records the name and SHA-256 of every generated searcher's source."""
    sources = []
    exec_source = afa_mod._exec_source

    def record(name, lines):
        sources.append((name, hashlib.sha256("\n".join(lines).encode()).hexdigest()))
        return exec_source(name, lines)

    monkeypatch.setattr(afa_mod, "_exec_source", record)
    return sources


class TestRowPlans:
    """One plan per class row: the generated searchers render it, and the
    single-step rows evaluate it without generating code for the row."""

    #: The searchers' digests from before row plans: rendering a plan must not
    #: change a byte of the generated source, so no work counter can move.
    PINNED = [
        ("_search", "8b3c22deb223e1f91cc179794f79481215c0acdf727797a7e8190fb8c4ad22c1"),
        ("_search", "3ad2b5ec486d5b971a4f333b5efc1197a1568390224443a50e34965c12d14049"),
        ("_search", "c7470638f782ade38c70e4926d10fe408a3503e1f20bdf067cd11d1290db95d7"),
        ("_sweep", "cc4fda7c8f14d9161d53fc4da318cb12b38ac7ac9a5adfe72fc33ee567b02bd7"),
        ("_dsearch", "d22914d1f386ce928af7239bb139695c46d2fbadf983e6ca572c4911938fe697"),
        ("_dsearch", "581687b0a49c4306ca04dd615ad3675e9ba7553adeddde1f3ac3ef817d2a5841"),
    ]

    def test_searcher_source_is_unchanged(self, generated):
        to_afa(_big_menu()).accepting_witness()
        to_afa(pl_counter_sws(10)).accepting_witness()
        random_afa = to_afa(random_pl_sws(3, n_states=6, n_variables=3, recursive=True))
        random_afa.accepting_witness()
        random_afa.reachable_vectors()
        a, b = (random_pl_sws(seed, n_states=6, n_variables=3, recursive=True) for seed in (3, 4))
        variables = joint_variables(a, b)
        to_afa(a, variables).difference_witness(to_afa(b, variables))
        to_afa(_big_menu(0)).difference_witness(to_afa(_big_menu(1)))
        assert generated == self.PINNED

    def test_a_patched_engine_generates_a_scratch_engines_searcher(self, generated):
        base, edited = menu_editing_trace(edits=1)
        patched = to_afa_incremental(edited, base, to_afa(base), compute_delta(base, edited).changed_states)
        assert patched.accepting_witness() == to_afa(edited).accepting_witness()
        assert [name for name, _ in generated] == ["_search", "_search"]
        assert generated[0] == generated[1]

    def test_a_replay_after_a_full_recheck_reads_its_searchers_plans(self, monkeypatch):
        words = ["aab", "bba"]
        session = Session(union_word_service([list(w) + [HASH] for w in words], "ab"))
        session.check()

        def retarget(state, letter, alphabet):
            target, _guard = session.current.transitions[state].targets[0]
            guard = (pl.Var(MSG) & exactly(letter, alphabet)).simplify()
            return session.current.replace(state, rule=TransitionRule([(target, guard)]))

        session.edit(retarget("b1_w2", "z", "abz"))  # grows the alphabet
        assert session.recheck().mode == "full"
        root = session.afa._engine()
        plans = dict(root.plans)
        assert set(plans) == set(root.reps)  # the searcher analysed every class
        sizes = []
        row_plan = pl.RowPlan

        def record(entries, index):
            entries = list(entries)
            sizes.append(len(entries))
            return row_plan(entries, index)

        monkeypatch.setattr(pl, "RowPlan", record)
        # Edit the branch the witness does not spell, keeping the letter z.
        first = session.answer.witness[0]
        branch = 1 if exactly("a", "ab").evaluate(first) else 0
        session.edit(retarget(f"b{branch}_w1", "ba"[branch], "ab"))
        assert session.recheck().mode == "replay"
        assert session.afa.transitions.root._engine() is root
        assert all(root.plans[rep] is plan for rep, plan in plans.items())
        assert sizes and max(sizes) == 2  # the edited state's two pairs only

    def test_replays_on_a_warmed_session_generate_no_code(self, monkeypatch):
        menu = _big_menu()
        session = Session(menu)
        first = session.check().witness[0]
        words = menu_words(128)
        # Edits inside branches the witness's first letter rules out keep it valid.
        branches = [k for k, word in enumerate(words) if not exactly(word[0], "abcd").evaluate(first)]
        guards = [(pl.Var(MSG) & exactly(letter, "abcd")).simplify() for letter in "abcd"]
        rng = random.Random(0)

        def replay():
            state = f"b{rng.choice(branches)}_w{rng.randrange(1, 4)}"
            target, guard = session.current.transitions[state].targets[0]
            new_guard = rng.choice([g for g in guards if g is not guard])
            session.edit(session.current.replace(state, rule=TransitionRule([(target, new_guard)])))
            assert session.recheck().mode == "replay"

        for _ in range(5):
            replay()
        generated = []
        assemble, exec_source = pl._assemble, afa_mod._exec_source
        monkeypatch.setattr(pl, "_assemble", lambda *args: generated.append(args[0]) or assemble(*args))
        monkeypatch.setattr(
            afa_mod, "_exec_source", lambda *args: generated.append(args[0]) or exec_source(*args)
        )
        for _ in range(50):
            replay()
        assert generated == []


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
