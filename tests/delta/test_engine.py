"""Delta engine: re-check modes, patched rows, and soundness edges."""

from __future__ import annotations

import dataclasses
import gc
import importlib
import random
import weakref

import pytest

from repro._stats import STATS
from repro.analysis import nonempty_pl, validate_pl
from repro.automata.afa import _PatchedRows
from repro.core.pl_semantics import to_afa, to_afa_incremental
from repro.core.run import run_pl
from repro.core.sws import MSG, SWS, TransitionRule
from repro.delta import DeltaError, Session, compute_delta
from repro.delta import engine as engine_mod, session as session_mod
from repro.delta.engine import _search
from repro.guard import Budget
from repro.logic import pl
from repro.workloads.editing import (
    flip_trace,
    growing_trace,
    menu_editing_trace,
    rename_trace,
    replace_rule,
)
from repro.workloads.pl_services import HASH, exactly, union_word_service
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import pl_counter_sws

# `repro.serve` re-exports the `fingerprint` *function*, which shadows the
# submodule on attribute-style imports.
fingerprint_mod = importlib.import_module("repro.serve.fingerprint")


def _scratch_verdicts(trace):
    return [nonempty_pl(sws).verdict for sws in trace]


def _next_version(sws, rng, alphabet="abcd"):
    """``sws``, a menu, with one interior guard retargeted by ``SWS.replace``.

    Unlike ``menu_editing_trace``, nothing but the caller holds the
    versions this makes.
    """
    interior = [s for s in sws.states if s != sws.start and not sws.transitions[s].is_final]
    state = rng.choice(interior)
    (target, _), *rest = sws.transitions[state].targets
    guard = (pl.Var(MSG) & exactly(rng.choice(alphabet), alphabet)).simplify()
    return sws.replace(state, rule=TransitionRule([(target, guard), *rest]))


def _whole_service_pass(*args, **kwargs):
    raise AssertionError("a pass over the whole service")


class TestRecheckModes:
    def test_menu_trace_rechecks_incrementally(self):
        trace = menu_editing_trace(edits=5)
        session = Session(trace[0])
        assert session.check().is_yes
        expected = _scratch_verdicts(trace)
        for step, version in enumerate(trace[1:], start=1):
            delta = session.edit(version)
            assert delta.is_local
            result = session.recheck()
            assert result.mode in ("replay", "warm")
            assert result.answer.verdict is expected[step]
            if result.answer.is_yes:
                assert run_pl(version, list(result.answer.witness)).output
        assert session.stats()["incremental_rechecks"] == 5
        assert session.stats()["modes"].get("full", 0) == 0

    def test_rename_only_edit_invalidates_nothing(self):
        trace = rename_trace(steps=2)
        session = Session(trace[0])
        first = session.check()
        for version in trace[1:]:
            session.edit(version)
            result = session.recheck()
            assert result.mode == "cached"
            assert result.delta.is_empty
            assert result.answer is first

    def test_yes_to_no_flip_is_sound(self):
        """A stale YES frontier must not leak into the dead version."""
        base, dead, back = flip_trace()
        session = Session(base)
        assert session.check().is_yes
        session.edit(dead)
        no = session.recheck()
        assert no.mode == "warm"  # witness replay fails, search reruns
        assert no.answer.is_no
        session.edit(back)
        yes = session.recheck()
        assert yes.answer.is_yes
        assert run_pl(back, list(yes.answer.witness)).output

    def test_alphabet_growth_forces_full_resolve(self):
        base, grown = growing_trace()
        session = Session(base)
        session.check()
        delta = session.edit(grown)
        assert delta.alphabet_changed
        result = session.recheck()
        assert result.mode == "full"
        assert result.answer.verdict is nonempty_pl(grown).verdict

    def test_state_count_change_forces_full_resolve(self):
        from repro.workloads.pl_services import HASH, word_service

        base = word_service(["a", HASH], "ab")
        longer = word_service(["a", "b", HASH], "ab")
        session = Session(base)
        session.check()
        session.edit(longer)
        result = session.recheck()
        assert result.mode == "full"
        assert result.answer.is_yes

    def test_tripped_answer_rechecks_in_full(self):
        # Guards only check at the every-256-pop checkpoints, so the
        # counter must be big enough to reach one before finishing.
        bits = 10
        sws = pl_counter_sws(bits)
        session = Session(sws, budget=30)  # trips at the first checkpoint
        first = session.check()
        assert first.is_unknown
        # An empty delta over an UNKNOWN: nothing to reuse, solve again.
        result = session.recheck(budget=10**8)
        assert result.mode == "full"
        assert result.answer.is_yes
        # The counter's unique witness; run_pl replay is skipped here
        # because forward simulation of the counter is exponential.
        assert len(result.answer.witness) == 2**bits

    def test_budget_bounds_the_warm_search(self):
        # The 10-bit counter needs 1,024 pops; a 10-step budget must
        # stop the warm search at its first periodic checkpoint.
        engine = to_afa(pl_counter_sws(10))._engine()
        answer, _ = _search(engine, True, Budget(step_budget=10))
        assert answer.is_unknown
        assert answer.trip.limit == "steps"
        assert answer.trip.site == "delta.recheck"

    def test_recheck_after_full_rerun_is_decided_and_cached(self):
        sws = pl_counter_sws(9)
        session = Session(sws, budget=5)
        assert session.check().is_unknown
        assert session.recheck(budget=10**8).answer.is_yes
        again = session.recheck()
        assert again.mode == "cached" and again.answer.is_yes


class TestOneDeltaPerEdit:
    def test_edit_then_recheck_diffs_once(self, monkeypatch):
        """An edited copy's delta is derived (no diff), an unrelated version
        is diffed once, and the re-check never diffs again."""
        calls = []

        def spy(*args, **kwargs):
            calls.append(args)
            return compute_delta(*args, **kwargs)

        monkeypatch.setattr(session_mod, "compute_delta", spy)
        # The re-check must take the staged delta, not diff again.
        monkeypatch.setattr(engine_mod, "compute_delta", spy, raising=False)
        base, edited = menu_editing_trace(edits=1)
        # The same version, built without a record of its base.
        rebuilt = SWS(
            edited.states,
            edited.start,
            edited.transitions,
            edited.synthesis,
            kind=edited.kind,
            name=edited.name,
        )
        for version, diffs in ((edited, 0), (rebuilt, 1)):
            session = Session(base)
            session.check()
            calls.clear()
            delta = session.edit(version)
            result = session.recheck()
            assert len(calls) == diffs
            assert result.delta is delta and result.mode in ("replay", "warm")


class TestLongSession:
    def test_a_thousand_local_edits_stay_local(self):
        """A chain of patched engines nested one row closure per edit, and
        its stack overflowed near the 995th local re-check of one session."""
        trace = menu_editing_trace(8, 4, "abcd", 1100)
        session = Session(trace[0])
        assert session.check().is_yes
        for step, version in enumerate(trace[1:], start=1):
            session.edit(version)
            result = session.recheck()
            assert result.delta.is_local, step
            assert result.mode in ("replay", "warm"), step
        assert session.answer.verdict is nonempty_pl(trace[-1]).verdict

    @staticmethod
    def _engines_of(afa):
        """The engines of ``afa`` and of its root automaton."""
        transitions = afa.transitions
        root = transitions.root if isinstance(transitions, _PatchedRows) else afa
        return afa._engine_cache, root._engine_cache

    def test_only_the_root_and_the_current_engine_stay_alive(self):
        trace = menu_editing_trace(8, 4, "abcd", 60)
        session = Session(trace[0])
        session.check()
        engines = []
        for version in trace[1:]:
            session.edit(version)
            session.recheck()
            engine = session.afa._engine()
            transitions = session.afa.transitions
            patched = isinstance(transitions, _PatchedRows)
            if patched:
                # Patched against a root, never against another patch,
                # and derived from the root's engine.
                assert type(transitions.root.transitions) is dict
                assert engine.reps is transitions.root._engine_cache.reps
            engines.append((weakref.ref(engine), patched))
        del engine
        gc.collect()
        early, patched = engines[2]
        assert patched and early() is None
        alive = [ref() for ref, _ in engines if ref() is not None]
        assert all(any(e is kept for kept in self._engines_of(session.afa)) for e in alive)

    def test_a_re_rooted_session_frees_the_old_root_engine(self):
        """``flip_trace``'s first edit splits a letter class, so its re-check
        leaves a plain-dict automaton: from then on the version-0 engine is
        garbage, and every live engine is the current automaton's or its
        root automaton's."""
        trace = flip_trace()
        session = Session(trace[0])
        session.check()
        engines = [weakref.ref(session.afa._engine())]
        re_rooted = False
        for version in trace[1:]:
            session.edit(version)
            session.recheck()
            engines.append(weakref.ref(session.afa._engine()))
            re_rooted = re_rooted or type(session.afa.transitions) is dict
            gc.collect()
            if re_rooted:
                assert engines[0]() is None
            kept = self._engines_of(session.afa)
            assert all(ref() is None or any(ref() is e for e in kept) for ref in engines)
            del kept
        assert re_rooted

    def test_a_session_pins_no_old_version(self):
        rng = random.Random(0)
        session = Session(menu_editing_trace(8, 4, "abcd", 0)[0])
        session.check()
        versions = []
        for _ in range(200):
            version = _next_version(session.current, rng)
            versions.append(weakref.ref(version))
            session.edit(version)
            session.recheck()
        del version
        gc.collect()
        assert [ref() for ref in versions if ref() is not None] == [session.current]

    def test_the_session_re_roots_once_patches_cost_a_compile(self):
        trace = menu_editing_trace(8, 4, "abcd", 200)
        session = Session(trace[0])
        session.check()
        STATS.reset()
        for version in trace[1:]:
            session.edit(version)
            session.recheck()
            transitions = session.afa.transitions
            if isinstance(transitions, _PatchedRows):
                assert transitions.work <= len(session.afa.states)
        # The first local edit compiles a root and later ones re-root
        # now and then, far from once per edit.
        assert 2 <= STATS.afa_compilations <= len(trace) // 4


class TestFullRecheck:
    @pytest.mark.parametrize(
        "procedure, kwargs",
        [("nonempty_pl", {}), ("validate_pl", {"output": True}), ("validate_pl", {"output": False})],
    )
    def test_full_recheck_answers_as_the_procedure_and_keeps_its_automaton(
        self, procedure, kwargs, monkeypatch
    ):
        from repro.serve.registry import PROCEDURES

        base, grown = growing_trace()
        session = Session(base, procedure, **kwargs)
        session.check()
        session.edit(grown)
        result = session.recheck()
        assert result.mode == "full"
        assert result.answer == PROCEDURES[procedure](grown, **kwargs)
        # The next local edit patches the kept automaton: no translation.
        monkeypatch.setattr(engine_mod, "to_afa", _whole_service_pass)
        (target, guard), = grown.transitions["w1"].targets
        edited = grown.replace("w1", rule=TransitionRule([(target, pl.Not(guard))]))
        assert session.edit(edited).is_local
        result = session.recheck()
        assert result.mode in ("replay", "warm")
        assert result.answer.verdict is PROCEDURES[procedure](edited, **kwargs).verdict

    def test_tripped_solve_answers_as_the_procedure(self):
        sws = pl_counter_sws(10)
        first = Session(sws, budget=30).check()
        expected = nonempty_pl(sws, guard=30)
        assert first.is_unknown
        assert (first.verdict, first.witness) == (expected.verdict, expected.witness)
        # The detail describes the trip, elapsed time included.
        assert all(a.detail == a.trip.describe() for a in (first, expected))
        untimed = [dataclasses.replace(a.trip, elapsed_s=0.0) for a in (first, expected)]
        assert untimed[0] == untimed[1]


class TestDerivedEdits:
    def test_derived_edits_pass_over_no_service(self, monkeypatch):
        """Edits of versions made by ``SWS.replace`` hash, diff, scan and
        translate nothing but the edited states."""
        rng = random.Random(1)
        session = Session(menu_editing_trace(16, 4, "abcd", 0)[0])
        session.check()
        for owner, name in (
            (session_mod, "sub_fingerprints"),
            (session_mod, "compute_delta"),
            (fingerprint_mod, "sub_fingerprints"),
            (SWS, "_input_formula_slots"),
            (engine_mod, "to_afa"),
        ):
            monkeypatch.setattr(owner, name, _whole_service_pass)
        modes = set()
        for _ in range(60):
            session.edit(_next_version(session.current, rng))
            modes.add(session.recheck().mode)
        assert {"replay", "warm"} <= modes <= {"replay", "warm", "cached"}
        assert session.stats()["edits"] == {"derived": 60, "diffed": 0}


class TestValidate:
    def test_validate_pl_rechecks_both_polarities(self):
        trace = menu_editing_trace(edits=3)
        for output in (True, False):
            session = Session(trace[0], "validate_pl", output=output)
            session.check()
            for version in trace[1:]:
                session.edit(version)
                result = session.recheck()
                scratch = validate_pl(version, output=output)
                assert result.answer.verdict is scratch.verdict
                assert result.mode != "full"

    def test_unsupported_procedure_is_rejected(self):
        with pytest.raises(DeltaError):
            Session(random_pl_sws(0), "equivalent_pl")


class TestIncrementalAFA:
    def _edited_pair(self, seed=11):
        base = random_pl_sws(seed, n_states=5, n_variables=2)
        donor = random_pl_sws(seed + 50, n_states=5, n_variables=2)
        state = sorted(base.states)[2]
        edited = replace_rule(
            base,
            state,
            rule=donor.transitions[state],
            synthesis=donor.synthesis.get(state),
            name="edited",
        )
        return base, edited, state

    def test_incremental_rebuild_matches_scratch(self):
        base, edited, state = self._edited_pair()
        delta = compute_delta(base, edited)
        if not delta.is_local:
            pytest.skip("donor edit changed the alphabet for this seed")
        base_afa = to_afa(base)
        incremental = to_afa_incremental(
            edited, base, base_afa, delta.changed_states
        )
        scratch = to_afa(edited)
        assert incremental is not None
        assert incremental.states == scratch.states
        assert incremental.finals == scratch.finals
        assert incremental.classes == scratch.classes
        assert set(incremental.transitions) == set(scratch.transitions)
        for key, formula in scratch.transitions.items():
            assert incremental.transitions[key] == formula

    @staticmethod
    def _letter_edit():
        """Menu over a, b, c; the edit retargets the only c-guard to b."""
        words = [["a", "b", HASH], ["a", "c", HASH]]
        base = union_word_service(words, "abc")
        guard = pl.Var(MSG) & exactly("b", "abc")
        (target, _), = base.transitions["b1_w1"].targets
        edited = replace_rule(base, "b1_w1", rule=TransitionRule([(target, guard)]))
        return base, edited

    @pytest.mark.parametrize("direction", ["merge", "split"])
    def test_incremental_class_map_matches_scratch(self, direction):
        base, edited = self._letter_edit()
        if direction == "split":  # the reverse edit tests c again
            base, edited = edited, base
        base_afa = to_afa(base)
        delta = compute_delta(base, edited)
        assert delta.is_local
        incremental = to_afa_incremental(edited, base, base_afa, delta.changed_states)
        scratch = to_afa(edited)
        classes = len(set(scratch.classes.values()))
        assert classes == len(set(base_afa.classes.values())) + (
            1 if direction == "split" else -1
        )
        assert incremental.classes == scratch.classes
        assert incremental.finals == scratch.finals
        assert incremental.transitions == scratch.transitions

    def test_incremental_rebuild_refuses_layout_changes(self):
        base, grown = growing_trace()
        base_afa = to_afa(base)
        assert (
            to_afa_incremental(grown, base, base_afa, frozenset({"w1"}))
            is None
        )

    def test_patched_engine_rows_match_full_compile(self):
        """Seed 21's edit keeps the class map: the edited automaton is
        patched against the base, and its engine derived from the base's.
        Seed 23's splits a class: the edited automaton is a root, and its
        engine compiles from scratch."""
        for seed, patched in ((21, True), (23, False)):
            base, edited, state = self._edited_pair(seed=seed)
            delta = compute_delta(base, edited)
            assert delta.is_local
            base_afa = to_afa(base)
            base_engine = base_afa._engine()
            incremental = to_afa_incremental(
                edited, base, base_afa, delta.changed_states
            )
            assert (getattr(incremental.transitions, "root", None) is base_afa) is patched
            engine = incremental._engine()
            assert (engine.reps is base_engine.reps) is patched
            self._assert_same_rows(engine, to_afa(edited)._engine())

    #: How each seed's edits re-root: ``copied`` once the patches since the
    #: root cost a copy, ``rebuilt`` (a scratch ``to_afa``) when an edit
    #: changes the class map.
    _KINDS = {
        5: {"patched", "copied"},
        6: {"patched", "copied", "rebuilt"},
        18: {"patched", "rebuilt"},
    }

    @pytest.mark.parametrize("seed", [5, 6, 18])
    def test_session_engines_match_full_compiles_edit_after_edit(self, seed):
        """Automata patched against their root automaton, and their engines'
        rows patched over every state dirtied since the root, equal a fresh
        translation and compile, across re-roots and class-map changes."""
        current = random_pl_sws(seed, n_states=6, n_variables=2)
        session = Session(current)
        session.check()
        kinds = set()
        for step in range(24):
            classes = session.afa.classes
            donor = random_pl_sws(seed * 100 + step, n_states=6, n_variables=2)
            state = sorted(current.states)[1 + step % 5]
            current = replace_rule(
                current,
                state,
                rule=donor.transitions[state],
                synthesis=donor.synthesis[state],
            )
            session.edit(current)
            assert session.recheck().mode != "full"
            afa = session.afa
            if afa.classes != classes:
                kinds.add("rebuilt")
            elif type(afa.transitions) is dict:
                kinds.add("copied")
            else:
                kinds.add("patched")
                assert afa.classes is afa.transitions.root.classes
            scratch = to_afa(current)
            self._assert_same_rows(afa._engine(), scratch._engine())
            assert dict(afa.transitions.items()) == scratch.transitions
            assert (afa.classes, afa.finals) == (scratch.classes, scratch.finals)
        assert kinds == self._KINDS[seed]

    @staticmethod
    def _assert_same_rows(engine, full):
        assert engine.order == full.order
        assert engine.final_mask == full.final_mask
        assert engine.reps == full.reps
        n = len(full.order)
        masks = [0, (1 << n) - 1, full.final_mask]
        masks += [(0x9E3779B9 * i) & ((1 << n) - 1) for i in range(1, 40)]
        for symbol in full.alphabet:
            rep = full.rep_of[symbol]
            assert engine.rep_of[symbol] == rep
            assert engine.row_keys[rep] == full.row_keys[rep]
            f_row, p_row = full.rows[rep], engine.rows[rep]
            for mask in masks:
                assert p_row(mask) == f_row(mask)
