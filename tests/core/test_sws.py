"""Tests for the SWS data type (Definition 2.1 well-formedness)."""

import pickle
import random

import pytest

from repro.core import sws as sws_mod
from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
from repro.errors import SWSDefinitionError
from repro.logic import pl
from repro.workloads.editing import menu_editing_trace, menu_words, replace_rule
from repro.workloads.pl_services import exactly, union_word_service
from repro.workloads.random_sws import random_cq_sws, random_pl_sws
from repro.workloads.travel import recursive_airfare_service, travel_service


def _tiny_pl(**overrides):
    """A well-formed 2-state PL service, with optional field overrides."""
    spec = dict(
        states=("q0", "q1"),
        start="q0",
        transitions={
            "q0": TransitionRule([("q1", pl.Var("x"))]),
            "q1": TransitionRule(),
        },
        synthesis={
            "q0": SynthesisRule(pl.Var("A1")),
            "q1": SynthesisRule(pl.Var("Msg")),
        },
    )
    spec.update(overrides)
    return SWS(
        spec["states"],
        spec["start"],
        spec["transitions"],
        spec["synthesis"],
        kind=SWSKind.PL,
    )


class TestValidation:
    def test_well_formed(self):
        sws = _tiny_pl()
        assert sws.states == ("q0", "q1")

    def test_unknown_start(self):
        with pytest.raises(SWSDefinitionError, match="start state"):
            _tiny_pl(start="zzz")

    def test_missing_transition_rule(self):
        with pytest.raises(SWSDefinitionError, match="without a transition"):
            _tiny_pl(transitions={"q0": TransitionRule()})

    def test_missing_synthesis_rule(self):
        with pytest.raises(SWSDefinitionError, match="without a synthesis"):
            _tiny_pl(synthesis={"q0": SynthesisRule(pl.TRUE)})

    def test_start_on_rhs_rejected(self):
        with pytest.raises(SWSDefinitionError, match="must not appear"):
            _tiny_pl(
                transitions={
                    "q0": TransitionRule([("q1", pl.TRUE)]),
                    "q1": TransitionRule([("q0", pl.TRUE)]),
                }
            )

    def test_unknown_target_rejected(self):
        with pytest.raises(SWSDefinitionError, match="unknown state"):
            _tiny_pl(
                transitions={
                    "q0": TransitionRule([("zzz", pl.TRUE)]),
                    "q1": TransitionRule(),
                }
            )

    def test_internal_synthesis_over_registers_only(self):
        with pytest.raises(SWSDefinitionError, match="A1"):
            _tiny_pl(
                synthesis={
                    "q0": SynthesisRule(pl.Var("x")),  # not a register
                    "q1": SynthesisRule(pl.Var("Msg")),
                }
            )

    def test_relational_needs_schemas(self):
        from repro.logic.cq import Atom, ConjunctiveQuery
        from repro.logic.terms import var

        q = ConjunctiveQuery((var("x"),), [Atom("In", (var("x"),))])
        with pytest.raises(SWSDefinitionError, match="input payload"):
            SWS(
                ("q0",),
                "q0",
                {"q0": TransitionRule()},
                {"q0": SynthesisRule(q)},
                kind=SWSKind.RELATIONAL,
            )


class TestAliases:
    def test_positional_and_state_aliases(self):
        sws = _tiny_pl()
        aliases = sws.successor_register_aliases("q0")
        assert aliases == {"A1": 0, "Act1": 0, "Act_q1": 0}

    def test_duplicate_successor_has_no_state_alias(self):
        sws = _tiny_pl(
            transitions={
                "q0": TransitionRule([("q1", pl.TRUE), ("q1", pl.Var("x"))]),
                "q1": TransitionRule(),
            },
            synthesis={
                "q0": SynthesisRule(pl.Var("A1") | pl.Var("A2")),
                "q1": SynthesisRule(pl.Var("Msg")),
            },
        )
        aliases = sws.successor_register_aliases("q0")
        assert "Act_q1" not in aliases
        assert aliases["A2"] == 1


class TestDependencyGraph:
    def test_travel_service_nonrecursive(self):
        sws = travel_service()
        assert not sws.is_recursive()
        assert sws.depth() == 1

    def test_recursive_detection(self):
        sws = recursive_airfare_service()
        assert sws.is_recursive()
        with pytest.raises(SWSDefinitionError):
            sws.depth()

    def test_dependency_edges(self):
        sws = travel_service()
        edges = sws.dependency_edges()
        assert ("q0", "qa") in edges
        assert len(edges) == 4

    def test_reachable_states(self):
        sws = travel_service()
        assert sws.reachable_states() == set(sws.states)

    def test_random_nonrecursive_really_nonrecursive(self):
        for seed in range(20):
            assert not random_pl_sws(seed, recursive=False).is_recursive()
            assert not random_cq_sws(seed, recursive=False).is_recursive()


class TestIntrospection:
    def test_input_variables(self):
        sws = _tiny_pl()
        assert sws.input_variables() == {"x"}

    def test_msg_not_an_input_variable(self):
        sws = _tiny_pl(
            transitions={
                "q0": TransitionRule([("q1", pl.Var("Msg") | pl.Var("y"))]),
                "q1": TransitionRule(),
            }
        )
        assert sws.input_variables() == {"y", "Msg"} - {"Msg"}

    def test_input_variables_are_read_once_and_never_pickled(self):
        sws = menu_editing_trace(edits=0)[0]
        before = pickle.dumps(sws)
        names = sws.input_variables()
        assert sws.input_variables() is names
        assert names == {"ltr_a", "ltr_b", "ltr_c", "ltr_d", "hash"}
        assert pickle.dumps(sws) == before
        assert pickle.loads(before).input_variables() == names

    def test_query_constants(self):
        sws = travel_service()
        assert "a" in sws.query_constants()
        assert "-" in sws.query_constants()

    def test_repr(self):
        assert "nonrecursive" in repr(travel_service())
        assert "recursive" in repr(recursive_airfare_service())


class TestSharedStates:
    def test_edited_copies_share_the_states_tuple(self):
        base = menu_editing_trace(edits=0)[0]
        state = next(s for s in base.states if not base.transitions[s].is_final)
        edited = replace_rule(base, state, rule=base.transitions[state], name="copy")
        assert edited.states is base.states

    @pytest.mark.parametrize("states", [["q0", "q1", "q0"], ("q0", "q1", "q0"), ["q0", "q1"]])
    def test_anything_else_is_deduplicated_into_a_tuple(self, states):
        assert _tiny_pl(states=states).states == ("q0", "q1")


def _built(sws, state=None, rule=None, synthesis=None, name=None):
    """``sws`` with ``state``'s rules replaced, built and validated in full."""
    transitions, synth = dict(sws.transitions), dict(sws.synthesis)
    if rule is not None:
        transitions[state] = rule
    if synthesis is not None:
        synth[state] = synthesis
    return SWS(
        sws.states,
        sws.start,
        transitions,
        synth,
        kind=sws.kind,
        db_schema=sws.db_schema,
        input_schema=sws.input_schema,
        output_arity=sws.output_arity,
        name=sws.name if name is None else name,
    )


def _travel_queries():
    travel = travel_service()
    msg_query = travel.transitions["q0"].targets[0][1]  # arity 2
    act_query = travel.synthesis["qa"].query  # arity 4
    return travel, msg_query, act_query


def _invalid_replacements():
    tiny = _tiny_pl()
    travel, msg_query, act_query = _travel_queries()
    return {
        "unknown state": (tiny, "q9", TransitionRule(), None),
        "unknown target": (tiny, "q0", TransitionRule([("q9", pl.Var("x"))]), None),
        "start on a rhs": (tiny, "q1", TransitionRule([("q0", pl.Var("x"))]), None),
        "stray synthesis name": (tiny, "q0", None, SynthesisRule(pl.Var("A2"))),
        "non-PL formula": (tiny, "q0", TransitionRule([("q1", msg_query)]), None),
        "transition arity": (travel, "q0", TransitionRule([("qa", act_query)]), None),
        "synthesis arity": (travel, "qa", None, SynthesisRule(msg_query)),
    }


class TestReplace:
    @pytest.mark.parametrize("case", sorted(_invalid_replacements()))
    def test_invalid_replacements_fail_as_a_build_does(self, case):
        sws, state, rule, synthesis = _invalid_replacements()[case]
        with pytest.raises(SWSDefinitionError) as built:
            _built(sws, state, rule, synthesis)
        with pytest.raises(SWSDefinitionError) as replaced:
            sws.replace(state, rule=rule, synthesis=synthesis)
        assert str(replaced.value) == str(built.value)

    def test_copies_share_every_map_they_leave_alone(self):
        base = menu_editing_trace(edits=0)[0]
        state = next(s for s in base.states if not base.transitions[s].is_final)
        rule = TransitionRule(base.transitions[state].targets)
        new_rule = base.replace(state, rule=rule)
        assert new_rule.synthesis is base.synthesis
        assert new_rule.transitions[state] is rule
        new_synth = base.replace(state, synthesis=SynthesisRule(pl.Var("A1")))
        assert new_synth.transitions is base.transitions
        renamed = base.replace(state, name="renamed")
        assert renamed.transitions is base.transitions and renamed.synthesis is base.synthesis
        for copy in (new_rule, new_synth, renamed):
            assert copy.states is base.states
            assert copy.db_schema is base.db_schema
            assert copy.replaced_states(base) is not None
        assert new_rule.replaced_states(base) == {state}
        assert renamed.replaced_states(base) == frozenset()
        assert new_rule.replaced_states(new_synth) is None

    @pytest.mark.parametrize("family", ["menu", "counter", "travel"])
    def test_copies_pickle_like_built_services(self, family):
        if family == "menu":
            base = menu_editing_trace(edits=0)[0]
            state = "b0_w1"
            target, _ = base.transitions[state].targets[0]
            edit = {"rule": TransitionRule([(target, pl.FALSE)])}
        elif family == "counter":
            from repro.workloads.scaling import pl_counter_sws

            base, state = pl_counter_sws(4), "root"
            edit = {"synthesis": SynthesisRule(pl.Not(pl.Var("A1")))}
        else:
            base, msg_query, _ = _travel_queries()
            state = "q0"
            edit = {"rule": TransitionRule([("qa", msg_query), ("qh", msg_query)])}
        copy = base.replace(state, name="edited", **edit)
        expected = pickle.dumps(_built(base, state, name="edited", **edit))
        assert pickle.dumps(copy) == expected
        if copy.kind is SWSKind.PL:  # memos stay out of the pickle
            copy._inherit_input_variables(base, {state})
            assert pickle.dumps(copy) == expected
        assert pickle.loads(expected).replaced_states(base) is None


def _replace_chain(edits=1000, seed=0):
    """A chain of ``edits`` guard edits on a 128-branch (513-state) menu.

    Yields each version with the plain dict of its transition rules and
    the state it replaced (the base comes first, with ``None``).
    """
    version = union_word_service(menu_words(128), "abcd")
    assert len(version.states) == 513
    editable = [s for s in version.states if s != version.start and not version.transitions[s].is_final]
    guards = [(pl.Var(MSG) & exactly(letter, "abcd")).simplify() for letter in "abcd"]
    rng = random.Random(seed)
    rules = dict(version.transitions)
    yield version, rules, None
    for _ in range(edits):
        state = rng.choice(editable)
        rule = TransitionRule([(rules[state].targets[0][0], rng.choice(guards))])
        version = version.replace(state, rule=rule)
        rules = {**rules, state: rule}
        yield version, rules, state


class TestPatchedRules:
    """An edited version patches its base's transition map instead of copying it."""

    def test_a_version_reads_as_the_plain_dict_of_its_rules(self):
        for version, rules, state in _replace_chain():
            transitions = version.transitions
            assert list(transitions.items()) == list(rules.items())
            assert len(transitions) == len(rules) and dict(transitions) == rules
            assert transitions == rules
            if state is not None:
                assert state in transitions and transitions[state] is rules[state]
                assert transitions.get(state) is rules[state]
            assert "nowhere" not in transitions and transitions.get("nowhere") is None
            with pytest.raises(KeyError):
                transitions["nowhere"]

    def test_the_patch_re_roots_once_it_has_cost_a_copy(self, monkeypatch):
        flattened = []
        monkeypatch.setattr(sws_mod._PatchedRules, "flat", lambda self: flattened.append(self))
        previous, roots = None, 0
        for version, rules, state in _replace_chain():
            transitions = version.transitions
            if state is None:
                assert type(transitions) is dict
            else:
                old = previous.transitions
                patched = isinstance(old, sws_mod._PatchedRules)
                root = old.root if patched else old
                since = {**(old.rules if patched else {}), state: rules[state]}
                work = (old.work if patched else 0) + len(since)
                if work > len(root):
                    assert type(transitions) is dict and transitions is not root
                    roots += 1
                else:
                    assert isinstance(transitions, sws_mod._PatchedRules)
                    assert transitions.root is root and transitions.rules == since
                    assert transitions.work == work
            previous = version
        assert flattened == []  # replace never flattens a patch
        assert 20 <= roots <= 60  # ~√(2·513) edits per root, far from one per edit

    def test_an_edited_version_pickles_as_a_built_one(self):
        for step, (version, rules, _state) in enumerate(_replace_chain()):
            if step % 25:
                continue
            built = SWS(
                version.states, version.start, rules, version.synthesis, kind=SWSKind.PL, name=version.name
            )
            assert pickle.dumps(version) == pickle.dumps(built)
            assert type(pickle.loads(pickle.dumps(version)).transitions) is dict
