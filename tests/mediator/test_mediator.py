"""Tests for mediator structure and run semantics (Definition 5.1)."""

import pickle

import pytest

from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.errors import SWSDefinitionError
from repro.logic import pl
from repro.mediator.mediator import (
    Mediator,
    MediatorTransitionRule,
    run_mediator,
    run_mediator_pl,
)
from repro.workloads import travel
from repro.workloads.pl_services import HASH, encode_letters, word_service


@pytest.fixture
def components():
    alpha = ["a", "b"]
    return {
        "X": word_service(["a", HASH], alpha, "X"),
        "Y": word_service(["b", HASH], alpha, "Y"),
    }


def _chain_mediator(components, order):
    states = [f"s{i}" for i in range(len(order) + 1)]
    transitions = {}
    synthesis = {}
    for i, name in enumerate(order):
        transitions[states[i]] = MediatorTransitionRule([(states[i + 1], name)])
        synthesis[states[i]] = SynthesisRule(pl.Var("A1"))
    transitions[states[-1]] = MediatorTransitionRule()
    synthesis[states[-1]] = SynthesisRule(pl.Var("Msg"))
    return Mediator(states, states[0], transitions, synthesis, components)


class TestValidation:
    def test_unknown_component(self, components):
        with pytest.raises(SWSDefinitionError, match="unknown component"):
            Mediator(
                ("m0", "m1"),
                "m0",
                {
                    "m0": MediatorTransitionRule([("m1", "ZZZ")]),
                    "m1": MediatorTransitionRule(),
                },
                {
                    "m0": SynthesisRule(pl.Var("A1")),
                    "m1": SynthesisRule(pl.Var("Msg")),
                },
                components,
            )

    def test_start_on_rhs_rejected(self, components):
        with pytest.raises(SWSDefinitionError, match="must not appear"):
            Mediator(
                ("m0",),
                "m0",
                {"m0": MediatorTransitionRule([("m0", "X")])},
                {"m0": SynthesisRule(pl.Var("A1"))},
                components,
            )

    def test_invocation_counts(self, components):
        mediator = _chain_mediator(components, ["X", "Y", "X"])
        assert mediator.component_invocation_counts() == {"X": 2, "Y": 1}

    def test_recursion_detection(self, components):
        mediator = _chain_mediator(components, ["X"])
        assert not mediator.is_recursive()
        recursive = Mediator(
            ("m0", "m1"),
            "m0",
            {
                "m0": MediatorTransitionRule([("m1", "X")]),
                "m1": MediatorTransitionRule([("m1", "Y")]),
            },
            {
                "m0": SynthesisRule(pl.Var("A1")),
                "m1": SynthesisRule(pl.Var("A1")),
            },
            components,
        )
        assert recursive.is_recursive()


class TestPLRuns:
    def test_sequential_sessions(self, components):
        mediator = _chain_mediator(components, ["X", "Y"])
        assert run_mediator_pl(mediator, encode_letters(["a", HASH, "b", HASH])).output
        assert not run_mediator_pl(
            mediator, encode_letters(["b", HASH, "a", HASH])
        ).output
        assert not run_mediator_pl(mediator, encode_letters(["a", HASH])).output

    def test_component_failure_kills_chain(self, components):
        mediator = _chain_mediator(components, ["X", "X"])
        assert not run_mediator_pl(
            mediator, encode_letters(["a", HASH, "b", HASH])
        ).output
        assert run_mediator_pl(
            mediator, encode_letters(["a", HASH, "a", HASH])
        ).output

    def test_timestamp_advances_past_session(self, components):
        mediator = _chain_mediator(components, ["X", "Y"])
        result = run_mediator_pl(mediator, encode_letters(["a", HASH, "b", HASH]))
        child = result.tree.children[0]
        assert child.timestamp == 3  # X consumed the two-message session

    def test_trailing_input_ignored(self, components):
        mediator = _chain_mediator(components, ["X"])
        word = encode_letters(["a", HASH, "b", HASH])
        assert run_mediator_pl(mediator, word).output


class TestRelationalRuns:
    def test_travel_mediator_equals_goal(self):
        pi1 = travel.travel_mediator()
        goal = travel.travel_service()
        for kwargs in (
            {},
            {"with_tickets": False},
            {"with_cars": False},
            {"with_tickets": False, "with_cars": False},
        ):
            db = travel.sample_database(**kwargs)
            req = travel.booking_request()
            a = goal.run(db, req).output.rows
            b = run_mediator(pi1, db, req).output.rows
            assert a == b, kwargs

    def test_mediator_tree_shape(self):
        pi1 = travel.travel_mediator()
        result = run_mediator(
            pi1, travel.sample_database(), travel.booking_request()
        )
        assert len(result.tree.children) == 3

    def test_empty_input_silences_mediator(self):
        from repro.data.input_sequence import InputSequence

        pi1 = travel.travel_mediator()
        empty = InputSequence(travel.INPUT_PAYLOAD, [])
        result = run_mediator(pi1, travel.sample_database(), empty)
        assert not result.output


def _composition_yes_answers():
    """A YES answer of each of the five ``compose_*`` procedures."""
    from repro.automata.regex import parse_regex
    from repro.automata.rpq import RPQ
    from repro.mediator.bounded import compose_mdtb_pl
    from repro.mediator.rewriting_based import compose_cq_nr
    from repro.mediator.rpq_composition import compose_uc2rpq
    from repro.mediator.synthesis import compose_pl_prefix, compose_pl_regular
    from repro.workloads.pl_services import union_word_service
    from tests.mediator.test_rewriting_based import _emit_service, _join_emit

    alpha = ["a", "b"]
    pl_components = {"X": word_service(["a", HASH], alpha, "X"), "Y": word_service(["b", HASH], alpha, "Y")}
    goal = union_word_service([["a", HASH, "b", HASH]], alpha, "seq")
    cq_components = {"VR": _emit_service(_join_emit("R"), "VR"), "VS": _emit_service(_join_emit("S"), "VS")}
    cq_goal = _emit_service(_join_emit("R").union(_join_emit("S")), "goal")
    return {
        "pl_regular": lambda: compose_pl_regular(goal, pl_components),
        "pl_prefix": lambda: compose_pl_prefix(goal, pl_components, max_chain_length=2),
        "mdtb_pl": lambda: compose_mdtb_pl(goal, pl_components, invocation_bound=1),
        "cq_nr": lambda: compose_cq_nr(cq_goal, cq_components),
        "uc2rpq": lambda: compose_uc2rpq(RPQ(parse_regex("(a b)* a"), "goal"), {"P": ["a", "b"], "Q": ["a"]}),
    }


class TestStructuralEquality:
    @pytest.mark.parametrize("procedure", ["pl_regular", "pl_prefix", "mdtb_pl", "cq_nr", "uc2rpq"])
    def test_a_yes_answer_equals_its_pickle_round_trip(self, procedure):
        answer = _composition_yes_answers()[procedure]()
        assert answer.is_yes
        copy = pickle.loads(pickle.dumps(answer))
        assert copy == answer
        assert hash(copy.witness) == hash(answer.witness)

    def test_mediators_compare_by_structure_not_name(self, components):
        mediator = _chain_mediator(components, ["X", "Y"])
        renamed = Mediator(
            mediator.states,
            mediator.start,
            mediator.transitions,
            mediator.synthesis,
            {name: word_service(["ab"[i], HASH], ["a", "b"], f"other{i}") for i, name in enumerate("XY")},
            name="renamed",
        )
        assert renamed == mediator and hash(renamed) == hash(mediator)
        assert _chain_mediator(components, ["Y", "X"]) != mediator
        swapped = {"X": components["Y"], "Y": components["X"]}
        assert _chain_mediator(swapped, ["X", "Y"]) != mediator  # same names, other services
        assert mediator != "not a mediator"
