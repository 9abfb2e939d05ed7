"""Tests for CQ/UCQ composition via query rewriting (Theorem 5.1(3))."""

import pytest

from repro.core.run import run_relational
from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
from repro.data.generators import InstanceGenerator
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import var
from repro.logic.ucq import UnionQuery
from repro.mediator.mediator import run_mediator
from repro.mediator.rewriting_based import (
    component_view,
    compose_cq_nr,
    mediator_from_ucq_rewriting,
)
from repro.workloads.random_sws import DEFAULT_CQ_SCHEMA, DEFAULT_PAYLOAD

x, y, z = var("x"), var("y"), var("z")


def _emit_service(emit: UnionQuery, name: str) -> SWS:
    """q0 → (q1, copy-input); q1 emits by the given synthesis."""
    first = ConjunctiveQuery((x, y), [Atom("In", (x, y))], (), "copy")
    up = UnionQuery.of(ConjunctiveQuery((x, y), [Atom("A1", (x, y))], (), "up"))
    return SWS(
        ("q0", "q1"),
        "q0",
        {"q0": TransitionRule([("q1", first)]), "q1": TransitionRule()},
        {"q0": SynthesisRule(up), "q1": SynthesisRule(emit)},
        kind=SWSKind.RELATIONAL,
        db_schema=DEFAULT_CQ_SCHEMA,
        input_schema=DEFAULT_PAYLOAD,
        output_arity=2,
        name=name,
    )


def _join_emit(relation: str) -> UnionQuery:
    return UnionQuery.of(
        ConjunctiveQuery(
            (x, z), [Atom(MSG, (x, y)), Atom(relation, (y, z))], (), f"e{relation}"
        )
    )


@pytest.fixture
def components():
    return {
        "VR": _emit_service(_join_emit("R"), "VR"),
        "VS": _emit_service(_join_emit("S"), "VS"),
    }


class TestComponentView:
    def test_view_named_and_shaped(self, components):
        view = component_view("VR", components["VR"], 2)
        assert view.name == "VR"
        assert view.arity == 2
        assert "R" in view.relations()


class TestCompose:
    def test_union_goal(self, components):
        goal = _emit_service(_join_emit("R").union(_join_emit("S")), "goal")
        result = compose_cq_nr(goal, components)
        assert result.is_yes
        gen = InstanceGenerator(seed=3, domain_size=3)
        for _ in range(5):
            db = gen.database(goal.db_schema, 4)
            inputs = gen.input_sequence(goal.input_schema, 2, 2)
            a = run_relational(goal, db, inputs).output.rows
            b = run_mediator(result.witness, db, inputs).output.rows
            assert a == b

    def test_single_component_identity(self, components):
        goal = _emit_service(_join_emit("R"), "goal")
        result = compose_cq_nr(goal, {"VR": components["VR"]})
        assert result.is_yes
        assert len(result.witness.components) == 1

    def test_missing_capability(self, components):
        goal = _emit_service(_join_emit("R"), "goal")
        result = compose_cq_nr(goal, {"VS": components["VS"]})
        assert result.is_no

    def test_schema_mismatch_rejected(self, components):
        from repro.data.schema import DatabaseSchema, RelationSchema
        from repro.errors import AnalysisError

        other_schema = DatabaseSchema([RelationSchema("T", ("a", "b"))])
        odd = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {
                "q0": SynthesisRule(
                    UnionQuery.of(
                        ConjunctiveQuery((x, y), [Atom("T", (x, y))], (), "t")
                    )
                )
            },
            kind=SWSKind.RELATIONAL,
            db_schema=other_schema,
            input_schema=DEFAULT_PAYLOAD,
            output_arity=2,
            name="odd",
        )
        goal = _emit_service(_join_emit("R"), "goal")
        with pytest.raises(AnalysisError, match="share"):
            compose_cq_nr(goal, {"odd": odd})


class TestMediatorConstruction:
    def test_depth_one_shape(self, components):
        rewriting = UnionQuery.of(
            ConjunctiveQuery((x, y), [Atom("VR", (x, y))], (), "r")
        )
        mediator = mediator_from_ucq_rewriting(rewriting, components)
        assert mediator.start == "q_root"
        assert len(mediator.states) == 2
        assert not mediator.is_recursive()

    def test_unknown_view_rejected(self, components):
        from repro.errors import AnalysisError

        rewriting = UnionQuery.of(
            ConjunctiveQuery((x, y), [Atom("ZZ", (x, y))], (), "r")
        )
        with pytest.raises(AnalysisError, match="unknown components"):
            mediator_from_ucq_rewriting(rewriting, components)
