"""Assorted edge-case coverage across subsystems."""

import pytest

from repro.core.run import run_pl, run_relational
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.errors import RunError
from repro.logic import pl
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import var
from repro.logic.ucq import UnionQuery

x, y = var("x"), var("y")
PAYLOAD = RelationSchema("Rin", ("v",))
DB = DatabaseSchema([RelationSchema("R", ("a", "b"))])


class TestRunEdgeCases:
    def test_single_final_start_state_on_empty_input(self):
        emit = UnionQuery.of(ConjunctiveQuery((x,), [Atom("R", (x, y))]))
        sws = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {"q0": SynthesisRule(emit)},
            kind=SWSKind.RELATIONAL,
            db_schema=DB,
            input_schema=PAYLOAD,
            output_arity=1,
        )
        db = Database(DB, {"R": [(1, 2)]})
        # A final start state synthesizes even with no input at all.
        result = run_relational(sws, db, InputSequence(PAYLOAD, []))
        assert result.output.rows == {(1,)}
        assert result.tree.size() == 1

    def test_pl_empty_word_final_start(self):
        sws = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {"q0": SynthesisRule(pl.Not(pl.Var("x")))},
            kind=SWSKind.PL,
        )
        # Beyond the word the assignment is empty, so !x holds.
        assert run_pl(sws, []).output
        assert not run_pl(sws, [frozenset({"x"})]).output

    def test_duplicate_successors_get_distinct_registers(self):
        copy_in = ConjunctiveQuery((x,), [Atom("In", (x,))])
        from repro.logic.cq import eq
        from repro.logic.terms import const

        select1 = ConjunctiveQuery((x,), [Atom("In", (x,))], [eq(x, const(1))])
        emit = UnionQuery.of(ConjunctiveQuery((x,), [Atom("Msg", (x,))]))
        keep_second = UnionQuery.of(
            ConjunctiveQuery((x,), [Atom("A2", (x,))])
        )
        sws = SWS(
            ("q0", "leaf"),
            "q0",
            {
                "q0": TransitionRule([("leaf", copy_in), ("leaf", select1)]),
                "leaf": TransitionRule(),
            },
            {
                "q0": SynthesisRule(keep_second),
                "leaf": SynthesisRule(emit),
            },
            kind=SWSKind.RELATIONAL,
            db_schema=DB,
            input_schema=PAYLOAD,
            output_arity=1,
        )
        db = Database.empty(DB)
        result = run_relational(sws, db, InputSequence(PAYLOAD, [[(1,), (2,)]]))
        # Only the filtered (second) child's register flows up.
        assert result.output.rows == {(1,)}

    def test_run_requires_matching_payload(self):
        emit = UnionQuery.of(ConjunctiveQuery((x,), [Atom("In", (x,))]))
        sws = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {"q0": SynthesisRule(emit)},
            kind=SWSKind.RELATIONAL,
            db_schema=DB,
            input_schema=PAYLOAD,
            output_arity=1,
        )
        wrong = InputSequence(RelationSchema("Rin", ("a", "b")), [[(1, 2)]])
        with pytest.raises(RunError, match="arity"):
            run_relational(sws, Database.empty(DB), wrong)


class TestMediatorEdgeCases:
    def test_nonempty_seed_arity_mismatch_rejected(self):
        from repro.mediator._component_run import run_component_relational
        from repro.workloads.travel import travel_service, sample_database

        component = travel_service()
        seed = Relation(RelationSchema("Msg", ("a",)), [(1,)])
        with pytest.raises(RunError, match="seed"):
            run_component_relational(
                component,
                sample_database(),
                InputSequence(component.input_schema, []),
                seed,
            )

    def test_empty_seed_any_arity_ok(self):
        from repro.mediator._component_run import run_component_relational
        from repro.workloads.travel import travel_service, sample_database, booking_request

        component = travel_service()
        seed = Relation(RelationSchema("Msg", ("a",)), [])
        output, consumed = run_component_relational(
            component, sample_database(), booking_request(), seed
        )
        assert output
        assert consumed == 2  # root + leaves


class TestValidationDispatch:
    def test_recursive_cq_validation_bounded(self):
        from repro.analysis import validate
        from repro.workloads.scaling import cq_chain_sws

        chain = cq_chain_sws(0)
        answer = validate(
            chain, [], max_session_length=1, max_domain=1, max_rows=0, max_runs=50
        )
        # The empty output is produced by the empty instance.
        assert answer.is_yes

    def test_validation_budget_exhaustion(self):
        from repro.analysis import validate
        from repro.workloads.scaling import cq_chain_sws

        chain = cq_chain_sws(0)
        answer = validate(
            chain,
            [(99, 98)],
            max_session_length=1,
            max_domain=1,
            max_rows=0,
            max_runs=5,
        )
        assert not answer.is_yes


class TestExpansionEdgeCases:
    def test_session_length_zero(self):
        from repro.core.unfold import expand
        from repro.workloads.scaling import cq_diamond_sws

        expansion = expand(cq_diamond_sws(1), 0)
        # The diamond's root is internal: starved at n=0, empty expansion.
        assert len(expansion.disjuncts) == 0

    def test_final_root_survives_session_length_zero(self):
        from repro.core.unfold import expand

        emit = UnionQuery.of(ConjunctiveQuery((x,), [Atom("R", (x, y))]))
        sws = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {"q0": SynthesisRule(emit)},
            kind=SWSKind.RELATIONAL,
            db_schema=DB,
            input_schema=PAYLOAD,
            output_arity=1,
        )
        expansion = expand(sws, 0)
        assert len(expansion.disjuncts) == 1
