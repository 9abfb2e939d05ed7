"""End-to-end integration tests spanning multiple subsystems."""

import itertools

import pytest

from repro.analysis import equivalent_pl, nonempty_pl
from repro.core.pl_semantics import joint_variables
from repro.core.run import run_pl, run_relational
from repro.data.actions import ActionKind, commit_actions, tag_interpretation
from repro.data.generators import InstanceGenerator
from repro.mediator import (
    compose_cq_nr,
    compose_pl_regular,
    mediator_equivalent_to_sws_pl,
    run_mediator,
)
from repro.models.roman import RomanService, encode_roman_word, roman_to_sws
from repro.workloads import travel
from repro.workloads.pl_services import HASH, union_word_service, word_service


class TestTravelEndToEnd:
    """Figure 1's scenario: run, synthesize, commit."""

    def test_run_then_commit(self):
        t1 = travel.travel_service()
        db = travel.sample_database()
        result = run_relational(t1, db, travel.booking_request())
        bookings_schema = travel.DB_SCHEMA.extended(
            __import__(
                "repro.data.schema", fromlist=["RelationSchema"]
            ).RelationSchema("Bookings", ("flight", "room", "ticket", "car"))
        )
        from repro.data.database import Database

        store = Database(bookings_schema)
        interpretation = tag_interpretation(
            tag_position=0,
            kind_by_tag={"book": ActionKind.INSERT},
            target_by_tag={"book": "Bookings"},
        )
        from repro.data.relation import Relation
        from repro.data.schema import RelationSchema

        tagged_schema = RelationSchema(
            "Act", ("tag", "flight", "room", "ticket", "car")
        )
        tagged = Relation(
            tagged_schema, [("book",) + row for row in result.output]
        )
        updated, log = commit_actions(store, tagged, interpretation)
        assert len(updated["Bookings"]) == len(result.output)
        assert not log.is_empty()

    def test_mediator_substitutes_for_goal(self):
        """A client cannot tell π1 from τ1 on any tested scenario."""
        pi1 = travel.travel_mediator()
        t1 = travel.travel_service()
        gen = InstanceGenerator(seed=5, domain_size=2)
        for trial in range(4):
            db = gen.database(travel.DB_SCHEMA, 3)
            # Rebuild keys so joins can fire.
            db = db.with_relation("Ra", [("k", f"F{trial}")])
            db = db.with_relation("Rh", [("k", "H")])
            req_rows = [(tag, "k") for tag in travel.TAGS]
            from repro.data.input_sequence import InputSequence

            req = InputSequence(travel.INPUT_PAYLOAD, [req_rows])
            assert (
                run_mediator(pi1, db, req).output.rows
                == run_relational(t1, db, req).output.rows
            )


class TestRomanPipeline:
    """Roman model → SWS → analysis → composition, end to end."""

    def test_translate_analyze(self):
        service = RomanService(travel.travel_fsa(), "travel")
        sws = roman_to_sws(service)
        answer = nonempty_pl(sws)
        assert answer.is_yes
        assert run_pl(sws, answer.witness).output

    def test_equivalence_of_translations(self):
        from repro.automata import parse_regex

        one = parse_regex("a (b | c)").to_nfa().determinize().to_nfa()
        two = parse_regex("a b | a c").to_nfa().determinize().to_nfa()
        sws1 = roman_to_sws(RomanService(one, "one"))
        sws2 = roman_to_sws(RomanService(two, "two"))
        assert equivalent_pl(sws1, sws2).is_yes


class TestPLCompositionPipeline:
    def test_synthesize_then_replay(self):
        alpha = ["a", "b", "c"]
        components = {
            "A": word_service(["a", HASH], alpha, "A"),
            "B": word_service(["b", HASH], alpha, "B"),
            "C": word_service(["c", HASH], alpha, "C"),
        }
        goal = union_word_service(
            [["a", HASH, "b", HASH], ["a", HASH, "c", HASH]], alpha, "goal"
        )
        result = compose_pl_regular(goal, components)
        assert result.is_yes
        variables = sorted(joint_variables(goal, *components.values()))
        # Exhaustive run-level verification over short words: mediator runs
        # involve real component executions, not language abstractions.
        ok, witness = mediator_equivalent_to_sws_pl(
            result.witness, goal, 4, variables
        )
        assert ok, witness


class TestCQCompositionPipeline:
    def test_synthesize_run_compare(self):
        from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
        from repro.logic.cq import Atom, ConjunctiveQuery
        from repro.logic.terms import var
        from repro.logic.ucq import UnionQuery
        from repro.workloads.random_sws import DEFAULT_CQ_SCHEMA, DEFAULT_PAYLOAD

        x, y, z = var("x"), var("y"), var("z")

        def emit_service(emit, name):
            first = ConjunctiveQuery((x, y), [Atom("In", (x, y))], (), "copy")
            up = UnionQuery.of(
                ConjunctiveQuery((x, y), [Atom("A1", (x, y))], (), "up")
            )
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

        join_r = UnionQuery.of(
            ConjunctiveQuery(
                (x, z), [Atom(MSG, (x, y)), Atom("R", (y, z))], (), "jr"
            )
        )
        join_s = UnionQuery.of(
            ConjunctiveQuery(
                (x, z), [Atom(MSG, (x, y)), Atom("S", (y, z))], (), "js"
            )
        )
        goal = emit_service(join_r.union(join_s), "goal")
        components = {
            "VR": emit_service(join_r, "VR"),
            "VS": emit_service(join_s, "VS"),
        }
        result = compose_cq_nr(goal, components)
        assert result.is_yes
        gen = InstanceGenerator(seed=2, domain_size=3)
        for _ in range(4):
            db = gen.database(goal.db_schema, 4)
            inputs = gen.input_sequence(goal.input_schema, 2, 2)
            assert (
                run_mediator(result.witness, db, inputs).output.rows
                == run_relational(goal, db, inputs).output.rows
            )
