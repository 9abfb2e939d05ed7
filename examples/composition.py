"""Composition synthesis (Section 5): mediators from available services.

Three of the paper's composition settings, end to end:

1. Example 5.1 — the hand-written mediator π1 over τa (flights),
   τhc (hotel+car) and τht (hotel+tickets), shown equivalent to the goal
   service τ1 on the running scenario.
2. Theorem 5.3 — MDT(∨) composition by regular-language rewriting: a
   sequential-sessions goal decomposed over session components.
3. Theorem 5.1(3) — CQ/UCQ composition as equivalent query rewriting
   using views, with the synthesized depth-one mediator replayed against
   the goal on random instances.

Run:  python examples/composition.py
"""

from repro.core.run import run_relational
from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
from repro.data.generators import InstanceGenerator
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import var
from repro.logic.ucq import UnionQuery
from repro.mediator import (
    compose_cq_nr,
    compose_pl_regular,
    run_mediator,
    run_mediator_pl,
)
from repro.workloads import travel
from repro.workloads.pl_services import HASH, encode_letters, union_word_service, word_service
from repro.workloads.random_sws import DEFAULT_CQ_SCHEMA, DEFAULT_PAYLOAD


def example_5_1() -> None:
    print("=== Example 5.1: the travel mediator π1 ===")
    pi1 = travel.travel_mediator()
    goal = travel.travel_service()
    request = travel.booking_request()
    for label, kwargs in [
        ("full catalog", {}),
        ("no tickets", {"with_tickets": False}),
        ("no cars", {"with_cars": False}),
    ]:
        database = travel.sample_database(**kwargs)
        via_goal = goal.run(database, request).output.rows
        via_mediator = run_mediator(pi1, database, request).output.rows
        match = "==" if via_goal == via_mediator else "!="
        print(f"  {label:13s}: goal {len(via_goal)} rows {match} "
              f"mediator {len(via_mediator)} rows")


def regular_composition() -> None:
    print("\n=== Theorem 5.3: MDT(∨) composition via regular rewriting ===")
    alpha = ["a", "b", "c"]
    components = {
        "Air": word_service(["a", HASH], alpha, "Air"),
        "Bed": word_service(["b", HASH], alpha, "Bed"),
        "Car": word_service(["c", HASH], alpha, "Car"),
    }
    goal = union_word_service(
        [["a", HASH, "b", HASH], ["a", HASH, "c", HASH]], alpha, "package"
    )
    result = compose_pl_regular(goal, components)
    print(f"  mediator exists: {result.verdict.value} ({result.detail})")
    mediator = result.witness
    print(f"  mediator has {len(mediator.states)} states over "
          f"{len(mediator.components)} components")
    for word in (["a", HASH, "b", HASH], ["a", HASH, "c", HASH], ["b", HASH, "a", HASH]):
        value = run_mediator_pl(mediator, encode_letters(word)).output
        print(f"  session {''.join(word)}: {'accepted' if value else 'rejected'}")

    impossible = union_word_service([["a", "b", HASH]], alpha, "impossible")
    failure = compose_pl_regular(impossible, components)
    print(f"  impossible goal rejected: {failure.verdict.value}; no "
          f"substitution covers its {len(failure.witness)}-message word")


def _emit_service(emit: UnionQuery, name: str) -> SWS:
    x, y = var("x"), var("y")
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


def cq_composition() -> None:
    print("\n=== Theorem 5.1(3): CQ/UCQ composition via query rewriting ===")
    x, y, z = var("x"), var("y"), var("z")
    join_r = UnionQuery.of(
        ConjunctiveQuery((x, z), [Atom(MSG, (x, y)), Atom("R", (y, z))], (), "jr")
    )
    join_s = UnionQuery.of(
        ConjunctiveQuery((x, z), [Atom(MSG, (x, y)), Atom("S", (y, z))], (), "js")
    )
    goal = _emit_service(join_r.union(join_s), "goal")
    components = {
        "ViaR": _emit_service(join_r, "ViaR"),
        "ViaS": _emit_service(join_s, "ViaS"),
    }
    result = compose_cq_nr(goal, components)
    print(f"  mediator exists: {result.verdict.value} ({result.detail})")
    mediator = result.witness
    print(f"  rewriting (root synthesis): {mediator.synthesis[mediator.start].query}")
    generator = InstanceGenerator(seed=8, domain_size=3)
    agreements = 0
    for _ in range(5):
        database = generator.database(goal.db_schema, 4)
        inputs = generator.input_sequence(goal.input_schema, 2, 2)
        via_goal = run_relational(goal, database, inputs).output.rows
        via_mediator = run_mediator(mediator, database, inputs).output.rows
        agreements += via_goal == via_mediator
    print(f"  goal == mediator on {agreements}/5 random instances")


def main() -> None:
    example_5_1()
    regular_composition()
    cq_composition()


if __name__ == "__main__":
    main()
