"""Experiment T2.6 — Table 2, CP(SWS_nr(CQ,UCQ), MDT_nr(UCQ), SWS_nr(CQ,UCQ)).

Paper bound: 2EXPSPACE, via reduction to equivalent query rewriting using
views for UCQ with ≠.  The benchmark sweeps the number of component views
and the goal's union width, measuring the full pipeline: expand goal and
components, compute the canonical candidate rewriting, verify equivalence,
materialize and re-verify the depth-one mediator.
"""

import pytest

from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule, TransitionRule
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import var
from repro.logic.ucq import UnionQuery
from repro.mediator.rewriting_based import compose_cq_nr

x, y, z = var("x"), var("y"), var("z")

PAYLOAD = RelationSchema("Rin", ("p", "q"))


def _schema(k: int) -> DatabaseSchema:
    return DatabaseSchema(
        [RelationSchema(f"R{i}", ("a", "b")) for i in range(k)]
    )


def _emit_service(schema, emit: UnionQuery, name: str) -> SWS:
    first = ConjunctiveQuery((x, y), [Atom("In", (x, y))], (), "copy")
    up = UnionQuery.of(ConjunctiveQuery((x, y), [Atom("A1", (x, y))], (), "up"))
    return SWS(
        ("q0", "q1"),
        "q0",
        {"q0": TransitionRule([("q1", first)]), "q1": TransitionRule()},
        {"q0": SynthesisRule(up), "q1": SynthesisRule(emit)},
        kind=SWSKind.RELATIONAL,
        db_schema=schema,
        input_schema=PAYLOAD,
        output_arity=2,
        name=name,
    )


def _join(relation: str) -> UnionQuery:
    return UnionQuery.of(
        ConjunctiveQuery(
            (x, z), [Atom(MSG, (x, y)), Atom(relation, (y, z))], (), f"j{relation}"
        )
    )


@pytest.mark.parametrize("k", [1, 2, 3])
def test_t2_6_view_count_sweep(benchmark, k, one_shot):
    """Synthesis cost vs number of views; the goal unions them all."""
    schema = _schema(k)
    goal_emit = _join("R0")
    for i in range(1, k):
        goal_emit = goal_emit.union(_join(f"R{i}"))
    goal = _emit_service(schema, goal_emit, "goal")
    components = {
        f"V{i}": _emit_service(schema, _join(f"R{i}"), f"V{i}") for i in range(k)
    }

    result = one_shot(lambda: compose_cq_nr(goal, components))
    assert result.is_yes
    mediator = result.witness  # its root synthesis is the rewriting
    root_synthesis = mediator.synthesis[mediator.start].query
    benchmark.extra_info["views"] = k
    benchmark.extra_info["rewriting_disjuncts"] = len(root_synthesis.disjuncts)


@pytest.mark.parametrize("k", [2, 3])
def test_t2_6_negative_case(benchmark, k, one_shot):
    """The goal needs a relation no view covers."""
    schema = _schema(k)
    goal_emit = _join("R0").union(_join(f"R{k - 1}"))
    goal = _emit_service(schema, goal_emit, "goal")
    components = {"V0": _emit_service(schema, _join("R0"), "V0")}

    result = one_shot(lambda: compose_cq_nr(goal, components))
    assert result.is_no
    benchmark.extra_info["views"] = 1


def test_t2_6_redundant_views_pruned(benchmark):
    """Minimization keeps the synthesized mediator small."""
    schema = _schema(2)
    goal = _emit_service(schema, _join("R0"), "goal")
    components = {
        "V0": _emit_service(schema, _join("R0"), "V0"),
        "V1": _emit_service(schema, _join("R1"), "V1"),
    }

    result = benchmark.pedantic(
        lambda: compose_cq_nr(goal, components),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.is_yes
    # Only the matching view survives minimization.
    assert set(result.witness.components) == {"V0"}
