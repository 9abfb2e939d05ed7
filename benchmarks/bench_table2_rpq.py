"""Experiment T2.9 — Table 2, CP(SWS(UC2RPQ), MDT(UC2RPQ), SWS_nr(CQ^r)).

Paper bound (Corollary 5.2): decidable in 2EXPTIME, via equivalent query
rewriting of UC2RPQ queries using CQ views.  The benchmark sweeps the
goal's path-language complexity (star depth, alternatives) and the view
vocabulary, measuring the rewriting pipeline and verifying the synthesized
mediator's answers against the goal on random graph databases.
"""

import random

import pytest

from repro.automata.regex import parse_regex
from repro.automata.rpq import GraphDatabase, RPQ
from repro.logic.rewriting import View, certain_answers
from repro.mediator.rpq_composition import (
    chain_view,
    compose_uc2rpq,
    evaluate_over_views,
)


def _random_graph(seed: int, labels=("a", "b"), nodes=7, edges=14):
    rng = random.Random(seed)
    pool = list(range(nodes))
    out = {label: set() for label in labels}
    for _ in range(edges):
        out[rng.choice(labels)].add((rng.choice(pool), rng.choice(pool)))
    return GraphDatabase(out)


GOALS = {
    "linear": ("a b", {"P": ["a", "b"]}),
    "star": ("(a b)* a", {"P": ["a", "b"], "Q": ["a"]}),
    "union": ("a a | b b | a b", {"AA": ["a", "a"], "BB": ["b", "b"], "AB": ["a", "b"]}),
    "two_way": ("a b^ (a b^)*", {"V": ["a", "b^"]}),
}


@pytest.mark.parametrize("shape", sorted(GOALS))
def test_t2_9_rewriting_pipeline(benchmark, shape, one_shot):
    """Full synthesis per goal shape, mediator verified on random graphs."""
    regex, views = GOALS[shape]
    goal = RPQ(parse_regex(regex), shape)

    result = one_shot(lambda: compose_uc2rpq(goal, views))
    assert result.is_yes
    benchmark.extra_info["shape"] = shape
    for seed in range(3):
        graph = _random_graph(seed)
        assert goal.evaluate(graph) == evaluate_over_views(
            result.witness, graph, views
        )


def test_t2_9_negative_case(benchmark):
    """Odd-length paths cannot be stitched from even-length views."""
    goal = RPQ(parse_regex("a+"), "aplus")

    result = benchmark(lambda: compose_uc2rpq(goal, {"AA": ["a", "a"]}))
    assert result.is_no


@pytest.mark.parametrize("chain_length", [2, 3, 4])
def test_t2_9_certain_answers_baseline(benchmark, chain_length, one_shot):
    """The maximally-contained half: Duschka–Genesereth inverse rules."""
    from repro.data.relation import Relation
    from repro.data.schema import RelationSchema
    from repro.logic.cq import Atom, ConjunctiveQuery
    from repro.logic.terms import var
    from repro.logic.ucq import UnionQuery

    graph = _random_graph(11)
    word = (["a", "b"] * chain_length)[:chain_length]
    view_cq = chain_view("V", word)
    view = View(view_cq)
    extension = Relation(
        RelationSchema("V", ("s", "t")),
        view_cq.evaluate(graph.as_relations()),
    )
    # The base-relation query spells two view words back to back; its
    # certain answers over the view extension are the V-joins.
    query = UnionQuery.of(chain_view("Q", word + word))

    answers = one_shot(
        lambda: certain_answers(query, [view], {"V": extension})
    )
    benchmark.extra_info["chain_length"] = chain_length
    benchmark.extra_info["answers"] = len(answers)
    # Soundness: every certain answer really is a two-step V-join.
    joins = {
        (s1, t2)
        for (s1, t1) in extension.rows
        for (s2, t2) in extension.rows
        if t1 == s2
    }
    assert answers <= joins
