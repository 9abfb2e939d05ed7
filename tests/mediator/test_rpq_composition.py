"""Tests for the UC2RPQ composition case (Corollary 5.2)."""

import random

import pytest

from repro.automata.regex import parse_regex
from repro.automata.rpq import GraphDatabase, RPQ
from repro.errors import AnalysisError
from repro.mediator.rpq_composition import (
    chain_view,
    compose_uc2rpq,
    evaluate_over_views,
    view_graph,
)


def _random_graph(seed: int, labels=("a", "b"), nodes=6, edges=12):
    rng = random.Random(seed)
    pool = list(range(nodes))
    out = {label: set() for label in labels}
    for _ in range(edges):
        out[rng.choice(labels)].add((rng.choice(pool), rng.choice(pool)))
    return GraphDatabase(out)


class TestChainView:
    def test_forward_chain(self):
        view = chain_view("V", ["a", "b"])
        assert len(view.atoms) == 2
        assert view.arity == 2

    def test_inverse_chain_flips(self):
        view = chain_view("V", ["a^"])
        atom = view.atoms[0]
        assert atom.relation == "a"
        assert atom.terms[0].name == "x1"  # flipped

    def test_empty_rejected(self):
        with pytest.raises(AnalysisError):
            chain_view("V", [])

    def test_view_extension(self):
        graph = GraphDatabase({"a": {(1, 2)}, "b": {(2, 3)}})
        vg = view_graph(graph, {"V": ["a", "b"]})
        assert vg.edges("V") == {(1, 3)}


class TestCompose:
    def test_star_goal(self):
        goal = RPQ(parse_regex("(a b)* a"), "goal")
        views = {"P": ["a", "b"], "Q": ["a"]}
        result = compose_uc2rpq(goal, views)
        assert result.is_yes
        for seed in range(4):
            graph = _random_graph(seed)
            assert goal.evaluate(graph) == evaluate_over_views(
                result.witness, graph, views
            )

    def test_union_goal(self):
        goal = RPQ(parse_regex("a a | b"), "goal")
        views = {"AA": ["a", "a"], "B": ["b"]}
        result = compose_uc2rpq(goal, views)
        assert result.is_yes
        graph = _random_graph(7)
        assert goal.evaluate(graph) == evaluate_over_views(
            result.witness, graph, views
        )

    def test_inverse_labels(self):
        goal = RPQ(parse_regex("a b^"), "goal")
        views = {"V": ["a", "b^"]}
        result = compose_uc2rpq(goal, views)
        assert result.is_yes
        graph = GraphDatabase({"a": {(1, 2), (5, 2)}, "b": {(3, 2), (4, 2)}})
        assert goal.evaluate(graph) == evaluate_over_views(
            result.witness, graph, views
        )

    def test_impossible(self):
        goal = RPQ(parse_regex("a"), "goal")
        result = compose_uc2rpq(goal, {"P": ["a", "b"]})
        assert result.is_no
        assert result.witness == ["a"]  # the goal path no view covers

    def test_partial_cover_insufficient(self):
        # a+ cannot be built from pairs only (odd lengths missing).
        goal = RPQ(parse_regex("a+"), "goal")
        result = compose_uc2rpq(goal, {"AA": ["a", "a"]})
        assert result.is_no
        # Adding the single step fixes it.
        result2 = compose_uc2rpq(goal, {"AA": ["a", "a"], "A": ["a"]})
        assert result2.is_yes
