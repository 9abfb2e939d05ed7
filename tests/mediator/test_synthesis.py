"""Tests for PL composition synthesis (Theorems 5.1(4,5), 5.3(1,2))."""

import pytest

from repro.analysis.stats import stats_delta
from repro.automata.regular_rewriting import rewrite
from repro.core.pl_semantics import joint_variables
from repro.mediator.mediator import mediator_equivalent_to_sws_pl, run_mediator_pl
from repro.mediator.synthesis import (
    compose_pl_prefix,
    compose_pl_regular,
    kprefix_bound,
    mediator_from_rewriting_nfa,
    sws_language_nfa,
)
from repro.workloads.pl_services import HASH, encode_letters, union_word_service, word_service

ALPHA = ["a", "b"]


@pytest.fixture
def components():
    return {
        "X": word_service(["a", HASH], ALPHA, "X"),
        "Y": word_service(["b", HASH], ALPHA, "Y"),
    }


class TestKPrefixBound:
    def test_bound_dominates_depths(self, components):
        goal = union_word_service([["a", HASH, "b", HASH]], ALPHA)
        bound = kprefix_bound(goal, components)
        assert bound >= goal.depth() + 1

    def test_recursive_component_rejected(self):
        from repro.workloads.scaling import pl_counter_sws
        from repro.errors import AnalysisError

        goal = union_word_service([["a", HASH]], ALPHA)
        with pytest.raises(AnalysisError):
            kprefix_bound(goal, {"C": pl_counter_sws(1)})


class TestRegularComposition:
    def test_sequential_goal(self, components):
        goal = union_word_service([["a", HASH, "b", HASH]], ALPHA, "seq")
        result = compose_pl_regular(goal, components)
        assert result.is_yes
        variables = sorted(joint_variables(goal, *components.values()))
        ok, witness = mediator_equivalent_to_sws_pl(
            result.witness, goal, 4, variables
        )
        assert ok, witness

    def test_answers_compare_equal(self, components):
        # The a#b# goal of test_sequential_goal: the two YES answers carry
        # distinct but structurally equal mediators.
        goal = union_word_service([["a", HASH, "b", HASH]], ALPHA, "seq")
        first, second = compose_pl_regular(goal, components), compose_pl_regular(goal, components)
        assert first.is_yes and first.witness is not second.witness
        assert first == second

    def test_choice_goal(self, components):
        goal = union_word_service(
            [["a", HASH, "b", HASH], ["b", HASH, "a", HASH]], ALPHA, "choice"
        )
        result = compose_pl_regular(goal, components)
        assert result.is_yes
        mediator = result.witness
        assert run_mediator_pl(
            mediator, encode_letters(["a", HASH, "b", HASH])
        ).output
        assert run_mediator_pl(
            mediator, encode_letters(["b", HASH, "a", HASH])
        ).output
        assert not run_mediator_pl(
            mediator, encode_letters(["a", HASH, "a", HASH])
        ).output

    def test_impossible_goal(self, components):
        # A session of two raw letters before the delimiter cannot be
        # stitched from single-letter sessions.
        goal = union_word_service([["a", "b", HASH]], ALPHA, "nope")
        result = compose_pl_regular(goal, components)
        assert result.is_no
        assert result.witness  # the uncoverable goal word

    def test_repeated_component(self, components):
        goal = union_word_service([["a", HASH, "a", HASH]], ALPHA, "twice")
        result = compose_pl_regular(goal, components)
        assert result.is_yes
        assert run_mediator_pl(
            result.witness, encode_letters(["a", HASH, "a", HASH])
        ).output

    def test_rewriting_evidence_attached(self, components):
        # The rewriting an answer rests on is the public rewrite(...) of
        # the session cores; a YES's mediator is built from it.
        goal = union_word_service([["a", HASH]], ALPHA)
        result = compose_pl_regular(goal, components)
        variables = joint_variables(goal, *components.values())
        rewriting = rewrite(
            sws_language_nfa(goal, variables).prefix_free_restriction(),
            {n: sws_language_nfa(c, variables) for n, c in components.items()},
            run_to_completion=True,
        )
        assert rewriting.exact == result.is_yes
        mediator = mediator_from_rewriting_nfa(rewriting.maximal, components)
        assert mediator.states == result.witness.states


class TestPrefixComposition:
    def test_finds_chain(self, components):
        goal = union_word_service([["a", HASH, "b", HASH]], ALPHA)
        result = compose_pl_prefix(goal, components, max_chain_length=2)
        assert result.is_yes
        variables = sorted(joint_variables(goal, *components.values()))
        ok, _ = mediator_equivalent_to_sws_pl(result.witness, goal, 4, variables)
        assert ok

    def test_finds_union(self, components):
        goal = union_word_service([["a", HASH], ["b", HASH]], ALPHA)
        result = compose_pl_prefix(
            goal, components, max_chain_length=1, max_branches=2
        )
        assert result.is_yes

    def test_counts_mediator_candidates(self, components):
        goal = union_word_service([["a", HASH], ["b", HASH]], ALPHA)
        with stats_delta() as work:
            result = compose_pl_prefix(
                goal, components, max_chain_length=1, max_branches=2
            )
        assert result.is_yes
        assert work["mediator_candidates"] > 0

    def test_reports_absence(self, components):
        goal = union_word_service([["a", "a", HASH]], ALPHA)
        result = compose_pl_prefix(goal, components, max_chain_length=2)
        assert result.is_no


class TestRecursiveComponents:
    """Theorem 5.3's component column is SWS(PL, PL) — recursion allowed."""

    def _plus_then_b_goal(self):
        """The goal language a+ # b # as a recursive SWS."""
        from repro.core import pl_sws
        from repro.workloads.pl_services import exactly

        ga = str(exactly("a", ALPHA))
        gb = str(exactly("b", ALPHA))
        ge = str(exactly(HASH, ALPHA))
        return (
            pl_sws("a_plus_b")
            .transition("s0", ("loop", ga), ("d1", ga))
            .synthesize("s0", "A1 | A2")
            .transition("loop", ("loop", f"Msg & ({ga})"), ("d1", f"Msg & ({ga})"))
            .synthesize("loop", "A1 | A2")
            .transition("d1", ("d2", f"Msg & ({ge})"))
            .synthesize("d1", "A1")
            .transition("d2", ("end", f"Msg & ({gb})"))
            .synthesize("d2", "A1")
            .final("end")
            .synthesize("end", f"Msg & ({ge})")
            .build()
        )

    def test_goal_language(self):
        from repro.core.run import run_pl
        from repro.workloads.pl_services import encode_letters

        goal = self._plus_then_b_goal()
        assert goal.is_recursive()
        for word, expected in [
            (["a", HASH, "b", HASH], True),
            (["a", "a", HASH, "b", HASH], True),
            (["a", "a", "a", HASH, "b", HASH], True),
            ([HASH, "b", HASH], False),
            (["a", HASH, "a", HASH], False),
            (["a", HASH, "b"], False),
        ]:
            assert run_pl(goal, encode_letters(word)).output == expected, word

    def test_composition_with_recursive_component(self):
        from repro.workloads.pl_services import star_word_service

        goal = self._plus_then_b_goal()
        components = {
            "Astar": star_word_service("a", ALPHA),
            "B": word_service(["b", HASH], ALPHA, "B"),
        }
        result = compose_pl_regular(goal, components)
        assert result.is_yes
        # The mediator chains the recursive component and then B.
        assert set(result.witness.components) == {"Astar", "B"}

    def test_recursive_component_insufficient_alone(self):
        goal = self._plus_then_b_goal()
        from repro.workloads.pl_services import star_word_service

        result = compose_pl_regular(goal, {"Astar": star_word_service("a", ALPHA)})
        assert result.is_no
