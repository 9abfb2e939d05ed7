"""Tests for MDT_b(PL) bounded-mediator synthesis (Theorem 5.3(3))."""

import pytest

from repro.analysis.stats import stats_delta
from repro.mediator.bounded import compose_mdtb_pl
from repro.mediator.mediator import Mediator
from repro.workloads.pl_services import HASH, union_word_service, word_service

ALPHA = ["a", "b"]


@pytest.fixture
def components():
    return {
        "X": word_service(["a", HASH], ALPHA, "X"),
        "Y": word_service(["b", HASH], ALPHA, "Y"),
    }


class TestSynthesis:
    def test_chain_goal(self, components):
        goal = union_word_service([["a", HASH, "b", HASH]], ALPHA)
        result = compose_mdtb_pl(goal, components, invocation_bound=1)
        assert result.is_yes
        assert isinstance(result.witness, Mediator)

    def test_disjunctive_goal(self, components):
        goal = union_word_service([["a", HASH], ["b", HASH]], ALPHA)
        result = compose_mdtb_pl(goal, components, invocation_bound=1)
        assert result.is_yes

    def test_conjunction_needs_synthesis_pool(self, components):
        # L(X·sessions) AND-combined is not a word language; the or-goal
        # covers the pool's disjunction member instead.
        goal = union_word_service(
            [["a", HASH, "a", HASH], ["b", HASH]], ALPHA
        )
        result = compose_mdtb_pl(goal, components, invocation_bound=2)
        assert result.is_yes

    def test_absence_reported(self, components):
        goal = union_word_service([["a", "b", HASH]], ALPHA)
        with stats_delta() as work:
            result = compose_mdtb_pl(goal, components, invocation_bound=2)
        assert result.is_no
        assert work["mediator_candidates"] > 0

    def test_invocation_bound_limits_search(self, components):
        goal = union_word_service(
            [["a", HASH, "a", HASH, "a", HASH]], ALPHA
        )
        tight = compose_mdtb_pl(goal, components, invocation_bound=1)
        loose = compose_mdtb_pl(goal, components, invocation_bound=3)
        assert tight.is_no  # needs X three times
        assert loose.is_yes

    def test_recursive_goal_supported(self, components):
        # The language-level check handles recursive goals (EXPSPACE case):
        # a goal looping on X-sessions has no bounded mediator.
        from repro.workloads.scaling import pl_counter_sws

        goal = pl_counter_sws(1)
        result = compose_mdtb_pl(goal, components, invocation_bound=1)
        assert result.is_no
