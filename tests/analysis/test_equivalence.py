"""Tests for the equivalence procedures (Table 1, column 3)."""

import pytest

from repro.analysis.equivalence import (
    equivalent,
    equivalent_cq,
    equivalent_cq_nr,
    equivalent_fo_bounded,
    equivalent_pl,
)
from repro.core.run import run_pl
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.errors import AnalysisError
from repro.logic import pl
from repro.workloads.random_sws import random_cq_sws, random_pl_sws
from repro.workloads.scaling import cq_chain_sws, cq_diamond_sws, pl_counter_sws
from repro.workloads.travel import recursive_airfare_service, travel_service


def _perturb_pl(sws):
    """Flip one final state's synthesis formula."""
    synthesis = dict(sws.synthesis)
    for state, rule in sws.transitions.items():
        if rule.is_final:
            assert isinstance(sws.synthesis[state].query, pl.Formula)
            synthesis[state] = SynthesisRule(pl.Not(sws.synthesis[state].query))
            break
    return SWS(
        sws.states,
        sws.start,
        sws.transitions,
        synthesis,
        kind=SWSKind.PL,
        name=sws.name + "_flip",
    )


class TestPL:
    @pytest.mark.parametrize("seed", range(10))
    def test_reflexive(self, seed):
        sws = random_pl_sws(seed, n_states=4, n_variables=2)
        assert equivalent_pl(sws, sws).is_yes

    def test_distinguishing_witness_replays(self):
        for seed in range(8):
            sws = random_pl_sws(seed, n_states=4, n_variables=2, recursive=False)
            flipped = _perturb_pl(sws)
            answer = equivalent_pl(sws, flipped)
            if answer.is_no:
                word = answer.witness
                assert run_pl(sws, word).output != run_pl(flipped, word).output

    def test_counters_of_different_period_differ(self):
        answer = equivalent_pl(pl_counter_sws(1), pl_counter_sws(2))
        assert answer.is_no
        assert len(answer.witness) == 2  # accepted by period-2, not period-4

    def test_syntax_differs_semantics_same(self):
        def service(formula):
            return SWS(
                ("q0",),
                "q0",
                {"q0": TransitionRule()},
                {"q0": SynthesisRule(formula)},
                kind=SWSKind.PL,
            )

        a = service(pl.parse("x -> y"))
        b = service(pl.parse("!x | y"))
        assert equivalent_pl(a, b).is_yes


class TestCQNonrecursive:
    def test_reflexive(self):
        d = cq_diamond_sws(2)
        assert equivalent_cq_nr(d, d).is_yes

    def test_different_depths_differ(self):
        answer = equivalent_cq_nr(cq_diamond_sws(1), cq_diamond_sws(2))
        assert answer.is_no

    def test_branch_order_irrelevant(self):
        # Swapping the two (symmetric) successor queries preserves the
        # service's semantics.
        sws = cq_diamond_sws(2)
        swapped_transitions = {}
        for state, rule in sws.transitions.items():
            if len(rule.targets) == 2:
                swapped_transitions[state] = TransitionRule(
                    [rule.targets[1], rule.targets[0]]
                )
            else:
                swapped_transitions[state] = rule
        swapped = SWS(
            sws.states,
            sws.start,
            swapped_transitions,
            sws.synthesis,
            kind=SWSKind.RELATIONAL,
            db_schema=sws.db_schema,
            input_schema=sws.input_schema,
            output_arity=sws.output_arity,
            name="swapped",
        )
        assert equivalent_cq_nr(sws, swapped).is_yes

    @pytest.mark.parametrize("seed", range(5))
    def test_random_reflexive(self, seed):
        sws = random_cq_sws(seed, n_states=3, recursive=False)
        assert equivalent_cq_nr(sws, sws).is_yes


class TestCQRecursive:
    def test_reflexive_is_unknown_not_no(self):
        chain = cq_chain_sws(0)
        answer = equivalent_cq(chain, chain, max_session_length=3)
        assert not answer.is_no

    def test_chain_vs_diamond(self):
        answer = equivalent_cq(
            cq_chain_sws(0), cq_diamond_sws(1), max_session_length=3
        )
        assert answer.is_no


class TestFO:
    def test_travel_vs_itself_no_disagreement(self):
        t1 = travel_service()
        answer = equivalent_fo_bounded(
            t1, t1, max_domain=1, max_rows=1, max_session_length=1, max_runs=500
        )
        assert not answer.is_no

    @pytest.mark.slow
    def test_travel_vs_recursive_variant(self):
        # τ1 and τ2 behave differently (τ2 needs the inquiry chain).
        answer = equivalent_fo_bounded(
            travel_service(),
            recursive_airfare_service(),
            max_domain=1,
            max_rows=1,
            max_session_length=1,
            max_runs=100_000,
        )
        # The bounded search may or may not find the disagreement within
        # its run bound, but it must never claim YES.
        assert not answer.is_yes


class TestDispatchAndGuards:
    def test_kind_mismatch(self):
        with pytest.raises(AnalysisError):
            equivalent(pl_counter_sws(1), cq_diamond_sws(1))

    def test_routing_pl(self):
        sws = random_pl_sws(0)
        assert equivalent(sws, sws).is_yes

    def test_routing_cq(self):
        d = cq_diamond_sws(1)
        assert equivalent(d, d).is_yes
