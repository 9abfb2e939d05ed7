"""Tests for the non-emptiness procedures (Table 1, column 1)."""

import itertools

import pytest

from repro.analysis.nonemptiness import (
    nonempty,
    nonempty_cq,
    nonempty_cq_nr,
    nonempty_fo_bounded,
    nonempty_pl,
    nonempty_pl_nr_sat,
)
from repro.core.run import run_pl, run_relational
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.errors import AnalysisError
from repro.guard import Budget
from repro.logic import pl
from repro.workloads.random_sws import random_cq_sws, random_pl_sws
from repro.workloads.scaling import cq_chain_sws, cq_diamond_sws, pl_counter_sws
from repro.workloads.travel import sample_database, booking_request, travel_service


def _brute_force_pl(sws, max_length=4):
    variables = sorted(sws.input_variables())
    alphabet = [
        frozenset(c)
        for r in range(len(variables) + 1)
        for c in itertools.combinations(variables, r)
    ]
    for n in range(max_length + 1):
        for word in itertools.product(alphabet, repeat=n):
            if run_pl(sws, list(word)).output:
                return True
    return False


class TestPL:
    @pytest.mark.parametrize("seed", range(15))
    def test_agreement_afa_vs_sat_vs_brute(self, seed):
        sws = random_pl_sws(seed, n_states=4, n_variables=2, recursive=False)
        via_afa = nonempty_pl(sws)
        via_sat = nonempty_pl_nr_sat(sws)
        brute = _brute_force_pl(sws)
        assert via_afa.is_yes == via_sat.is_yes == brute

    def test_witnesses_replay(self):
        for seed in range(10):
            sws = random_pl_sws(seed, n_states=4, n_variables=2)
            answer = nonempty_pl(sws)
            if answer.is_yes:
                assert run_pl(sws, answer.witness).output

    def test_counter_shortest_witness(self):
        for bits in (1, 2, 3):
            answer = nonempty_pl(pl_counter_sws(bits))
            assert answer.is_yes
            assert len(answer.witness) == 2**bits

    def test_empty_service(self):
        sws = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {"q0": SynthesisRule(pl.FALSE)},
            kind=SWSKind.PL,
        )
        assert nonempty_pl(sws).is_no
        assert nonempty_pl_nr_sat(sws).is_no

    def test_sat_rejects_recursive(self):
        with pytest.raises(AnalysisError):
            nonempty_pl_nr_sat(pl_counter_sws(2))


class TestCQ:
    @pytest.mark.parametrize("seed", range(10))
    def test_nonrecursive_witness_verified(self, seed):
        sws = random_cq_sws(seed, n_states=4, recursive=False)
        answer = nonempty_cq_nr(sws)
        if answer.is_yes:
            db, inputs = answer.witness
            assert run_relational(sws, db, inputs).output

    def test_diamond_nonempty(self):
        answer = nonempty_cq_nr(cq_diamond_sws(2))
        assert answer.is_yes

    def test_recursive_chain(self):
        answer = nonempty_cq(cq_chain_sws(0), max_session_length=4)
        assert answer.is_yes
        db, inputs = answer.witness
        assert run_relational(cq_chain_sws(0), db, inputs).output

    def test_unsatisfiable_service(self):
        from repro.logic.cq import Atom, ConjunctiveQuery, neq
        from repro.logic.terms import var
        from repro.logic.ucq import UnionQuery
        from repro.workloads.random_sws import DEFAULT_CQ_SCHEMA, DEFAULT_PAYLOAD

        x = var("x")
        impossible = UnionQuery.of(
            ConjunctiveQuery((x, x), [Atom("In", (x, x))], [neq(x, x)])
        )
        sws = SWS(
            ("q0",),
            "q0",
            {"q0": TransitionRule()},
            {"q0": SynthesisRule(impossible)},
            kind=SWSKind.RELATIONAL,
            db_schema=DEFAULT_CQ_SCHEMA,
            input_schema=DEFAULT_PAYLOAD,
            output_arity=2,
        )
        assert nonempty_cq_nr(sws).is_no

    def test_budget_exhaustion_is_unknown(self):
        # The chain needs n >= 2; a budget of 1 cannot find it.
        answer = nonempty_cq(cq_chain_sws(0), max_session_length=1)
        assert answer.is_unknown


class TestFO:
    def test_hint_verification(self):
        t1 = travel_service()
        answer = nonempty_fo_bounded(
            t1, hints=[(sample_database(), booking_request())], max_runs=10
        )
        assert answer.is_yes
        assert answer.detail == "hint verified"

    def test_small_search_finds_simple_witness(self):
        from repro.logic import fo
        from repro.logic.terms import var
        from repro.data.schema import DatabaseSchema, RelationSchema
        from repro.reductions.fo_sat_to_sws import fo_sat_to_sws

        x = var("x")
        sentence = fo.Exists((x,), fo.atom("R", x, x))
        schema = DatabaseSchema([RelationSchema("R", ("a", "b"))])
        sws = fo_sat_to_sws(sentence, schema)
        answer = nonempty_fo_bounded(sws, max_domain=1, max_session_length=0)
        assert answer.is_yes

    def test_budget_respected(self):
        # The run bound belongs to the question: UNKNOWN without a trip.
        t1 = travel_service()
        answer = nonempty_fo_bounded(t1, max_runs=5, max_session_length=1)
        assert answer.is_unknown and answer.trip is None
        assert "run bound reached after 5 runs" in answer.detail
        # A guard's step budget counts one step per run and trips.
        tripped = nonempty_fo_bounded(
            t1, max_session_length=1, guard=Budget(step_budget=5)
        )
        assert tripped.is_unknown and tripped.trip.limit == "steps"
        assert "budget" in tripped.detail


class TestDispatch:
    def test_routes_by_class(self):
        assert nonempty(pl_counter_sws(1)).is_yes
        assert nonempty(cq_diamond_sws(1)).is_yes
        assert nonempty(cq_chain_sws(0), max_session_length=4).is_yes


class TestSmallDatabases:
    def _keys(self, sws, domain=("a", "b"), max_rows=1):
        from repro.analysis.nonemptiness import _small_databases

        keys = []
        for db in _small_databases(sws, domain, max_rows):
            keys.append(
                tuple(sorted((name, frozenset(db[name].rows)) for name in db))
            )
        return keys

    def test_enumeration_has_no_duplicates(self):
        sws = travel_service()
        keys = self._keys(sws)
        assert len(keys) == len(set(keys))

    def test_no_duplicates_when_full_database_is_small(self):
        # With max_rows covering every tuple, the subset product regenerates
        # both the empty and the full database; neither may repeat.
        sws = random_cq_sws(3, n_states=3, recursive=False)
        keys = self._keys(sws, domain=("a",), max_rows=4)
        assert len(keys) == len(set(keys))

    def test_empty_and_full_still_come_first(self):
        sws = random_cq_sws(3, n_states=3, recursive=False)
        keys = self._keys(sws, domain=("a", "b"), max_rows=1)
        assert all(not rows for _name, rows in keys[0])
        assert any(rows for _name, rows in keys[1])
