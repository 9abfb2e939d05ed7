"""Tests for the FO service generator and FO-class analysis dispatch."""

import pytest

from repro.analysis import equivalent, nonempty
from repro.core.classes import SWSClass, classify
from repro.core.run import run_relational
from repro.data.generators import InstanceGenerator
from repro.workloads.random_sws import random_fo_sws


class TestGenerator:
    def test_deterministic(self):
        a, b = random_fo_sws(3), random_fo_sws(3)
        assert a.states == b.states
        assert a.dependency_edges() == b.dependency_edges()

    @pytest.mark.parametrize("seed", range(8))
    def test_classified_fo(self, seed):
        sws = random_fo_sws(seed)
        assert classify(sws) in (SWSClass.FO_FO, SWSClass.FO_FO_NR)

    @pytest.mark.parametrize("seed", range(6))
    def test_runnable(self, seed):
        gen = InstanceGenerator(seed=seed, domain_size=3)
        sws = random_fo_sws(seed, recursive=(seed % 2 == 0))
        db = gen.database(sws.db_schema, 3)
        inputs = gen.input_sequence(sws.input_schema, 2, 2)
        run_relational(sws, db, inputs)

    def test_negation_matters(self):
        """At least one generated service is genuinely non-monotone."""
        gen = InstanceGenerator(seed=9, domain_size=3)
        non_monotone_seen = False
        for seed in range(12):
            sws = random_fo_sws(seed, n_states=3)
            # The generated guards test the *absence* of S-facts, so start
            # from an instance where S is empty and then populate it.
            db_small = gen.database(sws.db_schema, 3).with_relation("S", [])
            inputs = gen.input_sequence(sws.input_schema, 2, 2)
            db_big = db_small.insert("S", [(0, 1), (1, 2)])
            out_small = run_relational(sws, db_small, inputs).output.rows
            out_big = run_relational(sws, db_big, inputs).output.rows
            if not out_small <= out_big:
                non_monotone_seen = True
                break
        assert non_monotone_seen


class TestAnalysisDispatch:
    def test_nonempty_routes_to_bounded(self):
        sws = random_fo_sws(0, n_states=3, recursive=False)
        answer = nonempty(sws, max_domain=2, max_rows=1, max_session_length=1, max_runs=300)
        # Sound either way; just must not crash and must be three-valued.
        assert answer.verdict is not None

    def test_equivalent_routes_to_bounded(self):
        sws = random_fo_sws(1, n_states=3, recursive=False)
        answer = equivalent(sws, sws, max_runs=200)
        assert not answer.is_no
