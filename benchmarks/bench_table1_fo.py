"""Experiment T1.1 — Table 1, row SWS_nr(FO, FO).

Paper bound: non-emptiness, validation and equivalence are all
*undecidable* (reduction from FO satisfiability).  Nothing terminating can
decide these cells; the reproduction therefore measures the *bounded*
procedures and the reduction substrate:

* the bounded-model FO satisfiability search (MACE-style grounding to SAT)
  whose cost explodes with the domain bound — the practical face of the
  undecidability;
* the run-enumeration non-emptiness search, with explicit run bounds
  (``max_runs``) and UNKNOWN verdicts;
* certificate checking (hints), which stays cheap — verifying is decidable
  even though finding is not.
"""

import pytest

from repro.analysis import nonempty_fo_bounded
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.logic import fo
from repro.logic.terms import var
from repro.reductions.fo_sat_to_sws import fo_sat_to_sws
from repro.workloads import travel

x, y, z = var("x"), var("y"), var("z")
SCHEMA = DatabaseSchema([RelationSchema("R", ("a", "b"))])


def _needs_n_elements(n: int) -> fo.FOFormula:
    """A sentence whose smallest model has exactly n elements."""
    variables = [var(f"v{i}") for i in range(n)]
    distinct = [
        fo.NotF(fo.Equals(variables[i], variables[j]))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    chained = [
        fo.atom("R", variables[i], variables[i + 1]) for i in range(n - 1)
    ]
    return fo.Exists(tuple(variables), fo.AndF(distinct + chained))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_t1_1_bounded_model_search(benchmark, n, one_shot):
    """Grounding-to-SAT model search: cost grows with the model size."""
    sentence = _needs_n_elements(n)

    found, size = one_shot(
        lambda: fo.bounded_satisfiable(sentence, max_domain_size=n)
    )
    assert found and size == n
    benchmark.extra_info["model_size"] = n


@pytest.mark.parametrize("max_runs", [200, 2000])
def test_t1_1_bounded_nonemptiness_unknown(benchmark, max_runs, one_shot):
    """The blind bounded search on τ1: honest UNKNOWN within the run bound."""
    service = travel.travel_service()

    answer = one_shot(
        lambda: nonempty_fo_bounded(
            service, max_runs=max_runs, max_session_length=1
        )
    )
    assert answer.is_unknown
    benchmark.extra_info["max_runs"] = max_runs


def test_t1_1_certificate_checking(benchmark):
    """Verifying a supplied witness is a single run — always cheap."""
    service = travel.travel_service()
    hint = (travel.sample_database(), travel.booking_request())

    answer = benchmark(
        lambda: nonempty_fo_bounded(service, hints=[hint], max_runs=1)
    )
    assert answer.is_yes


@pytest.mark.parametrize("n", [2, 3])
def test_t1_1_reduction_roundtrip(benchmark, n, one_shot):
    """FO-sat reduction: the service procedure tracks the model finder."""
    sentence = _needs_n_elements(n)
    service = fo_sat_to_sws(sentence, SCHEMA)

    answer = one_shot(
        lambda: nonempty_fo_bounded(
            service, max_domain=n, max_rows=n, max_session_length=0
        )
    )
    assert answer.is_yes
    benchmark.extra_info["model_size"] = n
