"""Experiments T2.1–T2.5 — Table 2, the undecidable composition rows.

Paper results (Theorem 5.1(1,2)): composition synthesis is undecidable for
FO goals/components/mediators (even all nonrecursive — from FO
satisfiability) and for CQ/UCQ classes as soon as recursion is present on
either the mediator or the component side (from SWS(CQ, UCQ) equivalence).

Nothing terminating decides these rows, so the benchmark measures the
*sound bounded searches* that stand in for them:

* the bounded FO equivalence search that underlies the FO undecidability
  (composition reduces to equivalence of candidate mediators with the
  goal) — cost explodes with the instance bounds and honest UNKNOWNs
  appear;
* the bounded expansion-equivalence of recursive CQ services — the
  undecidable equivalence problem the CQ rows reduce from — at growing
  session horizons.
"""

import pytest

from repro.analysis import equivalent_cq, equivalent_fo_bounded
from repro.workloads.scaling import cq_chain_sws
from repro.workloads.travel import recursive_airfare_service, travel_service


@pytest.mark.parametrize("max_rows", [0, 1])
def test_t2_1_bounded_fo_equivalence(benchmark, max_rows, one_shot):
    """The FO substrate of rows T2.1–T2.2: bounded equivalence search."""
    goal = travel_service()

    answer = one_shot(
        lambda: equivalent_fo_bounded(
            goal,
            goal,
            max_domain=1,
            max_rows=max_rows,
            max_session_length=1,
            max_runs=3000,
        )
    )
    # Reflexive comparison: never NO; bounded search reports UNKNOWN.
    assert not answer.is_no
    benchmark.extra_info["max_rows"] = max_rows


def test_t2_1_fo_difference_detected(benchmark):
    """When a difference exists within bounds, the search finds it (exact NO)."""
    goal = travel_service()
    other = recursive_airfare_service()

    answer = benchmark.pedantic(
        lambda: equivalent_fo_bounded(
            goal,
            other,
            max_domain=1,
            max_rows=1,
            max_session_length=1,
            max_runs=200_000,
        ),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    # τ1 and τ2 differ; if the witness lies within bounds the verdict is
    # NO, otherwise UNKNOWN — never a wrong YES.
    assert not answer.is_yes
    benchmark.extra_info["verdict"] = answer.verdict.value


@pytest.mark.parametrize("horizon", [2, 3, 4])
def test_t2_3_bounded_cq_equivalence(benchmark, horizon, one_shot):
    """The CQ substrate of rows T2.3–T2.5: expansion equivalence under a
    session-length budget — the cost grows with the horizon."""
    chain = cq_chain_sws(0)

    answer = one_shot(
        lambda: equivalent_cq(chain, chain, max_session_length=horizon)
    )
    assert not answer.is_no
    benchmark.extra_info["horizon"] = horizon
