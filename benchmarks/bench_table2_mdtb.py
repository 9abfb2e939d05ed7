"""Experiments T2.13–T2.14 — Table 2, the MDT_b(PL) rows.

Paper bounds: CP(SWS(PL,PL), MDT_b(PL), SWS(PL,PL)) in EXPSPACE;
PSPACE-complete with nonrecursive components.  The small-model property
makes enumeration-plus-equivalence a decision procedure; the benchmark
sweeps the invocation bound (the candidate space grows exponentially in
it) and compares nonrecursive against recursive goals.
"""

import pytest

from repro.analysis.stats import stats_delta
from repro.mediator.bounded import compose_mdtb_pl
from repro.workloads.pl_services import HASH, union_word_service, word_service
from repro.workloads.scaling import pl_counter_sws

ALPHA = ["a", "b"]


def _components():
    return {
        "X": word_service(["a", HASH], ALPHA, "X"),
        "Y": word_service(["b", HASH], ALPHA, "Y"),
    }


def _counted(*args, **kwargs):
    """One synthesis and the ``mediator_candidates`` it tried."""
    with stats_delta() as work:
        answer = compose_mdtb_pl(*args, **kwargs)
    return answer, work["mediator_candidates"]


@pytest.mark.parametrize("bound", [1, 2, 3])
def test_t2_13_invocation_bound_sweep(benchmark, bound, one_shot):
    """Candidate space grows exponentially with the invocation bound."""
    components = _components()
    sessions = [["a", HASH] * 1, ["b", HASH]]
    goal = union_word_service(
        [[s for pair in sessions for s in pair]], ALPHA, "fixed"
    )

    result, candidates = one_shot(
        lambda: _counted(goal, components, invocation_bound=bound)
    )
    benchmark.extra_info["invocation_bound"] = bound
    benchmark.extra_info["candidates"] = candidates
    assert result.is_yes  # a#b# is reachable at every tested bound


@pytest.mark.parametrize("sessions", [2, 3])
def test_t2_14_nonrecursive_components(benchmark, sessions, one_shot):
    """The PSPACE case: everything nonrecursive, goal chains sessions."""
    components = _components()
    chain = []
    for i in range(sessions):
        chain.extend([ALPHA[i % 2], HASH])
    goal = union_word_service([chain], ALPHA, "chain")

    result, candidates = one_shot(
        lambda: _counted(goal, components, invocation_bound=sessions)
    )
    assert result.is_yes
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["candidates"] = candidates


def test_t2_13_recursive_goal(benchmark):
    """The EXPSPACE case admits recursive goals; here: provably no match."""
    result = benchmark.pedantic(
        lambda: compose_mdtb_pl(
            pl_counter_sws(1), _components(), invocation_bound=1
        ),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.is_no


def test_t2_13_negative_exhausts_candidates(benchmark):
    """A non-composable goal forces the full candidate sweep."""
    components = _components()
    goal = union_word_service([["a", "b", HASH]], ALPHA, "fused")

    result, candidates = benchmark.pedantic(
        lambda: _counted(goal, components, invocation_bound=2),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.is_no
    benchmark.extra_info["candidates"] = candidates
