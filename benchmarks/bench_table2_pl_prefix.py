"""Experiments T2.7–T2.8 — Table 2, the decidable general PL rows.

Paper results (Theorem 5.1(4,5)): composition is decidable when the goal
is in SWS_nr(PL,PL) with arbitrary MDT(PL) mediators over SWS(PL,PL)
components, and when the goal is in SWS(PL,PL) with nonrecursive mediators
over nonrecursive components — in both cases because only k-prefix
recognizable languages are in play, which bounds the mediators worth
trying.

The benchmark measures the bounded-shape enumeration procedure
(:func:`compose_pl_prefix`) as the goal's prefix horizon k grows, and
checks that a recursive goal whose language is *not* k-prefix recognizable
is correctly rejected (the paper's point that only k-prefix goals make
sense in this setting).
"""

import pytest

from repro.mediator.synthesis import compose_pl_prefix, kprefix_bound
from repro.workloads.pl_services import HASH, union_word_service, word_service
from repro.workloads.scaling import pl_counter_sws

ALPHA = ["a", "b"]


def _components():
    return {
        "X": word_service(["a", HASH], ALPHA, "X"),
        "Y": word_service(["b", HASH], ALPHA, "Y"),
    }


@pytest.mark.parametrize("sessions", [1, 2, 3])
def test_t2_7_prefix_horizon_sweep(benchmark, sessions, one_shot):
    """Enumeration cost vs the goal's session count (prefix horizon)."""
    components = _components()
    chain = []
    for i in range(sessions):
        chain.extend([ALPHA[i % 2], HASH])
    goal = union_word_service([chain], ALPHA, "chain")

    result = one_shot(
        lambda: compose_pl_prefix(goal, components, max_chain_length=sessions)
    )
    assert result.is_yes
    benchmark.extra_info["sessions"] = sessions
    benchmark.extra_info["k"] = kprefix_bound(goal, components)


@pytest.mark.parametrize("branches", [1, 2])
def test_t2_7_branching_goals(benchmark, branches, one_shot):
    """Union-shaped goals need union-shaped mediators."""
    components = _components()
    words = [[ALPHA[i % 2], HASH] for i in range(branches)]
    goal = union_word_service(words, ALPHA, "menu")

    result = one_shot(
        lambda: compose_pl_prefix(
            goal, components, max_chain_length=1, max_branches=branches
        )
    )
    assert result.is_yes
    benchmark.extra_info["branches"] = branches


def test_t2_8_non_prefix_goal_rejected(benchmark):
    """A goal that counts (not k-prefix recognizable) has no mediator.

    The paper's discussion after Theorem 5.1: a recursive goal needing
    unboundedly many computation steps cannot equal any nonrecursive
    mediator — here the period-2 counter against single-session
    components.
    """
    result = benchmark.pedantic(
        lambda: compose_pl_prefix(
            pl_counter_sws(1), _components(), max_chain_length=2
        ),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
    assert result.is_no
