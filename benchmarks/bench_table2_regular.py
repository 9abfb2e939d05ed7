"""Experiments T2.10–T2.12 — Table 2, the MDT(∨) composition rows.

Paper bounds: CP(SWS(PL,PL), MDT(∨), SWS(PL,PL)) in 3EXPSPACE;
CP(NFA, MDT(∨), ·) 2EXPSPACE-complete; CP(DFA, MDT(∨), ·) in EXPSPACE.
All run through the rewriting of regular languages with run-to-completion
(prefix-free) component languages.

The benchmark sweeps (a) the number of available components and (b) the
number of sessions the goal chains, measuring the full synthesis
(translate to automata, rewrite, check exactness, materialize the
mediator).  DFA-shaped goals (a single session chain) are compared with
NFA-shaped goals (a menu of alternatives) at equal size — the paper's
special-case gap.
"""

import pytest

from repro.mediator.synthesis import compose_pl_regular
from repro.workloads.pl_services import HASH, union_word_service, word_service

LETTERS = ["a", "b", "c", "d"]


def _components(k: int):
    return {
        f"S{i}": word_service([LETTERS[i], HASH], LETTERS[:k], f"S{i}")
        for i in range(k)
    }


@pytest.mark.parametrize("k", [2, 3])
def test_t2_10_components_sweep(benchmark, k, one_shot):
    """Synthesis cost vs number of available components."""
    components = _components(k)
    goal_words = [
        [LETTERS[i], HASH, LETTERS[(i + 1) % k], HASH] for i in range(k)
    ]
    goal = union_word_service(goal_words, LETTERS[:k], "menu")

    result = one_shot(lambda: compose_pl_regular(goal, components))
    assert result.is_yes
    benchmark.extra_info["components"] = k
    benchmark.extra_info["mediator_states"] = len(result.witness.states)


@pytest.mark.parametrize("sessions", [1, 2, 3])
def test_t2_12_dfa_goal_chain(benchmark, sessions, one_shot):
    """DFA-shaped goal: a single chain of sessions (the EXPSPACE case)."""
    components = _components(2)
    chain: list[str] = []
    for i in range(sessions):
        chain.extend([LETTERS[i % 2], HASH])
    goal = union_word_service([chain], LETTERS[:2], "chain")

    result = one_shot(lambda: compose_pl_regular(goal, components))
    assert result.is_yes
    benchmark.extra_info["sessions"] = sessions


@pytest.mark.parametrize("branches", [2, 3])
def test_t2_11_nfa_goal_menu(benchmark, branches, one_shot):
    """NFA-shaped goal: a menu of session alternatives (2EXPSPACE case)."""
    components = _components(2)
    words = []
    for i in range(branches):
        words.append([LETTERS[i % 2], HASH, LETTERS[(i + 1) % 2], HASH])
    goal = union_word_service(words, LETTERS[:2], "nfa_menu")

    result = one_shot(lambda: compose_pl_regular(goal, components))
    benchmark.extra_info["branches"] = branches
    benchmark.extra_info["verdict"] = result.verdict.value


def test_t2_10_negative_case(benchmark):
    """A goal outside the components' span is rejected with a witness."""
    components = _components(2)
    goal = union_word_service([["a", "b", HASH]], LETTERS[:2], "fused")

    result = benchmark(lambda: compose_pl_regular(goal, components))
    assert result.is_no
    assert result.witness  # the uncovered goal word


def test_t2_10_recursive_component(benchmark, one_shot):
    """Theorem 5.3(1) proper: a *recursive* component (a+ sessions)."""
    from repro.core import pl_sws
    from repro.workloads.pl_services import exactly, star_word_service

    alpha = ["a", "b"]
    ga, gb, ge = (str(exactly(s, alpha)) for s in ("a", "b", HASH))
    goal = (
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
    components = {
        "Astar": star_word_service("a", alpha),
        "B": word_service(["b", HASH], alpha, "B"),
    }
    result = one_shot(lambda: compose_pl_regular(goal, components))
    assert result.is_yes
    benchmark.extra_info["component_recursive"] = True
