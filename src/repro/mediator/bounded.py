"""MDT_b(PL): bounded mediators (Theorem 5.3(3)).

MDT_b(PL) restricts MDT(PL) so that "each component service is invoked at
most a fixed number of times in all transition rules combined, and the
sizes of the synthesis functions are bounded".  Under these bounds the
composition problem has a small-model property: if any mediator exists,
one of polynomially-bounded size does — so enumeration plus equivalence
testing decides it (EXPSPACE in general, PSPACE-complete with nonrecursive
components).

:func:`compose_mdtb_pl` realizes exactly that: it enumerates all mediator
shapes within the invocation bound — trees of invocation chains below the
root, with root synthesis drawn from a bounded formula pool — and tests
each candidate against the goal *at the language level*: a chain's
session language is the concatenation of its components' session cores, a
branch's value on an input is membership of a prefix in that language,
and the root formula combines branch values (conjunctions included — this
is full MDT_b(PL), not just MDT(∨)).  Equivalence is then regular-language
equality with the goal, via :func:`repro.mediator.synthesis.boolean_language_combination`.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping, Sequence

from repro._stats import STATS
from repro.analysis.verdict import Answer
from repro.automata.nfa import NFA
from repro.core.classes import SWSClass, require_class
from repro.core.pl_semantics import joint_variables
from repro.core.sws import MSG, SWS, SynthesisRule
from repro.guard import checkpoint, guarded, register_span
from repro.logic import pl
from repro.mediator.mediator import Mediator, MediatorTransitionRule
from repro.obs import traced
from repro.mediator.synthesis import (
    boolean_language_combination,
    sws_language_nfa,
)


def _synthesis_pool(k: int, max_size: int) -> list[pl.Formula]:
    """Small synthesis formulas over registers A1..Ak.

    Realizes the "bounded synthesis size" restriction: plain registers,
    pairwise conjunctions/disjunctions, and the full conjunction and
    disjunction.
    """
    registers = [pl.Var(f"A{i + 1}") for i in range(k)]
    pool: list[pl.Formula] = list(registers)
    if k >= 2:
        pool.append(pl.disjoin(registers))
        pool.append(pl.conjoin(registers))
        if max_size >= 2:
            for left, right in itertools.combinations(registers, 2):
                pool.extend([left | right, left & right])
    unique: dict[str, pl.Formula] = {str(f): f for f in pool}
    return list(unique.values())


def _chain_pool(
    names: Sequence[str], invocation_bound: int
) -> list[tuple[str, ...]]:
    max_total = invocation_bound * max(1, len(names))
    chains: list[tuple[str, ...]] = []
    for length in range(1, max_total + 1):
        for combo in itertools.product(names, repeat=length):
            counts: dict[str, int] = {}
            for component in combo:
                counts[component] = counts.get(component, 0) + 1
            if all(c <= invocation_bound for c in counts.values()):
                chains.append(combo)
    return chains


def _candidates(
    names: Sequence[str],
    invocation_bound: int,
    max_branches: int,
) -> Iterator[tuple[tuple[str, ...], ...]]:
    """Branch tuples whose total invocation counts respect the bound."""
    pool = _chain_pool(names, invocation_bound)
    for branches in range(1, max_branches + 1):
        for combo in itertools.combinations_with_replacement(pool, branches):
            counts: dict[str, int] = {}
            for chain in combo:
                for component in chain:
                    counts[component] = counts.get(component, 0) + 1
            if all(c <= invocation_bound for c in counts.values()):
                yield combo


def _build_mediator(
    chains: Sequence[tuple[str, ...]],
    root_formula: pl.Formula,
    components: Mapping[str, SWS],
) -> Mediator:
    states: list[str] = ["root"]
    transitions: dict[str, MediatorTransitionRule] = {}
    synthesis: dict[str, SynthesisRule] = {}
    root_targets: list[tuple[str, str]] = []
    for b, chain in enumerate(chains):
        previous: str | None = None
        for depth, component in enumerate(chain):
            state = f"c{b}_{depth}"
            states.append(state)
            if depth == 0:
                root_targets.append((state, component))
            else:
                assert previous is not None
                transitions[previous] = MediatorTransitionRule([(state, component)])
                # A failed component leaves the register false (dead-node
                # rule), so forwarding A1 chains the successes.
                synthesis[previous] = SynthesisRule(pl.Var("A1"))
            previous = state
        assert previous is not None
        transitions[previous] = MediatorTransitionRule()
        synthesis[previous] = SynthesisRule(pl.Var(MSG))
    transitions["root"] = MediatorTransitionRule(root_targets)
    synthesis["root"] = SynthesisRule(root_formula)
    return Mediator(
        states, "root", transitions, synthesis, dict(components), name="mdtb"
    )


@traced("compose_mdtb_pl", kind="mediator")
@guarded()
def compose_mdtb_pl(
    goal: SWS,
    components: Mapping[str, SWS],
    invocation_bound: int = 2,
    max_synthesis_size: int = 2,
    max_branches: int = 2,
) -> Answer:
    """Composition synthesis for MDT_b(PL) mediators (Theorem 5.3(3)).

    Decides, over the bounded candidate space, whether a mediator
    equivalent to the goal exists; equivalence is regular-language
    equality of session languages (see the module docstring — exact for
    session-shaped components, and applicable to recursive goals and
    components alike, matching the theorem's EXPSPACE case).  A YES
    carries the mediator as its witness; each candidate tried counts one
    ``STATS.mediator_candidates``.
    """
    require_class(goal, SWSClass.PL_PL, "compose_mdtb_pl")
    for component in components.values():
        require_class(component, SWSClass.PL_PL, "compose_mdtb_pl")
    variables = joint_variables(goal, *components.values())
    cores = {
        name: sws_language_nfa(component, variables).prefix_free_restriction()
        for name, component in components.items()
    }
    alphabet = next(iter(cores.values())).alphabet if cores else frozenset()
    goal_dfa = sws_language_nfa(goal, variables).determinize()
    sigma_star = _sigma_star(alphabet)

    chain_language: dict[tuple[str, ...], NFA] = {}

    def language_of(chain: tuple[str, ...]) -> NFA:
        if chain not in chain_language:
            nfa = cores[chain[0]]
            for component in chain[1:]:
                nfa = nfa.concat(cores[component])
            chain_language[chain] = nfa.concat(sigma_star)
        return chain_language[chain]

    names = sorted(components)
    for chains in _candidates(names, invocation_bound, max_branches):
        branch_nfas = [language_of(chain) for chain in chains]
        for root_formula in _synthesis_pool(len(chains), max_synthesis_size):
            checkpoint("compose_mdtb_pl")
            STATS.mediator_candidates += 1
            combined = boolean_language_combination(
                branch_nfas, root_formula, alphabet
            )
            if combined.equivalent_to(goal_dfa):
                return Answer.yes(
                    witness=_build_mediator(chains, root_formula, components),
                    detail=f"chains {chains}, ψ_root = {root_formula}",
                )
    return Answer.no(detail="no bounded mediator matches the goal")


def _sigma_star(alphabet: Iterable) -> NFA:
    alphabet = frozenset(alphabet)
    transitions = {(0, symbol): frozenset({0}) for symbol in alphabet}
    return NFA({0}, alphabet, transitions, {0}, {0})


register_span(
    "compose_mdtb_pl",
    "per-candidate (chains × root formula) enumeration loop",
    "Theorem 5.3(3): bounded-mediator composition for MDT_b(PL)",
)
