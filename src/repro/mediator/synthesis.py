"""Composition synthesis for PL services (Theorems 5.1(4,5) and 5.3(1,2)).

Two routes, mirroring the paper's proofs:

**k-prefix route** (Theorem 5.1(4,5)).  Mediator acceptance is determined
by a consumed prefix: an internal mediator node starved of input is ∅ by
rule (1), and a final mediator state ignores the remaining input — so every
mediator defines a *prefix-determined* language, and a nonrecursive PL goal
depends only on its first ``depth+1`` messages (k-prefix recognizability).
:func:`compose_pl_prefix` therefore enumerates mediators of bounded shape
and decides equivalence exactly by comparing all words up to the joint
prefix bound.

**regular-rewriting route** (Theorem 5.3(1,2)).  At the language level,
composition for MDT(∨) mediators is the rewriting of the goal's regular
language over the components' languages, with components contributing their
*prefix-free cores* (run to completion, stop at the first final state).
:func:`compose_pl_regular` runs the Calvanese–De Giacomo–Lenzerini–Vardi
construction from :mod:`repro.automata.regular_rewriting` on the SWS's
language automata and, on success, materializes the maximal rewriting as an
MDT(∨) mediator.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

from repro._stats import STATS
from repro.analysis.verdict import Answer
from repro.automata.nfa import NFA
from repro.automata.regular_rewriting import rewrite
from repro.core.classes import SWSClass, require_class
from repro.core.pl_semantics import joint_variables, to_afa
from repro.core.sws import MSG, SWS, SynthesisRule
from repro.errors import AnalysisError
from repro.guard import checkpoint, checkpoint_callable, guarded, register_span
from repro.logic import pl
from repro.obs import traced
from repro.mediator.mediator import (
    Mediator,
    MediatorTransitionRule,
    mediator_equivalent_to_sws_pl,
)


def kprefix_bound(goal: SWS, components: Mapping[str, SWS]) -> int:
    """A word length bounding the prefix-dependence of goal and mediators.

    A nonrecursive goal of depth d inspects at most d+1 messages.  A
    nonrecursive mediator of m states chains at most m component runs, each
    consuming at most (component depth + 1) messages (+1 for the final
    synthesis read).  The returned bound dominates both, so word
    enumeration up to it decides equivalence exactly (Theorem 5.1(4,5)).
    """
    require_class(goal, SWSClass.PL_PL, "kprefix_bound")
    goal_k = (goal.depth() + 1) if not goal.is_recursive() else 0
    component_k = 0
    for component in components.values():
        require_class(component, SWSClass.PL_PL, "kprefix_bound")
        if component.is_recursive():
            raise AnalysisError(
                "kprefix_bound needs nonrecursive components; "
                f"{component.name!r} is recursive"
            )
        component_k = max(component_k, component.depth() + 1)
    return max(goal_k, component_k + 1)


def sws_language_nfa(sws: SWS, variables: Iterable[str]) -> NFA:
    """The NFA of L(τ) over the assignment alphabet of ``variables``."""
    return to_afa(sws, variables).to_nfa()


def mediator_language_nfa(
    mediator: Mediator, variables: Iterable[str]
) -> NFA:
    """The session-language NFA of a PL mediator.

    Substitutes each component's *session core* — the prefix-free
    restriction of its language, i.e. the words a successful run-to-
    completion consumes — into the mediator's transition graph; final
    mediator states accept.  This is the language-level semantics the
    Section 5 proofs work with; it coincides with the run semantics
    whenever every successful component run consumes exactly its accepted
    session prefix (true for session-shaped services such as the Roman
    translations and :mod:`repro.workloads.pl_services`; the exhaustive
    :func:`repro.mediator.mediator.mediator_equivalent_to_sws_pl` remains
    the ground truth for arbitrary services).
    """
    variables = frozenset(variables)
    cores = {
        name: sws_language_nfa(component, variables).prefix_free_restriction()
        for name, component in mediator.components.items()
    }
    alphabet = next(iter(cores.values())).alphabet if cores else frozenset()
    states = set(mediator.states)
    transitions: dict[tuple, set] = {}
    finals = {
        state
        for state in mediator.states
        if mediator.transitions[state].is_final
    }
    skeleton_symbols = []
    edge_languages: dict[str, NFA] = {}
    for state in mediator.states:
        for i, (target, component) in enumerate(
            mediator.transitions[state].targets
        ):
            symbol = f"{state}->{target}#{i}"
            skeleton_symbols.append(symbol)
            edge_languages[symbol] = cores[component]
            transitions.setdefault((state, symbol), set()).add(target)
    skeleton = NFA(
        states,
        skeleton_symbols,
        {k: frozenset(v) for k, v in transitions.items()},
        {mediator.start},
        finals,
    )
    if not skeleton_symbols:
        return skeleton.with_alphabet(alphabet)
    return skeleton.substitute(edge_languages, alphabet)


def boolean_language_combination(
    branches: Sequence[NFA],
    formula: pl.Formula,
    alphabet: Iterable,
):
    """The language ``{ w | formula([w ∈ L(branch_i)]) }`` as a DFA.

    ``formula`` ranges over registers ``A1..Ak`` (branch membership).
    Realizes non-disjunctive mediator root synthesis — e.g. MDT_b(PL)
    candidates whose root conjoins branch values — at the language level.
    """
    from collections import deque

    from repro.automata.dfa import DFA

    alphabet = frozenset(alphabet)
    dfas = [branch.with_alphabet(alphabet).determinize() for branch in branches]
    initial = tuple(d.initial for d in dfas)
    states = set()
    transitions = {}
    queue = deque([initial])
    ckpt = checkpoint_callable("boolean_language_combination")
    n_popped = 0
    ckpt(0, queue)
    while queue:
        combo = queue.popleft()
        n_popped += 1
        ckpt(n_popped, queue)
        if combo in states:
            continue
        states.add(combo)
        for symbol in alphabet:
            target = tuple(d.step(s, symbol) for d, s in zip(dfas, combo))
            transitions[(combo, symbol)] = target
            if target not in states:
                queue.append(target)
    finals = {
        combo
        for combo in states
        if formula.evaluate(
            frozenset(
                f"A{i + 1}" for i, (d, s) in enumerate(zip(dfas, combo)) if s in d.finals
            )
        )
    }
    return DFA(states, alphabet, transitions, initial, finals)


@traced("mediator_language_equivalent", kind="mediator")
def mediator_language_equivalent(
    mediator: Mediator, goal: SWS, variables: Iterable[str] | None = None
) -> bool:
    """Session-core equality of mediator and goal (automata-based).

    Both sides of a PL composition are prefix-determined (rule (3)
    semantics), so mediator ≡ goal iff their prefix-free session cores
    coincide as regular languages.  Exponentially faster than word
    enumeration; see :func:`mediator_language_nfa` for the assumption it
    rests on.
    """
    if variables is None:
        variables = joint_variables(goal, *mediator.components.values())
    goal_core = sws_language_nfa(goal, variables).prefix_free_restriction()
    mediator_core = mediator_language_nfa(mediator, variables)
    return goal_core.equivalent_to(mediator_core.prefix_free_restriction())


@traced("compose_pl_regular", kind="mediator")
@guarded()
def compose_pl_regular(goal: SWS, components: Mapping[str, SWS]) -> Answer:
    """MDT(∨) composition via regular-language rewriting (Theorem 5.3(1,2)).

    Decides whether the goal's language is an exact substitution of the
    components' prefix-free cores; a YES carries the MDT(∨) mediator
    whose transition graph is the maximal rewriting automaton, a NO the
    shortest goal word no substitution covers.  The
    language-level test is exact; the mediator's run-level equivalence
    additionally relies on the goal being prefix-determined (e.g. services
    with in-band session delimiters, as the Section 3 translations
    produce), which callers should verify with
    :func:`repro.mediator.mediator.mediator_equivalent_to_sws_pl`.
    """
    require_class(goal, SWSClass.PL_PL, "compose_pl_regular")
    variables = joint_variables(goal, *components.values())
    # SWS languages are prefix-determined (rule (3) ignores input beyond a
    # final state), so goal and mediator agree iff their *session cores* —
    # the prefix-free restrictions — agree; the rewriting targets the core.
    goal_nfa = sws_language_nfa(goal, variables).prefix_free_restriction()
    component_nfas = {
        name: sws_language_nfa(component, variables)
        for name, component in components.items()
    }
    result = rewrite(goal_nfa, component_nfas, run_to_completion=True)
    if not result.exact:
        return Answer.no(
            witness=list(result.witness),
            detail="goal word not covered by any substitution",
        )
    return Answer.yes(
        witness=mediator_from_rewriting_nfa(result.maximal, components),
        detail="exact rewriting",
    )


def mediator_from_rewriting_nfa(
    rewriting: NFA, components: Mapping[str, SWS], name: str = "π"
) -> Mediator:
    """Materialize a rewriting automaton as an MDT(∨) mediator.

    Automaton states become mediator states; an edge labeled with component
    ``c`` becomes a transition target ``(state', eval(c))``.  Internal
    synthesis is the disjunction of the successor registers; accepting
    automaton states become *final* mediator states whose synthesis reads
    ``Msg`` — the value the last component run delivered.

    The construction assumes the rewriting language is prefix-free (no
    accepted word extends another), which holds whenever the goal's
    minimal-session language is prefix-free — e.g. for the
    delimiter-terminated services the Section 3 translations produce.  The
    outgoing edges of accepting states (dead continuations in the
    deterministic automata :func:`maximal_rewriting` builds) are dropped.
    If the start state itself accepts, the empty mediator word would be
    required; rule (1) semantics cannot express "accept on no input", so
    that case is rejected.
    """
    state_names = {
        s: f"m{i}" for i, s in enumerate(sorted(rewriting.states, key=repr))
    }
    initials = list(rewriting.initials)
    if len(initials) != 1:
        raise AnalysisError("rewriting automaton must have one initial state")
    if initials[0] in rewriting.finals:
        raise AnalysisError(
            "rewriting accepts the empty word; mediators cannot accept "
            "without invoking a component"
        )
    start = state_names[initials[0]]
    transitions: dict[str, MediatorTransitionRule] = {}
    synthesis: dict[str, SynthesisRule] = {}
    for nfa_state in rewriting.states:
        mediator_state = state_names[nfa_state]
        if nfa_state in rewriting.finals:
            transitions[mediator_state] = MediatorTransitionRule()
            synthesis[mediator_state] = SynthesisRule(pl.Var(MSG))
            continue
        targets: list[tuple[str, str]] = []
        for (source, symbol), nfa_targets in rewriting.transitions.items():
            if source != nfa_state or symbol is None:
                continue
            for target in nfa_targets:
                targets.append((state_names[target], str(symbol)))
        transitions[mediator_state] = MediatorTransitionRule(sorted(targets))
        synthesis[mediator_state] = SynthesisRule(
            pl.disjoin(pl.Var(f"A{i + 1}") for i in range(len(targets)))
        )
    mediator = Mediator(
        list(transitions), start, transitions, synthesis, dict(components), name=name
    )
    return _trim_mediator(mediator)


def _trim_mediator(mediator: Mediator) -> Mediator:
    """Drop states that cannot reach a final state (dead continuations)."""
    productive: set[str] = {
        s for s in mediator.states if mediator.transitions[s].is_final
    }
    changed = True
    while changed:
        changed = False
        for state in mediator.states:
            if state in productive:
                continue
            rule = mediator.transitions[state]
            if any(target in productive for target, _c in rule.targets):
                productive.add(state)
                changed = True
    if mediator.start not in productive:
        # Keep a syntactically valid (empty-language) mediator.
        productive = {mediator.start}
    states = [s for s in mediator.states if s in productive]
    transitions = {}
    synthesis = {}
    for state in states:
        rule = mediator.transitions[state]
        kept = [
            (target, component)
            for target, component in rule.targets
            if target in productive
        ]
        transitions[state] = MediatorTransitionRule(kept)
        if rule.is_final:
            synthesis[state] = mediator.synthesis[state]
        else:
            synthesis[state] = SynthesisRule(
                pl.disjoin(pl.Var(f"A{i + 1}") for i in range(len(kept)))
            )
    return Mediator(
        states,
        mediator.start,
        transitions,
        synthesis,
        dict(mediator.components),
        name=mediator.name,
    )


def _enumerate_chain_mediators(
    components: Mapping[str, SWS], max_length: int
) -> Iterable[Mediator]:
    """All chain-shaped mediators invoking up to ``max_length`` components.

    A chain ``q0 →c1 q1 →c2 ... →cm qm`` with the final state's synthesis
    ``Msg`` and internal synthesis ``A1`` models sequential invocation —
    the shape Theorem 5.1(4,5)'s bounded-size argument reduces to for
    prefix languages.
    """
    names = sorted(components)
    for length in range(1, max_length + 1):
        for combo in itertools.product(names, repeat=length):
            states = [f"s{i}" for i in range(length + 1)]
            transitions = {}
            synthesis = {}
            for i in range(length):
                transitions[states[i]] = MediatorTransitionRule(
                    [(states[i + 1], combo[i])]
                )
                synthesis[states[i]] = SynthesisRule(pl.Var("A1"))
            transitions[states[length]] = MediatorTransitionRule()
            synthesis[states[length]] = SynthesisRule(pl.Var(MSG))
            yield Mediator(
                states,
                states[0],
                transitions,
                synthesis,
                dict(components),
                name="chain_" + "_".join(combo),
            )


def _enumerate_union_mediators(
    components: Mapping[str, SWS], max_branches: int, max_length: int
) -> Iterable[Mediator]:
    """Unions of up to ``max_branches`` chains (disjunctive mediators)."""
    chains = list(_enumerate_chain_mediators(components, max_length))
    for r in range(1, max_branches + 1):
        for combo in itertools.combinations(range(len(chains)), r):
            if r == 1:
                yield chains[combo[0]]
                continue
            states: list[str] = ["root"]
            transitions: dict[str, MediatorTransitionRule] = {}
            synthesis: dict[str, SynthesisRule] = {}
            root_targets: list[tuple[str, str]] = []
            for b, index in enumerate(combo):
                chain = chains[index]
                prefix = f"b{b}_"
                first_rule = chain.transitions[chain.start]
                for state in chain.states:
                    if state == chain.start:
                        continue
                    states.append(prefix + state)
                    rule = chain.transitions[state]
                    transitions[prefix + state] = MediatorTransitionRule(
                        [(prefix + t, c) for t, c in rule.targets]
                    )
                    synthesis[prefix + state] = chain.synthesis[state]
                for target, component in first_rule.targets:
                    root_targets.append((prefix + target, component))
            transitions["root"] = MediatorTransitionRule(root_targets)
            synthesis["root"] = SynthesisRule(
                pl.disjoin(pl.Var(f"A{i + 1}") for i in range(len(root_targets)))
            )
            yield Mediator(
                states,
                "root",
                transitions,
                synthesis,
                dict(components),
                name="union",
            )


@traced("compose_pl_prefix", kind="mediator")
@guarded()
def compose_pl_prefix(
    goal: SWS,
    components: Mapping[str, SWS],
    max_chain_length: int = 2,
    max_branches: int = 2,
) -> Answer:
    """Composition for k-prefix recognizable goals (Theorem 5.1(4,5)).

    Enumerates mediators of bounded shape (unions of invocation chains, the
    normal form the k-prefix argument licenses), counting each in
    ``STATS.mediator_candidates``, and checks exact equivalence on all
    words up to the k-prefix bound; a YES carries the mediator.  Requires
    nonrecursive components; the goal may be recursive provided its
    language is k-prefix recognizable — if it is not, no mediator can match
    it and the procedure correctly reports non-existence.
    """
    require_class(goal, SWSClass.PL_PL, "compose_pl_prefix")
    variables = sorted(joint_variables(goal, *components.values()))
    for mediator in _enumerate_union_mediators(
        components, max_branches, max_chain_length
    ):
        checkpoint("compose_pl_prefix")
        STATS.mediator_candidates += 1
        if mediator_language_equivalent(mediator, goal, variables):
            return Answer.yes(
                witness=mediator,
                detail=f"chains ≤ {max_chain_length}, branches ≤ {max_branches}",
            )
    return Answer.no(
        detail=f"no mediator within shape bounds (chains ≤ {max_chain_length}, "
        f"branches ≤ {max_branches})"
    )


# mediator_language_equivalent returns a bare bool, where False is a sound
# "not equivalent" — it cannot absorb a trip, so it is left unguarded and
# trips propagate to the guarded composition boundaries above.
register_span(
    "boolean_language_combination",
    "product-DFA BFS over the branch automata",
    "Theorem 5.3(3): root-synthesis language combination for MDT_b(PL)",
)
register_span(
    "compose_pl_prefix",
    "per-candidate bounded-shape mediator enumeration loop",
    "Theorem 5.1(4,5): k-prefix composition for nonrecursive PL services",
)
