"""The UC2RPQ composition case (Corollary 5.2).

The paper's decidable case for *recursive, data-driven* goal services:
goals in SWS(UC2RPQ), components in SWS_nr(CQ^r) — each component
expressing a conjunctive query — and mediators in MDT(UC2RPQ).  The proof
makes composition "ptime-equivalent to the problem of equivalent query
rewriting for UC2RPQ queries using CQ views" and derives the 2EXPTIME bound
from UC2RPQ containment.

This module implements the rewriting pipeline for the canonical instance
of that problem — *chain* CQ views over a graph database (each view is a
word over edge labels and inverses):

* :func:`chain_view` — a CQ view tracing one label word;
* :func:`compose_uc2rpq` — per goal RPQ, the regular rewriting of its path
  language over the view words (the maximal rewriting of
  :mod:`repro.automata.regular_rewriting`, without the run-to-completion
  restriction: queries are not sessions); an exact rewriting yields the
  mediator query — an RPQ *over the view predicates*;
* :func:`evaluate_over_views` — evaluates a mediator RPQ on the graph whose
  edges are the views' extensions, which is how the synthesized mediator
  answers requests; tests verify it agrees with the goal on random graphs.

The maximally-contained half of the corollary's argument (Duschka &
Genesereth) is exercised through :func:`repro.logic.rewriting.certain_answers`
over the same views.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.analysis.verdict import Answer
from repro.automata.nfa import NFA
from repro.automata.regular_rewriting import rewrite
from repro.automata.rpq import GraphDatabase, Label, RPQ, inverse, is_inverse
from repro.errors import AnalysisError
from repro.guard import guarded
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.terms import Variable
from repro.obs import traced


def chain_view(name: str, word: Sequence[Label]) -> ConjunctiveQuery:
    """The CQ view tracing the label word: ``V(x0, xk) :- e1(x0,x1), ...``.

    Inverse labels flip the edge atom's argument order, matching the
    graph-database encoding of Section 5.2.
    """
    if not word:
        raise AnalysisError("chain views need at least one edge label")
    variables = [Variable(f"x{i}") for i in range(len(word) + 1)]
    atoms = []
    for i, label in enumerate(word):
        if is_inverse(label):
            atoms.append(Atom(inverse(label), (variables[i + 1], variables[i])))
        else:
            atoms.append(Atom(label, (variables[i], variables[i + 1])))
    return ConjunctiveQuery((variables[0], variables[-1]), atoms, (), name)


@traced("compose_uc2rpq", kind="mediator")
@guarded()
def compose_uc2rpq(goal: RPQ, views: Mapping[str, Sequence[Label]]) -> Answer:
    """Equivalent rewriting of a goal RPQ over chain views (Corollary 5.2).

    ``views`` maps view names to label words.  The goal's path language is
    rewritten over the single-word view languages; an exact rewriting is
    the YES witness, an RPQ over the view names — the mediator's query,
    whose evaluation over the views' extensions answers exactly the goal
    (soundness verified by :func:`evaluate_over_views` in the tests).  A
    NO carries a goal path the views cannot cover.
    """
    alphabet = set(goal.labels())
    for word in views.values():
        alphabet |= set(word)
    goal_nfa = goal.to_nfa(alphabet)
    component_nfas = {
        name: NFA.for_word(list(word), alphabet) for name, word in views.items()
    }
    result = rewrite(goal_nfa, component_nfas, run_to_completion=False)
    if not result.exact:
        return Answer.no(
            witness=list(result.witness),
            detail="goal path language not expressible over the views",
        )
    mediator = RPQ(_nfa_to_regex(result.maximal), name=f"{goal.name}_over_views")
    return Answer.yes(witness=mediator, detail="exact")


def view_graph(
    graph: GraphDatabase, views: Mapping[str, Sequence[Label]]
) -> GraphDatabase:
    """The graph whose ``name``-edges are the views' extensions."""
    edges = {}
    for name, word in views.items():
        extension = chain_view(name, word).evaluate(graph.as_relations())
        edges[name] = set(extension)
    return GraphDatabase(edges)


def evaluate_over_views(
    mediator: RPQ, graph: GraphDatabase, views: Mapping[str, Sequence[Label]]
) -> frozenset:
    """Answer the mediator query using only the views' extensions."""
    return mediator.evaluate(view_graph(graph, views))


def _nfa_to_regex(nfa: NFA):
    """State-elimination conversion NFA → regex (small automata only)."""
    from repro.automata.regex import EmptySet, Epsilon, Regex, Star, Sym, Union_, Concat

    # Collect states; add unique initial/final wrappers.
    states = list(nfa.states)
    INIT, FINAL = ("__init__",), ("__final__",)
    edges: dict[tuple, Regex] = {}

    def add_edge(source, target, regex: Regex) -> None:
        key = (source, target)
        if key in edges:
            edges[key] = Union_((edges[key], regex))
        else:
            edges[key] = regex

    for (source, symbol), targets in nfa.transitions.items():
        for target in targets:
            add_edge(source, target, Epsilon() if symbol is None else Sym(symbol))
    for initial in nfa.initials:
        add_edge(INIT, initial, Epsilon())
    for final in nfa.finals:
        add_edge(final, FINAL, Epsilon())

    for state in states:
        loop = edges.pop((state, state), None)
        loop_regex: Regex = Star(loop) if loop is not None else Epsilon()
        incoming = [
            (src, regex)
            for (src, tgt), regex in list(edges.items())
            if tgt == state and src != state
        ]
        outgoing = [
            (tgt, regex)
            for (src, tgt), regex in list(edges.items())
            if src == state and tgt != state
        ]
        for (src, _r) in incoming:
            edges.pop((src, state))
        for (tgt, _r) in outgoing:
            edges.pop((state, tgt))
        for src, r_in in incoming:
            for tgt, r_out in outgoing:
                add_edge(src, tgt, Concat((r_in, loop_regex, r_out)))
    return edges.get((INIT, FINAL), EmptySet())
