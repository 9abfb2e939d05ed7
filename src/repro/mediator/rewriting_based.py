"""CQ/UCQ composition synthesis via query rewriting (Theorem 5.1(3)).

CP(SWS_nr(CQ, UCQ), MDT_nr(UCQ), SWS_nr(CQ, UCQ)) "can be reduced to the
problem for equivalent query rewriting using views for UCQ with ≠".  The
reduction implemented here:

1. the goal service becomes its UCQ≠ expansion ``Q`` at saturation length
   (Section 5.2 treats the goal as a query);
2. each component service becomes a *view*: its own expansion over the same
   database relations and per-step input relations;
3. an equivalent rewriting ``R`` of ``Q`` over the views — found by the
   canonical-rewriting procedure of :mod:`repro.logic.rewriting` — is
   materialized as a depth-one mediator: the root invokes every view's
   component as a child (the child's final synthesis forwards the
   component's output register), and the root synthesis is ``R`` with view
   predicates renamed to the children's action registers;
4. the synthesized mediator is re-verified against the goal at every
   session length up to saturation, including the empty session (where a
   mediator — whose root is an internal state starved of input — is
   necessarily silent).

The mediator shape is the paper's Example 5.1 shape: π1 over τa, τhc, τht
is exactly such a depth-one mediator.
"""

from __future__ import annotations

from typing import Mapping

from repro.analysis.verdict import Answer
from repro.core.classes import SWSClass, require_class
from repro.core.sws import MSG, SWS, SynthesisRule
from repro.core.unfold import expand, saturation_length
from repro.errors import AnalysisError
from repro.guard import checkpoint, guarded, register_span
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.rewriting import View, equivalent_rewriting
from repro.logic.terms import Variable
from repro.logic.ucq import UnionQuery, compose_union
from repro.mediator.mediator import Mediator, MediatorTransitionRule
from repro.obs import traced


def component_view(name: str, component: SWS, session_length: int) -> View:
    """A component service as a view: its expansion at ``session_length``.

    The view predicate is ``name``; a mediator invoking the component at
    its root sees exactly this query's answer as the child register.
    """
    require_class(component, SWSClass.CQ_UCQ_NR, "component_view")
    expansion = expand(component, session_length)
    return View(
        UnionQuery(expansion.disjuncts, arity=expansion.arity, name=name)
    )


def mediator_from_ucq_rewriting(
    rewriting: UnionQuery,
    components: Mapping[str, SWS],
    name: str = "π",
) -> Mediator:
    """Materialize a UCQ rewriting over views as a depth-one mediator.

    One child per component whose view the rewriting mentions; the child's
    final synthesis forwards its message register (the component's output),
    and the root synthesis is the rewriting with view predicates renamed to
    the children's ``Act_<child>`` registers.
    """
    used = sorted(
        {atom.relation for d in rewriting.disjuncts for atom in d.atoms}
    )
    unknown = [u for u in used if u not in components]
    if unknown:
        raise AnalysisError(f"rewriting mentions unknown components {unknown}")
    arity = rewriting.arity
    child_of = {component: f"s_{component}" for component in used}
    targets = [(child_of[component], component) for component in used]
    renaming = {component: f"Act_{child_of[component]}" for component in used}
    renamed_disjuncts = [
        ConjunctiveQuery(
            d.head,
            [Atom(renaming[a.relation], a.terms) for a in d.atoms],
            d.comparisons,
            d.name,
        )
        for d in rewriting.disjuncts
    ]
    root_synthesis = UnionQuery(renamed_disjuncts, arity=arity, name="psi_root")
    head = tuple(Variable(f"x{i}") for i in range(arity))
    forward = UnionQuery.of(
        ConjunctiveQuery(head, [Atom(MSG, head)], (), "forward")
    )
    states = ["q_root"] + [child_of[c] for c in used]
    transitions = {"q_root": MediatorTransitionRule(targets)}
    synthesis = {"q_root": SynthesisRule(root_synthesis)}
    for component in used:
        transitions[child_of[component]] = MediatorTransitionRule()
        synthesis[child_of[component]] = SynthesisRule(forward)
    return Mediator(
        states,
        "q_root",
        transitions,
        synthesis,
        {c: components[c] for c in used},
        name=name,
    )


@traced("verify_cq_mediator", kind="mediator")
def verify_cq_mediator(
    goal: SWS,
    rewriting: UnionQuery,
    components: Mapping[str, SWS],
    horizon: int | None = None,
) -> bool:
    """Query-level equivalence of a depth-one mediator with the goal.

    For every session length n up to the horizon, the mediator's output
    query — the rewriting composed with the components' expansions at n —
    must be equivalent to the goal's expansion at n; at n = 0 the mediator
    is silent (its root is starved), so the goal's expansion must be
    unsatisfiable.
    """
    if horizon is None:
        horizon = saturation_length(goal)
    if expand(goal, 0).is_satisfiable():
        return False
    for n in range(1, horizon + 1):
        # Returns a bare bool where False is a sound "not equivalent", so
        # this function cannot absorb a trip itself; the checkpoint's trip
        # propagates to the guarded compose_cq_nr boundary.
        checkpoint("compose_cq_nr", depth=n)
        goal_q = expand(goal, n)
        definitions = {}
        for name, component in components.items():
            component_q = expand(component, n)
            definitions[name] = UnionQuery(
                component_q.disjuncts, arity=component_q.arity, name=name
            )
        mediator_q = compose_union(rewriting, definitions)
        if not (
            mediator_q.contained_in(goal_q) and goal_q.contained_in(mediator_q)
        ):
            return False
    return True


@traced("compose_cq_nr", kind="mediator")
@guarded()
def compose_cq_nr(goal: SWS, components: Mapping[str, SWS]) -> Answer:
    """Composition synthesis for all-nonrecursive CQ/UCQ services.

    Implements the Theorem 5.1(3) reduction (see module docstring).  A
    YES carries the synthesized mediator as its witness (its root
    synthesis is the rewriting), verified at the query level for every
    session length; a NO means no *depth-one* mediator exists over the
    canonical candidate space — complete for comparison-free services
    (classical rewriting completeness), candidate-based under ≠.
    """
    require_class(goal, SWSClass.CQ_UCQ_NR, "compose_cq_nr")
    for component in components.values():
        require_class(component, SWSClass.CQ_UCQ_NR, "compose_cq_nr")
        if component.db_schema != goal.db_schema:
            raise AnalysisError("components must share the goal's database schema")
    horizon = max(
        [saturation_length(goal)]
        + [saturation_length(c) for c in components.values()]
    )
    goal_q = expand(goal, horizon)
    views = []
    for name, component in components.items():
        checkpoint("compose_cq_nr", frontier=len(components))
        views.append(component_view(name, component, horizon))
    rewriting = equivalent_rewriting(goal_q, views)
    if rewriting is None:
        return Answer.no(detail="no equivalent rewriting over the views")
    if not verify_cq_mediator(goal, rewriting, components, horizon):
        return Answer.no(
            detail="rewriting found but fails session-length verification"
        )
    return Answer.yes(
        witness=mediator_from_ucq_rewriting(rewriting, components),
        detail=f"verified up to session length {horizon}",
    )


register_span(
    "compose_cq_nr",
    "per-view expansion loop and per-session-length verification loop",
    "Theorem 5.1(3): CQ/UCQ composition via equivalent query rewriting",
)
