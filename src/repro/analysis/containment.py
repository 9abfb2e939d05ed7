"""Service containment: τ1(D, I) ⊆ τ2(D, I) for all D and I.

Containment is the one-sided version of the equivalence problem of
Section 4 (equivalence = mutual containment), and it is what the
query-rewriting view of composition (Section 5.2) manipulates directly:
a maximally-contained mediator is one whose runs are contained in the
goal's.  The procedures mirror the equivalence ones cell by cell:

* SWS(PL, PL) — product vector search for a word τ1 accepts and τ2
  rejects (PSPACE, exact);
* SWS_nr(CQ, UCQ) — expansion containment at every session length up to
  joint saturation (coNEXPTIME, exact);
* SWS(CQ, UCQ) — the same under a session-length budget (sound NO /
  UNKNOWN; the problem inherits undecidability from equivalence);
* FO classes — bounded instance search (sound NO / UNKNOWN).
"""

from __future__ import annotations

from collections import deque

from repro.analysis.verdict import Answer
from repro.core.classes import SWSClass, classify, require_class
from repro.guard import checkpoint, checkpoint_callable, guarded, register_span
from repro.obs import traced
from repro.core.pl_semantics import joint_variables, to_afa
from repro.core.sws import SWS
from repro.core.unfold import expand, saturation_length
from repro.errors import AnalysisError


@traced("contained_pl", kind="analysis")
@guarded()
def contained_pl(tau1: SWS, tau2: SWS) -> Answer:
    """Exact containment for SWS(PL, PL): L(τ1) ⊆ L(τ2).

    A NO answer carries a shortest word accepted by τ1 and rejected by τ2.
    """
    require_class(tau1, SWSClass.PL_PL, "contained_pl")
    require_class(tau2, SWSClass.PL_PL, "contained_pl")
    variables = joint_variables(tau1, tau2)
    left = to_afa(tau1, variables)
    right = to_afa(tau2, variables)
    start = (left.empty_word_vector(), right.empty_word_vector())
    seen: dict = {start: ()}
    queue = deque([start])
    order = sorted(left.alphabet, key=repr)
    ckpt = checkpoint_callable("contained_pl")
    n_popped = 0
    ckpt(0, queue)
    while queue:
        pair = queue.popleft()
        n_popped += 1
        ckpt(n_popped, queue)
        mine, theirs = pair
        word = seen[pair]
        if left.initial_condition.evaluate(mine) and not (
            right.initial_condition.evaluate(theirs)
        ):
            return Answer.no(witness=list(word), detail="separating word")
        for symbol in order:
            nxt = (left.pre_step(mine, symbol), right.pre_step(theirs, symbol))
            if nxt not in seen:
                seen[nxt] = (symbol,) + word
                queue.append(nxt)
    return Answer.yes(detail="product vector space exhausted")


@traced("contained_cq_nr", kind="analysis")
@guarded()
def contained_cq_nr(tau1: SWS, tau2: SWS) -> Answer:
    """Exact containment for SWS_nr(CQ, UCQ) via expansion containment."""
    require_class(tau1, SWSClass.CQ_UCQ_NR, "contained_cq_nr")
    require_class(tau2, SWSClass.CQ_UCQ_NR, "contained_cq_nr")
    horizon = max(saturation_length(tau1), saturation_length(tau2))
    for n in range(0, horizon + 1):
        checkpoint("contained_cq_nr", depth=n)
        if not expand(tau1, n).contained_in(expand(tau2, n)):
            return Answer.no(detail=f"τ1 ⊄ τ2 at session length {n}")
    return Answer.yes(detail=f"expansions contained up to saturation ({horizon})")


@traced("contained_cq", kind="analysis")
@guarded()
def contained_cq(tau1: SWS, tau2: SWS, max_session_length: int = 5) -> Answer:
    """Bounded containment for SWS(CQ, UCQ): NO is exact, else UNKNOWN."""
    require_class(tau1, SWSClass.CQ_UCQ, "contained_cq")
    require_class(tau2, SWSClass.CQ_UCQ, "contained_cq")
    if not tau1.is_recursive() and not tau2.is_recursive():
        return contained_cq_nr(tau1, tau2)
    for n in range(0, max_session_length + 1):
        checkpoint("contained_cq", depth=n)
        if not expand(tau1, n).contained_in(expand(tau2, n)):
            return Answer.no(detail=f"τ1 ⊄ τ2 at session length {n}")
    return Answer.unknown(
        detail=f"contained up to session length {max_session_length}"
    )


def contained(tau1: SWS, tau2: SWS, **kwargs) -> Answer:
    """Class-dispatching containment analysis.

    ``guard=`` (a :class:`repro.guard.Guard`, :class:`~repro.guard.Budget`
    or ``int`` step budget) is forwarded to every branch.
    """
    guard = kwargs.pop("guard", None)
    if tau1.kind is not tau2.kind:
        raise AnalysisError("containment requires services of the same kind")
    classes = {classify(tau1), classify(tau2)}
    if classes <= {SWSClass.PL_PL, SWSClass.PL_PL_NR}:
        return contained_pl(tau1, tau2, guard=guard)
    if classes <= {SWSClass.CQ_UCQ, SWSClass.CQ_UCQ_NR}:
        return contained_cq(tau1, tau2, guard=guard, **kwargs)
    # FO classes: containment inherits undecidability; reuse the bounded
    # disagreement search, weakened to one-sided checking.
    from repro.analysis.equivalence import equivalent_fo_bounded

    answer = equivalent_fo_bounded(tau1, tau2, guard=guard, **kwargs)
    if answer.is_no:
        database, inputs = answer.witness
        from repro.core.run import run_relational

        out1 = run_relational(tau1, database, inputs).output.rows
        out2 = run_relational(tau2, database, inputs).output.rows
        if not out1 <= out2:
            return Answer.no(witness=(database, inputs))
        return Answer.unknown(detail="difference found but not a ⊆-violation")
    return answer


register_span(
    "contained_pl",
    "product pair-BFS over both AFA vector spaces",
    "Section 4: PSPACE containment for SWS(PL, PL)",
)
register_span(
    "contained_cq_nr",
    "per-session-length expansion-containment loop",
    "Theorem 4.1(2): coNEXPTIME containment for SWS_nr(CQ, UCQ)",
)
register_span(
    "contained_cq",
    "bounded expansion-containment loop",
    "Theorem 4.1(2): undecidable SWS(CQ, UCQ) containment, bounded",
)
