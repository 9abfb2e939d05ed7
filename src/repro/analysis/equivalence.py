"""The equivalence problem (Section 4).

    Given τ1 and τ2 over the same schemas, is τ1(D, I) = τ2(D, I) for all
    D and I?

With a cost model, equivalence lets a cheaper service replace a dearer one.

* ``SWS(PL, PL)`` — :func:`equivalent_pl`: translate both services to AFAs
  over their *joint* input alphabet and search the product vector space for
  a disagreeing word (PSPACE; coNP on nonrecursive services, where vectors
  stabilize within depth+1 steps).
* ``SWS_nr(CQ, UCQ)`` — :func:`equivalent_cq_nr`: expand both services at
  every session length up to saturation and decide UCQ≠ equivalence by
  Klug-style containment both ways (the coNEXPTIME procedure of
  Theorem 4.1(2), built on the containment algorithm for nonrecursive
  queries with inequality).
* ``SWS(CQ, UCQ)`` — undecidable; :func:`equivalent_cq` compares expansions
  for session lengths up to a budget: NO with a witness length, or UNKNOWN.
* FO classes — undecidable; :func:`equivalent_fo_bounded` searches small
  instances for a distinguishing run.
"""

from __future__ import annotations

from repro.analysis.verdict import Answer
from repro.core.classes import SWSClass, classify, require_class
from repro.guard import checkpoint, guarded, register_span
from repro.obs import traced
from repro.core.pl_semantics import joint_variables, to_afa
from repro.core.run import run_relational
from repro.core.sws import SWS, SWSKind
from repro.core.unfold import expand, saturation_length
from repro.errors import AnalysisError


def _check_comparable(tau1: SWS, tau2: SWS) -> None:
    if tau1.kind is not tau2.kind:
        raise AnalysisError("equivalence requires services of the same kind")
    if tau1.kind is SWSKind.RELATIONAL:
        if tau1.db_schema != tau2.db_schema:
            raise AnalysisError("equivalence requires identical database schemas")
        assert tau1.input_schema is not None and tau2.input_schema is not None
        if tau1.input_schema.attributes != tau2.input_schema.attributes:
            raise AnalysisError("equivalence requires identical input schemas")
        if tau1.output_arity != tau2.output_arity:
            raise AnalysisError("equivalence requires identical output arities")


@traced("equivalent_pl", kind="analysis")
@guarded()
def equivalent_pl(tau1: SWS, tau2: SWS) -> Answer:
    """Exact equivalence for SWS(PL, PL) via the AFA product search.

    A NO answer carries a shortest distinguishing word over the joint
    alphabet.
    """
    require_class(tau1, SWSClass.PL_PL, "equivalent_pl")
    require_class(tau2, SWSClass.PL_PL, "equivalent_pl")
    variables = joint_variables(tau1, tau2)
    left = to_afa(tau1, variables)
    right = to_afa(tau2, variables)
    witness = left.difference_witness(right)
    if witness is None:
        return Answer.yes(detail="product vector space exhausted")
    return Answer.no(witness=list(witness), detail="distinguishing word")


@traced("equivalent_cq_nr", kind="analysis")
@guarded()
def equivalent_cq_nr(tau1: SWS, tau2: SWS) -> Answer:
    """Exact equivalence for SWS_nr(CQ, UCQ) via expansion containment.

    τ1 ≡ τ2 iff their expansions agree as UCQ≠ queries at every session
    length up to the joint saturation — beyond it both expansions are
    literally stable.
    """
    require_class(tau1, SWSClass.CQ_UCQ_NR, "equivalent_cq_nr")
    require_class(tau2, SWSClass.CQ_UCQ_NR, "equivalent_cq_nr")
    _check_comparable(tau1, tau2)
    horizon = max(saturation_length(tau1), saturation_length(tau2))
    for n in range(0, horizon + 1):
        checkpoint("equivalent_cq_nr", depth=n)
        q1 = expand(tau1, n)
        q2 = expand(tau2, n)
        if not q1.contained_in(q2):
            return Answer.no(detail=f"τ1 ⊄ τ2 at session length {n}")
        if not q2.contained_in(q1):
            return Answer.no(detail=f"τ2 ⊄ τ1 at session length {n}")
    return Answer.yes(detail=f"expansions agree up to saturation ({horizon})")


@traced("equivalent_cq", kind="analysis")
@guarded()
def equivalent_cq(tau1: SWS, tau2: SWS, max_session_length: int = 5) -> Answer:
    """Bounded equivalence for SWS(CQ, UCQ): NO with witness, or UNKNOWN.

    The problem is undecidable (Theorem 4.1(2)); expansions are compared
    for every session length up to the budget.  Nonrecursive pairs
    short-circuit to the exact procedure.
    """
    require_class(tau1, SWSClass.CQ_UCQ, "equivalent_cq")
    require_class(tau2, SWSClass.CQ_UCQ, "equivalent_cq")
    _check_comparable(tau1, tau2)
    if not tau1.is_recursive() and not tau2.is_recursive():
        return equivalent_cq_nr(tau1, tau2)
    for n in range(0, max_session_length + 1):
        checkpoint("equivalent_cq", depth=n)
        q1 = expand(tau1, n)
        q2 = expand(tau2, n)
        if not q1.contained_in(q2):
            return Answer.no(detail=f"τ1 ⊄ τ2 at session length {n}")
        if not q2.contained_in(q1):
            return Answer.no(detail=f"τ2 ⊄ τ1 at session length {n}")
    return Answer.unknown(
        detail=f"expansions agree up to session length {max_session_length}"
    )


@traced("equivalent_fo_bounded", kind="analysis")
@guarded()
def equivalent_fo_bounded(
    tau1: SWS,
    tau2: SWS,
    max_domain: int = 2,
    max_rows: int = 1,
    max_session_length: int = 2,
    max_runs: int = 20000,
) -> Answer:
    """Bounded equivalence for FO services: NO with witness, or UNKNOWN.

    Runs both services over the instances within the size bounds, at
    most ``max_runs`` of them, and compares outputs; a disagreement is a
    definitive NO (with the witness instance).  Resource limits come
    through ``guard=``.
    """
    from repro.analysis.nonemptiness import bounded_instances, bounded_search

    _check_comparable(tau1, tau2)
    if tau1.kind is not SWSKind.RELATIONAL:
        raise AnalysisError("equivalent_fo_bounded expects relational services")
    domain = list(range(max_domain)) + sorted(
        tau1.query_constants() | tau2.query_constants(), key=repr
    )
    answer = bounded_search(
        "equivalent_fo_bounded",
        bounded_instances(tau1, domain, max_rows, max_session_length),
        max_runs,
        lambda database, inputs: (
            run_relational(tau1, database, inputs).output.rows
            != run_relational(tau2, database, inputs).output.rows
        ),
    )
    if answer.is_yes:
        return Answer.no(
            witness=answer.witness, detail=f"outputs differ, {answer.detail}"
        )
    return answer


def equivalent(tau1: SWS, tau2: SWS, **kwargs) -> Answer:
    """Class-dispatching equivalence analysis.

    ``guard=`` (a :class:`repro.guard.Guard`, :class:`~repro.guard.Budget`
    or ``int`` step budget) is forwarded to every branch.
    """
    guard = kwargs.pop("guard", None)
    _check_comparable(tau1, tau2)
    cls = {classify(tau1), classify(tau2)}
    if cls <= {SWSClass.PL_PL, SWSClass.PL_PL_NR}:
        return equivalent_pl(tau1, tau2, guard=guard)
    if cls <= {SWSClass.CQ_UCQ_NR}:
        return equivalent_cq_nr(tau1, tau2, guard=guard)
    if cls <= {SWSClass.CQ_UCQ, SWSClass.CQ_UCQ_NR}:
        return equivalent_cq(tau1, tau2, guard=guard, **kwargs)
    return equivalent_fo_bounded(tau1, tau2, guard=guard, **kwargs)


register_span(
    "equivalent_cq_nr",
    "per-session-length expansion-containment loop",
    "Theorem 4.1(2): coNEXPTIME equivalence for SWS_nr(CQ, UCQ)",
)
register_span(
    "equivalent_cq",
    "bounded expansion-comparison loop",
    "Theorem 4.1(2): undecidable SWS(CQ, UCQ) equivalence, bounded",
)
register_span(
    "equivalent_fo_bounded",
    "bounded (D, I) disagreement search (one step per run)",
    "Theorem 4.1(1): undecidable FO equivalence, sound NO/UNKNOWN search",
)
