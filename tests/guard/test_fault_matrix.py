"""Fault-injection matrix: every guarded span survives forced exhaustion.

The acceptance criterion of the robustness work: for every registered
checkpoint site, forcing a step/deadline/memory/cancellation trip at its
first checkpoint makes the enclosing procedure return an UNKNOWN answer
carrying that trip — no crash, no hang.  Raising-only sites instead
raise a :class:`~repro.errors.BudgetExceededError` with ``budget``
populated.

The EXERCISERS table is asserted complete against the registry, so a new
checkpoint site cannot land without matrix coverage.
"""

import pytest

from repro.analysis.containment import contained_cq, contained_cq_nr, contained_pl
from repro.analysis.equivalence import (
    equivalent_cq,
    equivalent_cq_nr,
    equivalent_fo_bounded,
    equivalent_pl,
)
from repro.analysis.nonemptiness import (
    nonempty_cq,
    nonempty_cq_nr,
    nonempty_fo_bounded,
    nonempty_pl,
    nonempty_pl_nr_sat,
)
from repro.analysis.validation import validate, validate_cq_nr, validate_pl_nr_sat
from repro.analysis.verdict import Verdict
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.delta import Session
from repro.errors import BudgetExceededError
from repro.guard import GUARDED_SPANS, LIMITS
from repro.guard.inject import injected
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.logic.cq import Atom, ConjunctiveQuery
from repro.logic.rewriting import (
    View,
    certain_answers,
    equivalent_rewriting,
    maximally_contained_rewriting,
)
from repro.logic.terms import var
from repro.logic.ucq import UnionQuery
from repro.mediator.bounded import compose_mdtb_pl
from repro.mediator.rewriting_based import compose_cq_nr
from repro.mediator.synthesis import compose_pl_prefix, compose_pl_regular
from repro.workloads.pl_services import HASH, union_word_service, word_service
from repro.workloads.scaling import cq_chain_sws, cq_diamond_sws, pl_counter_sws
from repro.workloads.travel import travel_service

ALPHA = ["a", "b"]

x, y, z = var("x"), var("y"), var("z")


def _pl_components():
    return {
        "X": word_service(["a", HASH], ALPHA, "X"),
        "Y": word_service(["b", HASH], ALPHA, "Y"),
    }


def _pl_goal():
    return union_word_service([["a", HASH, "b", HASH]], ALPHA, "seq")


def _emit_service(relation: str, name: str) -> SWS:
    from repro.core.sws import MSG
    from repro.workloads.random_sws import DEFAULT_CQ_SCHEMA, DEFAULT_PAYLOAD

    first = ConjunctiveQuery((x, y), [Atom("In", (x, y))], (), "copy")
    up = UnionQuery.of(ConjunctiveQuery((x, y), [Atom("A1", (x, y))], (), "up"))
    emit = UnionQuery.of(
        ConjunctiveQuery(
            (x, z), [Atom(MSG, (x, y)), Atom(relation, (y, z))], (), f"e{relation}"
        )
    )
    return SWS(
        ("q0", "q1"),
        "q0",
        {"q0": TransitionRule([("q1", first)]), "q1": TransitionRule()},
        {"q0": SynthesisRule(up), "q1": SynthesisRule(emit)},
        kind=SWSKind.RELATIONAL,
        db_schema=DEFAULT_CQ_SCHEMA,
        input_schema=DEFAULT_PAYLOAD,
        output_arity=2,
        name=name,
    )


def _compose_cq_case():
    components = {"VR": _emit_service("R", "VR"), "VS": _emit_service("S", "VS")}
    return compose_cq_nr(_emit_service("R", "goal"), components)


def _delta_recheck_case():
    from repro.workloads.editing import flip_trace

    # The initial solve runs under the afa.* spans; the YES → NO edit
    # defeats witness replay, so the re-check enters the warm BFS whose
    # checkpoints carry the delta.recheck site.
    trace = flip_trace()
    session = Session(trace[0])
    session.check()
    session.edit(trace[1])
    return session.recheck().answer


#: span name -> zero-argument exerciser reaching that span's checkpoint
#: through a guarded (UNKNOWN-converting) procedure boundary.
EXERCISERS = {
    "afa.search_witness": lambda: nonempty_pl(pl_counter_sws(2)),
    "afa.difference_witness": lambda: equivalent_pl(
        pl_counter_sws(2), pl_counter_sws(2)
    ),
    "afa.reachable_vectors": lambda: compose_pl_regular(
        _pl_goal(), _pl_components()
    ),
    "nfa.determinize": lambda: compose_mdtb_pl(
        _pl_goal(), _pl_components(), invocation_bound=1
    ),
    "dfa.product": lambda: compose_mdtb_pl(
        _pl_goal(), _pl_components(), invocation_bound=1
    ),
    "regular_rewriting.rewrite": lambda: compose_pl_regular(
        _pl_goal(), _pl_components()
    ),
    "boolean_language_combination": lambda: compose_mdtb_pl(
        _pl_goal(), _pl_components(), invocation_bound=1
    ),
    "compose_mdtb_pl": lambda: compose_mdtb_pl(
        _pl_goal(), _pl_components(), invocation_bound=1
    ),
    "compose_pl_prefix": lambda: compose_pl_prefix(_pl_goal(), _pl_components()),
    "compose_cq_nr": _compose_cq_case,
    "delta.recheck": _delta_recheck_case,
    "contained_pl": lambda: contained_pl(pl_counter_sws(2), pl_counter_sws(2)),
    "contained_cq_nr": lambda: contained_cq_nr(
        cq_diamond_sws(1), cq_diamond_sws(1)
    ),
    "contained_cq": lambda: contained_cq(
        cq_chain_sws(0), cq_chain_sws(0), max_session_length=2
    ),
    "equivalent_cq_nr": lambda: equivalent_cq_nr(
        cq_diamond_sws(1), cq_diamond_sws(1)
    ),
    "equivalent_cq": lambda: equivalent_cq(
        cq_chain_sws(0), cq_chain_sws(0), max_session_length=2
    ),
    "equivalent_fo_bounded": lambda: equivalent_fo_bounded(
        travel_service(),
        travel_service(),
        max_domain=1,
        max_rows=1,
        max_session_length=1,
        max_runs=500,
    ),
    "nonempty_pl_nr_sat": lambda: nonempty_pl_nr_sat(
        word_service(["a", HASH], ALPHA, "X")
    ),
    "nonempty_cq_nr": lambda: nonempty_cq_nr(cq_diamond_sws(1)),
    "nonempty_cq": lambda: nonempty_cq(cq_chain_sws(0), max_session_length=2),
    "nonempty_fo_bounded": lambda: nonempty_fo_bounded(
        travel_service(), max_runs=500, max_session_length=1
    ),
    "validate_pl_nr_sat": lambda: validate_pl_nr_sat(
        word_service(["a", HASH], ALPHA, "X"), True
    ),
    "validate_cq_nr": lambda: validate_cq_nr(
        cq_diamond_sws(1), [("0", "0")], merge_budget=4
    ),
    "validate_fo_bounded": lambda: validate(
        travel_service(), [], max_runs=200, max_session_length=1
    ),
}


def _join_views():
    return [
        View(ConjunctiveQuery((x, y), [Atom("E", (x, y))], (), "V1")),
        View(
            ConjunctiveQuery(
                (x, z), [Atom("E", (x, y)), Atom("E", (y, z))], (), "V2"
            )
        ),
    ]


def _two_hop_query():
    return UnionQuery.of(
        ConjunctiveQuery((x, z), [Atom("E", (x, y)), Atom("E", (y, z))])
    )


#: raising-only spans -> exerciser calling the raising public entry point.
RAISING_EXERCISERS = {
    "sat.solve_cnf": lambda: nonempty_pl_nr_sat(
        word_service(["a", HASH], ALPHA, "X")
    ),
    "rewriting.maximally_contained": lambda: maximally_contained_rewriting(
        _two_hop_query(), _join_views()
    ),
    "rewriting.equivalent": lambda: equivalent_rewriting(
        _two_hop_query(), _join_views()
    ),
    "rewriting.certain_answers": lambda: certain_answers(
        _two_hop_query(),
        [View(ConjunctiveQuery((x, y), [Atom("E", (x, y))], (), "V1"))],
        {"V1": Relation(RelationSchema("V1", ("a", "b")), [(1, 2), (2, 3)])},
    ),
}


def _registered(raising: bool):
    return sorted(
        name
        for name, span in GUARDED_SPANS.items()
        if span.raising_only is raising
    )


class TestMatrixCoverage:
    def test_every_unknown_converting_span_has_an_exerciser(self):
        assert sorted(EXERCISERS) == _registered(raising=False)

    def test_every_raising_span_has_an_exerciser(self):
        assert sorted(RAISING_EXERCISERS) == _registered(raising=True)


@pytest.mark.parametrize("span", sorted(EXERCISERS))
@pytest.mark.parametrize("limit", LIMITS)
def test_injected_exhaustion_yields_unknown(span, limit):
    """Trip at the first checkpoint: the procedure must answer UNKNOWN."""
    with injected(span, at=1, limit=limit) as plan:
        result = EXERCISERS[span]()
    assert plan.fired, f"exerciser never reached a {span} checkpoint"
    assert result.verdict is Verdict.UNKNOWN
    assert span in result.detail
    assert result.trip is not None
    assert result.trip.limit == limit
    assert result.trip.injected


@pytest.mark.parametrize("span", sorted(EXERCISERS))
@pytest.mark.parametrize("at", [2, 5])
def test_injected_mid_search_never_crashes(span, at):
    """Deeper checkpoints: UNKNOWN when reached, sound completion when not."""
    with injected(span, at=at, limit="steps") as plan:
        result = EXERCISERS[span]()
    if plan.fired:
        assert result.verdict is Verdict.UNKNOWN
    else:
        # The search finished before its at-th checkpoint; any completed
        # verdict (including a legitimately bounded UNKNOWN) is fine — the
        # point is that it returned instead of crashing or hanging.
        assert result.verdict in (Verdict.YES, Verdict.NO, Verdict.UNKNOWN)


@pytest.mark.parametrize("span", sorted(RAISING_EXERCISERS))
def test_raising_variants_raise_populated_budget_errors(span):
    with injected(span, at=1, limit="steps") as plan:
        # Direct rewriting/sat callers see the raise; guarded boundaries
        # (nonempty_pl_nr_sat, compose_cq_nr) convert it instead.
        try:
            result = RAISING_EXERCISERS[span]()
        except BudgetExceededError as error:
            assert error.budget is not None
            assert error.limit == "steps"
            assert "[limit=steps]" in str(error)
        else:
            assert result.verdict is Verdict.UNKNOWN
    assert plan.fired, f"exerciser never reached a {span} checkpoint"
