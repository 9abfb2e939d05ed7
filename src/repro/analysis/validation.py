"""The validation problem (Section 4).

    Given τ and an instance O of the external schema, do there exist D and
    I such that τ(D, I) = O (exactly)?

Validation is used for e.g. fraud detection: can this observed transaction
be the result of a run of the service?

* ``SWS(PL, PL)`` — :func:`validate_pl`: O is a single truth value; both
  cases reduce to a vector search (Theorem 4.1(3) notes validation and
  non-emptiness coincide for O = true; O = false searches for a rejected
  word over the same vector space).
* ``SWS_nr(CQ, UCQ)`` — :func:`validate_cq_nr`: the NEXPTIME small-model
  procedure, guided by the expansion: for every session length up to
  saturation and every assignment of output tuples to expansion disjuncts,
  freeze the chosen disjunct bodies with the head mapped to the tuple, and
  re-run the candidate instance.  The search enumerates identifications of
  the frozen nulls with output constants up to a budget; exceeding it
  yields UNKNOWN (the problem is NEXPTIME-complete, so the exponential
  candidate space is inherent).
* ``SWS(CQ, UCQ)`` and FO classes — undecidable; bounded variants.
"""

from __future__ import annotations

import itertools
from typing import Any, Iterable, Sequence

from repro.analysis.verdict import Answer, Verdict
from repro.automata.afa import AFA
from repro.core.classes import SWSClass, classify, require_class
from repro.guard import checkpoint, ensure_guard, guarded, register_span
from repro.obs import traced
from repro.core.pl_semantics import to_afa
from repro.core.run import run_relational
from repro.core.sws import SWS, SWSKind
from repro.core.unfold import expand, saturation_length
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Row
from repro.errors import AnalysisError
from repro.logic.cq import ConjunctiveQuery, LabeledNull
from repro.logic.terms import Constant


@traced("validate_pl_nr_sat", kind="analysis")
@guarded()
def validate_pl_nr_sat(sws: SWS, output: bool) -> Answer:
    """Exact validation for SWS_nr(PL, PL) via SAT (the NP procedure).

    ``O = true`` asks for an accepted input — the non-emptiness encoding;
    ``O = false`` asks for a rejected one — the negated value formula.
    Session lengths 0..depth+1 suffice: a nonrecursive service's value on
    longer inputs equals its value at length depth+1 (no node reads
    further), so a witness of either polarity exists at some bounded
    length iff it exists at all.
    """
    from repro.analysis.nonemptiness import pl_nr_value_formula
    from repro.core.run import run_pl
    from repro.logic import pl
    from repro.logic.sat import model as sat_model

    require_class(sws, SWSClass.PL_PL_NR, "validate_pl_nr_sat")
    variables = sorted(sws.input_variables())
    for n in range(0, sws.depth() + 2):
        checkpoint("validate_pl_nr_sat", depth=n)
        formula = pl_nr_value_formula(sws, n)
        target = formula if output else pl.Not(formula)
        assignment = sat_model(target)
        if assignment is None:
            continue
        word = [
            frozenset(v for v in variables if f"in{j}_{v}" in assignment)
            for j in range(1, n + 1)
        ]
        if run_pl(sws, word).output != output:
            raise AnalysisError("SAT witness failed re-execution (encoding bug)")
        return Answer.yes(witness=word, detail=f"SAT at session length {n}")
    return Answer.no(
        detail=f"no session up to depth+1 outputs {str(output).lower()}"
    )


@traced("validate_pl", kind="analysis")
@guarded()
def validate_pl(sws: SWS, output: bool) -> Answer:
    """Exact validation for SWS(PL, PL).

    Searches the valuation-vector space for a word with the requested
    output value; BFS yields a shortest witness.
    """
    require_class(sws, SWSClass.PL_PL, "validate_pl")
    return validation_answer(to_afa(sws), output)


def validation_answer(afa: AFA, output: bool) -> Answer:
    """:func:`validate_pl`'s answer for the service whose :func:`to_afa` is ``afa``.

    The vector search and its verdict, apart from the translation:
    :mod:`repro.delta` answers from an automaton it keeps.
    """
    if output:
        witness = afa.accepting_witness()
        if witness is None:
            return Answer.no(detail="service accepts nothing")
        return Answer.yes(witness=list(witness))
    # Search for a rejected word: same reachability, inverted acceptance.
    witness = afa.rejecting_witness()
    if witness is None:
        return Answer.no(detail="service accepts every word")
    return Answer.yes(witness=list(witness))


def _freeze_disjunct_for_tuple(
    disjunct: ConjunctiveQuery, row: Row, null_offset: int
) -> dict[str, set[Row]] | None:
    """Freeze a disjunct's body with its head unified against ``row``.

    Head variables take the row's values; other variables become fresh
    labeled nulls (offset to stay disjoint across choices).  Returns the
    facts, or ``None`` when the head cannot match the row (constant clash
    or inequality violation).
    """
    normalized = disjunct.normalized()
    if normalized is None:
        return None
    freeze: dict[Any, Any] = {}
    for term, value in zip(normalized.head, row):
        if isinstance(term, Constant):
            if term.value != value:
                return None
            continue
        bound = freeze.get(term)
        if bound is None:
            freeze[term] = value
        elif bound != value:
            return None
    for i, variable in enumerate(sorted(normalized.variables())):
        freeze.setdefault(variable, LabeledNull(null_offset + i))
    if not normalized._inequalities_hold(freeze):
        return None
    facts, _head = normalized._freeze(freeze)
    return facts


def _candidate_instances(
    sws: SWS,
    disjuncts: Sequence[ConjunctiveQuery],
    output_rows: Sequence[Row],
    session_length: int,
    merge_budget: int,
) -> Iterable[tuple[Database, InputSequence]]:
    """Candidate (D, I) instances covering every output tuple.

    One disjunct choice per output row; nulls are either left fresh (the
    most general candidate) or merged with output constants, up to
    ``merge_budget`` merge patterns per choice.
    """
    from repro.analysis.nonemptiness import witness_from_disjunct  # noqa: F401

    choices = itertools.product(range(len(disjuncts)), repeat=len(output_rows))
    for choice in choices:
        facts: dict[str, set[Row]] = {}
        failed = False
        offset = 0
        for row, index in zip(output_rows, choice):
            frozen = _freeze_disjunct_for_tuple(disjuncts[index], row, offset)
            offset += 1000
            if frozen is None:
                failed = True
                break
            for relation, rows in frozen.items():
                facts.setdefault(relation, set()).update(rows)
        if failed:
            continue
        yield _facts_to_instance(sws, facts, session_length)
        # Merged variants: map every null to each output constant in turn
        # (a limited identification enumeration; the full NEXPTIME search
        # would consider all partitions).
        constants = sorted(
            {v for row in output_rows for v in row}, key=repr
        )
        nulls = sorted(
            {
                v
                for rows in facts.values()
                for row in rows
                for v in row
                if isinstance(v, LabeledNull)
            },
            key=lambda n: n.index,
        )
        produced = 0
        for null in nulls:
            for constant in constants:
                if produced >= merge_budget:
                    break
                merged: dict[str, set[Row]] = {
                    rel: {
                        tuple(constant if v == null else v for v in row)
                        for row in rows
                    }
                    for rel, rows in facts.items()
                }
                produced += 1
                yield _facts_to_instance(sws, merged, session_length)


def _facts_to_instance(
    sws: SWS, facts: dict[str, set[Row]], session_length: int
) -> tuple[Database, InputSequence]:
    def concrete(value: Any) -> Any:
        if isinstance(value, LabeledNull):
            return f"@null{value.index}"
        return value

    db_contents: dict[str, list[tuple]] = {}
    messages: dict[int, list[tuple]] = {}
    for relation, rows in facts.items():
        rows_c = [tuple(concrete(v) for v in row) for row in rows]
        if relation.startswith("In_"):
            j = int(relation.split("_", 1)[1])
            messages.setdefault(j, []).extend(rows_c)
        else:
            db_contents.setdefault(relation, []).extend(rows_c)
    database = Database(sws.db_schema, db_contents)
    assert sws.input_schema is not None
    inputs = InputSequence(
        sws.input_schema,
        [messages.get(j, []) for j in range(1, session_length + 1)],
    )
    return database, inputs


@traced("validate_cq_nr", kind="analysis")
@guarded()
def validate_cq_nr(
    sws: SWS,
    output_rows: Iterable[Row],
    merge_budget: int = 64,
) -> Answer:
    """Validation for SWS_nr(CQ, UCQ): the guided small-model search.

    Exact NO for the empty output requires only running the empty instance
    family; for nonempty outputs the procedure is sound (verified YES by
    re-execution) and reports UNKNOWN when the candidate space is exhausted
    without a hit — completeness would need the full exponential
    identification enumeration the NEXPTIME bound licenses.
    """
    require_class(sws, SWSClass.CQ_UCQ_NR, "validate_cq_nr")
    rows = sorted({tuple(r) for r in output_rows}, key=repr)
    if sws.output_arity is not None:
        for row in rows:
            if len(row) != sws.output_arity:
                raise AnalysisError(
                    f"output row {row} has arity {len(row)}, "
                    f"expected {sws.output_arity}"
                )
    assert sws.input_schema is not None
    if not rows:
        # Exact: the run on the all-empty instance is the canonical
        # candidate — every query is positive, so if any instance yields an
        # empty output the empty instance does.
        empty = Database.empty(sws.db_schema)
        no_input = InputSequence(sws.input_schema, [])
        if not run_relational(sws, empty, no_input).output:
            return Answer.yes(witness=(empty, no_input))
        return Answer.no(detail="even the empty instance produces output")
    target = frozenset(rows)
    for n in range(0, saturation_length(sws) + 1):
        expansion = expand(sws, n)
        disjuncts = [d for d in expansion.disjuncts if d.is_satisfiable()]
        if not disjuncts:
            continue
        for database, inputs in _candidate_instances(
            sws, disjuncts, rows, n, merge_budget
        ):
            checkpoint("validate_cq_nr", frontier=len(disjuncts), depth=n)
            if run_relational(sws, database, inputs).output.rows == target:
                return Answer.yes(witness=(database, inputs), detail=f"n={n}")
    return Answer.unknown(detail="candidate space exhausted")


def validate(sws: SWS, output, **kwargs) -> Answer:
    """Class-dispatching validation analysis.

    ``output`` is a boolean for PL services and an iterable of output rows
    for relational ones.  ``guard=`` (a :class:`repro.guard.Guard`,
    :class:`~repro.guard.Budget` or legacy ``int`` step budget) is
    forwarded to every branch.
    """
    guard = kwargs.pop("guard", None)
    cls = classify(sws)
    if cls in (SWSClass.PL_PL, SWSClass.PL_PL_NR):
        return validate_pl(sws, bool(output), guard=guard)
    if cls is SWSClass.CQ_UCQ_NR:
        return validate_cq_nr(sws, output, guard=guard, **kwargs)
    # Recursive CQ and FO validation are undecidable (Theorem 4.1(1)-(2));
    # fall back to a bounded search through candidate session lengths.
    return _validate_bounded(sws, output, guard=guard, **kwargs)


@traced("validate_fo_bounded", kind="analysis")
@guarded()
def _validate_bounded(
    sws: SWS,
    output_rows: Iterable[Row],
    max_session_length: int = 3,
    max_domain: int = 2,
    max_rows: int = 1,
    budget=20000,
) -> Answer:
    """Bounded validation for undecidable classes: sound YES / UNKNOWN.

    ``budget`` caps the search: a legacy ``int`` counts runs, a
    :class:`repro.guard.Budget`/:class:`~repro.guard.Guard` adds deadline
    and memory ceilings.
    """
    from repro.analysis.nonemptiness import _small_databases

    if sws.kind is not SWSKind.RELATIONAL:
        raise AnalysisError("_validate_bounded expects a relational SWS")
    assert sws.input_schema is not None
    target = frozenset(tuple(r) for r in output_rows)
    domain_values: list[Any] = list(range(max_domain))
    domain_values.extend(
        sorted(
            {v for row in target for v in row} | set(sws.query_constants()),
            key=repr,
        )
    )
    arity = sws.input_schema.arity
    message_pool = list(itertools.product(domain_values, repeat=arity))
    runs = 0
    with ensure_guard(budget).activate():
        for database in _small_databases(sws, domain_values, max_rows):
            for n in range(0, max_session_length + 1):
                for combo in itertools.product(
                    [()] + [(m,) for m in message_pool], repeat=n
                ):
                    inputs = InputSequence(
                        sws.input_schema, [list(c) for c in combo]
                    )
                    runs += 1
                    checkpoint("validate_fo_bounded", depth=n)
                    if run_relational(sws, database, inputs).output.rows == target:
                        return Answer.yes(witness=(database, inputs))
    return Answer.unknown(detail=f"exhausted bounds after {runs} runs")


register_span(
    "validate_pl_nr_sat",
    "per-session-length SAT loop (both output polarities)",
    "Theorem 4.1(3): NP validation for SWS_nr(PL, PL)",
)
register_span(
    "validate_cq_nr",
    "guided candidate-instance loop",
    "Theorem 4.1(2): NEXPTIME validation for SWS_nr(CQ, UCQ)",
)
register_span(
    "validate_fo_bounded",
    "bounded (D, I) instance enumeration (one step per run)",
    "Theorem 4.1(1): undecidable validation cells, sound YES/UNKNOWN",
)
