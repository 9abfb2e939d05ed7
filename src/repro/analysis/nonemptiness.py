"""The non-emptiness problem (Section 4).

    Given τ, do there exist a database D and an input sequence I such that
    τ(D, I) is nonempty?

Procedures per class, matching Theorem 4.1:

* ``SWS(PL, PL)`` — :func:`nonempty_pl`: translate to an AFA over
  (state, register) pairs and search the valuation-vector space (the PSPACE
  algorithm; the search is breadth-first, so witnesses are shortest).
* ``SWS_nr(PL, PL)`` — :func:`nonempty_pl_nr_sat`: unfold the bounded-depth
  run into a propositional formula over per-step input variables and ask
  DPLL (the NP upper bound made literal).
* ``SWS_nr(CQ, UCQ)`` — :func:`nonempty_cq_nr`: expand into UCQ≠ at the
  saturation length and test disjunct satisfiability; a satisfiable
  disjunct's canonical instance decodes into a concrete witness (D, I).
* ``SWS(CQ, UCQ)`` — :func:`nonempty_cq`: iterate the expansion over
  session lengths (sound and complete in the limit; EXPTIME-complete with
  the exponential length bound, so the budget is explicit).
* ``SWS(FO, FO)`` — :func:`nonempty_fo_bounded`: undecidable; bounded
  instance search, sound YES / UNKNOWN.  Its loop, :func:`bounded_search`
  over :func:`bounded_instances`, also runs the bounded FO equivalence
  and validation searches.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.analysis.verdict import Answer
from repro.automata.afa import AFA
from repro.core.classes import SWSClass, classify, is_in_class, require_class
from repro.guard import checkpoint, guarded, register_span
from repro.obs import traced
from repro.core.pl_semantics import to_afa
from repro.core.run import run, run_pl, run_relational
from repro.core.sws import MSG, SWS, SWSKind
from repro.core.unfold import expand, input_relation_name, saturation_length
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.errors import AnalysisError
from repro.logic import pl
from repro.logic.cq import ConjunctiveQuery, LabeledNull
from repro.logic.sat import model as sat_model
from repro.logic.terms import Variable


# -- PL ------------------------------------------------------------------------


@traced("nonempty_pl", kind="analysis")
@guarded()
def nonempty_pl(sws: SWS) -> Answer:
    """Exact non-emptiness for SWS(PL, PL) via the AFA vector search."""
    require_class(sws, SWSClass.PL_PL, "nonempty_pl")
    return nonempty_answer(to_afa(sws))


def nonempty_answer(afa: AFA) -> Answer:
    """:func:`nonempty_pl`'s answer for the service whose :func:`to_afa` is ``afa``.

    The vector search and its verdict, apart from the translation:
    :mod:`repro.delta` answers from an automaton it keeps.
    """
    witness = afa.accepting_witness()
    if witness is None:
        return Answer.no(detail="vector space exhausted")
    return Answer.yes(witness=list(witness), detail="AFA vector search")


def _input_substitution(
    variables: Sequence[str], j: int, in_range: bool
) -> dict[str, pl.Formula]:
    if in_range:
        return {v: pl.Var(f"in{j}_{v}") for v in variables}
    return {v: pl.FALSE for v in variables}


def pl_nr_value_formula(sws: SWS, session_length: int) -> pl.Formula:
    """τ's output on a symbolic input of length ``n`` as a PL formula.

    Variables ``in{j}_{v}`` encode "input variable v is true in Ij".  The
    formula is satisfiable iff some length-``n`` input makes τ output true.
    """
    require_class(sws, SWSClass.PL_PL_NR, "pl_nr_value_formula")
    variables = sorted(sws.input_variables())
    n = session_length

    def value(state: str, j: int, msg: pl.Formula) -> pl.Formula:
        rule = sws.transitions[state]
        sigma = sws.synthesis[state].query
        assert isinstance(sigma, pl.Formula)
        if rule.is_final:
            substitution = _input_substitution(variables, j, j <= n)
            substitution[MSG] = msg
            return sigma.substitute(substitution).simplify()
        if j > n:
            return pl.FALSE
        substitution = _input_substitution(variables, j, True)
        substitution[MSG] = msg
        child_values: list[pl.Formula] = []
        for target, phi in rule.targets:
            assert isinstance(phi, pl.Formula)
            child_msg = phi.substitute(substitution).simplify()
            child_values.append(value(target, j + 1, child_msg))
        register_sub = {
            name: child_values[position]
            for name, position in sws.successor_register_aliases(state).items()
        }
        gathered = sigma.substitute(register_sub).simplify()
        if state == sws.start:
            return gathered
        return (msg & gathered).simplify()

    return value(sws.start, 1, pl.FALSE)


@traced("nonempty_pl_nr_sat", kind="analysis")
@guarded()
def nonempty_pl_nr_sat(sws: SWS) -> Answer:
    """Exact non-emptiness for SWS_nr(PL, PL) via SAT (the NP procedure).

    Tries session lengths 0..depth+1 — beyond the dependency depth no input
    message is ever consumed, so longer sessions add nothing.
    """
    require_class(sws, SWSClass.PL_PL_NR, "nonempty_pl_nr_sat")
    variables = sorted(sws.input_variables())
    for n in range(0, sws.depth() + 2):
        checkpoint("nonempty_pl_nr_sat", depth=n)
        formula = pl_nr_value_formula(sws, n)
        assignment = sat_model(formula)
        if assignment is None:
            continue
        word = [
            frozenset(v for v in variables if f"in{j}_{v}" in assignment)
            for j in range(1, n + 1)
        ]
        # Defensive cross-check: the decoded word must actually be accepted.
        if not run_pl(sws, word).output:
            raise AnalysisError("SAT witness failed re-execution (encoding bug)")
        return Answer.yes(witness=word, detail=f"SAT at session length {n}")
    return Answer.no(detail="all session lengths up to depth+1 UNSAT")


# -- CQ/UCQ --------------------------------------------------------------------


def witness_from_disjunct(
    sws: SWS, disjunct: ConjunctiveQuery, session_length: int
) -> tuple[Database, InputSequence]:
    """Decode a satisfiable expansion disjunct into a concrete (D, I).

    The disjunct's canonical instance supplies the facts; labeled nulls
    become fresh string values distinct from every constant.
    """
    canonical = disjunct.canonical_instance()
    if canonical is None:
        raise AnalysisError("cannot decode witness from unsatisfiable disjunct")
    facts, _head = canonical

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


@traced("nonempty_cq_nr", kind="analysis")
@guarded()
def nonempty_cq_nr(sws: SWS) -> Answer:
    """Exact non-emptiness for SWS_nr(CQ, UCQ) via the UCQ≠ expansion.

    By positivity the output is monotone in the session length, so only the
    saturation length must be checked; a satisfiable disjunct yields a
    verified witness.
    """
    require_class(sws, SWSClass.CQ_UCQ_NR, "nonempty_cq_nr")
    n = saturation_length(sws)
    expansion = expand(sws, n)
    for disjunct in expansion.disjuncts:
        checkpoint("nonempty_cq_nr", frontier=len(expansion.disjuncts), depth=n)
        if not disjunct.is_satisfiable():
            continue
        database, inputs = witness_from_disjunct(sws, disjunct, n)
        result = run_relational(sws, database, inputs)
        if not result.output:
            raise AnalysisError("expansion witness failed re-execution")
        return Answer.yes(witness=(database, inputs), detail=f"disjunct at n={n}")
    return Answer.no(detail=f"expansion at saturation length {n} unsatisfiable")


@traced("nonempty_cq", kind="analysis")
@guarded()
def nonempty_cq(sws: SWS, max_session_length: int = 6) -> Answer:
    """Non-emptiness for SWS(CQ, UCQ) by iterated unfolding.

    Sound and complete up to ``max_session_length``; the true completeness
    threshold is exponential in the service size (the EXPTIME bound of
    Theorem 4.1(2)), so exceeding the budget yields UNKNOWN.  Nonrecursive
    services short-circuit to the exact procedure.
    """
    require_class(sws, SWSClass.CQ_UCQ, "nonempty_cq")
    if not sws.is_recursive():
        return nonempty_cq_nr(sws)
    for n in range(0, max_session_length + 1):
        checkpoint("nonempty_cq", depth=n)
        expansion = expand(sws, n)
        for disjunct in expansion.disjuncts:
            checkpoint(
                "nonempty_cq", frontier=len(expansion.disjuncts), depth=n
            )
            if not disjunct.is_satisfiable():
                continue
            database, inputs = witness_from_disjunct(sws, disjunct, n)
            result = run_relational(sws, database, inputs)
            if not result.output:
                raise AnalysisError("expansion witness failed re-execution")
            return Answer.yes(witness=(database, inputs), detail=f"n={n}")
    return Answer.unknown(
        detail=f"no witness up to session length {max_session_length}"
    )


# -- FO ------------------------------------------------------------------------


def _small_databases(sws: SWS, domain: Sequence[Any], max_rows: int):
    """Deterministic small-database enumeration for bounded FO search.

    Yields the empty database, the full database (all tuples over the
    domain, capped), and every database whose relations hold at most
    ``max_rows`` tuples drawn in a fixed order — feasible only for tiny
    domains, which is what undecidability leaves us.  Each database is
    yielded exactly once: the subset product below regenerates the empty
    database (all-empty choice) and, when every relation fits in
    ``max_rows``, the full one, and re-running those would silently burn
    the caller's budget on duplicates.
    """
    schema = sws.db_schema
    names = list(schema)
    yield Database.empty(schema)
    empty_key = tuple(frozenset() for _ in names)
    full = {
        name: list(itertools.product(domain, repeat=schema[name].arity))
        for name in schema
    }
    full_key = tuple(frozenset(full[name]) for name in names)
    if full_key != empty_key:
        yield Database(schema, full)
    already_yielded = {empty_key, full_key}
    per_relation: list[list[tuple]] = []
    for name in names:
        tuples = list(itertools.product(domain, repeat=schema[name].arity))
        subsets: list[tuple] = []
        for r in range(0, min(max_rows, len(tuples)) + 1):
            subsets.extend(itertools.combinations(tuples, r))
        per_relation.append(subsets)
    for combo in itertools.product(*per_relation):
        key = tuple(frozenset(c) for c in combo)
        if key in already_yielded:
            continue
        yield Database(schema, dict(zip(names, [list(c) for c in combo])))


def bounded_instances(
    sws: SWS, domain: Sequence[Any], max_rows: int, max_session_length: int
) -> Iterator[tuple[Database, InputSequence]]:
    """The (D, I) pairs the bounded FO searches run, in a fixed order.

    For every small database (:func:`_small_databases`), every input
    sequence of length 0..``max_session_length`` whose messages are empty
    or hold one tuple over ``domain``.
    """
    assert sws.input_schema is not None
    messages = itertools.product(domain, repeat=sws.input_schema.arity)
    choices = [()] + [(m,) for m in messages]
    for database in _small_databases(sws, domain, max_rows):
        for n in range(0, max_session_length + 1):
            for combo in itertools.product(choices, repeat=n):
                yield database, InputSequence(
                    sws.input_schema, [list(c) for c in combo]
                )


def bounded_search(
    site: str,
    instances: Iterable[tuple[Database, InputSequence]],
    max_runs: int,
    hit: Callable[[Database, InputSequence], bool],
) -> Answer:
    """The bounded FO searches' one loop: the first instance ``hit`` accepts.

    Each run is one checkpoint step at ``site``, so a guard's step budget
    bounds the runs too.  Returns YES with the instance as witness, or
    UNKNOWN without a trip when the instances run out or ``max_runs``
    runs (a bound of the question, like the size bounds) are made.
    """
    runs = 0
    for database, inputs in instances:
        if runs == max_runs:
            return Answer.unknown(detail=f"run bound reached after {runs} runs")
        runs += 1
        checkpoint(site, depth=len(inputs))
        if hit(database, inputs):
            return Answer.yes(
                witness=(database, inputs), detail=f"found after {runs} runs"
            )
    return Answer.unknown(detail=f"exhausted bounds after {runs} runs")


@traced("nonempty_fo_bounded", kind="analysis")
@guarded()
def nonempty_fo_bounded(
    sws: SWS,
    max_domain: int = 2,
    max_rows: int = 1,
    max_session_length: int = 2,
    max_runs: int = 20000,
    hints: Sequence[tuple[Database, InputSequence]] = (),
) -> Answer:
    """Bounded non-emptiness search for SWS(FO, FO) — sound YES / UNKNOWN.

    Runs the service over the databases and input sequences within the
    size bounds (:func:`bounded_instances`), at most ``max_runs`` of
    them; undecidability rules out completeness (Theorem 4.1(1)).
    Resource limits come through ``guard=``.  ``hints`` are candidate
    instances tried first: verifying a supplied certificate is decidable
    even though finding one is not, so a caller who knows a plausible
    witness gets an exact YES cheaply.
    """
    if sws.kind is not SWSKind.RELATIONAL:
        raise AnalysisError("nonempty_fo_bounded expects a relational SWS")
    for database, inputs in hints:
        if run_relational(sws, database, inputs).output:
            return Answer.yes(witness=(database, inputs), detail="hint verified")
    domain = list(range(max_domain)) + sorted(sws.query_constants(), key=repr)
    return bounded_search(
        "nonempty_fo_bounded",
        bounded_instances(sws, domain, max_rows, max_session_length),
        max_runs,
        lambda database, inputs: bool(run_relational(sws, database, inputs).output),
    )


# -- dispatch -------------------------------------------------------------------


def nonempty(sws: SWS, **kwargs) -> Answer:
    """Class-dispatching non-emptiness analysis.

    ``guard=`` (a :class:`repro.guard.Guard`, :class:`~repro.guard.Budget`
    or ``int`` step budget) is forwarded to every branch.
    """
    guard = kwargs.pop("guard", None)
    cls = classify(sws)
    if cls in (SWSClass.PL_PL, SWSClass.PL_PL_NR):
        return nonempty_pl(sws, guard=guard)
    if cls is SWSClass.CQ_UCQ_NR:
        return nonempty_cq_nr(sws, guard=guard)
    if cls is SWSClass.CQ_UCQ:
        return nonempty_cq(sws, guard=guard, **kwargs)
    return nonempty_fo_bounded(sws, guard=guard, **kwargs)


register_span(
    "nonempty_pl_nr_sat",
    "per-session-length SAT loop",
    "Theorem 4.1(3): NP non-emptiness for SWS_nr(PL, PL)",
)
register_span(
    "nonempty_cq_nr",
    "expansion-disjunct satisfiability loop",
    "Theorem 4.1(2): NEXPTIME non-emptiness for SWS_nr(CQ, UCQ)",
)
register_span(
    "nonempty_cq",
    "iterated-unfolding session-length loop",
    "Theorem 4.1(2): EXPTIME non-emptiness for SWS(CQ, UCQ)",
)
register_span(
    "nonempty_fo_bounded",
    "bounded (D, I) instance enumeration (one step per run)",
    "Theorem 4.1(1): undecidable FO cell, sound YES/UNKNOWN search",
)
