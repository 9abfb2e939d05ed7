"""Answering queries using views.

Section 5.2 reduces SWS composition synthesis to *equivalent query rewriting
using views*: the goal service is the query, component services are the
views, and a mediator is a rewriting.  This module implements the two
rewriting engines the paper's decidable cases need:

* :func:`equivalent_rewriting` — equivalent rewritings of CQ/UCQ queries
  (with =/≠) using CQ views, via the canonical-rewriting construction: the
  candidate whose body consists of *all* view facts over the canonical
  database of (each equality pattern of) the query is, when any equivalent
  rewriting exists at all, itself equivalent.  Used by the
  CP(SWS_nr(CQ,UCQ), MDT_nr(UCQ), SWS_nr(CQ,UCQ)) procedure
  (Theorem 5.1(3)).
* :func:`inverse_rules` / :func:`certain_answers` — the maximally-contained
  datalog rewriting of Duschka & Genesereth, used by the UC2RPQ special
  case (Corollary 5.2).

Completeness notes: for CQ/UCQ without inequality the canonical-rewriting
test is the classical complete decision procedure.  With inequalities we
enumerate candidates per equality pattern, which covers the instances our
benchmarks generate; the paper itself only establishes a (2EXPSPACE)
small-model bound for that case, and EXPERIMENTS.md records this scoping.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.data.relation import Relation, Row
from repro.data.schema import RelationSchema
from repro.errors import QueryError
from repro.logic.cq import (
    Atom,
    ConjunctiveQuery,
    LabeledNull,
    _facts_as_database,
)
from repro.guard import checkpoint, register_span
from repro.logic.terms import Constant, Term, Variable
from repro.logic.ucq import UnionQuery, compose_union
from repro.obs import traced


class View:
    """A named materialized view defined by a CQ or a UCQ.

    The view predicate is the view's name; mediator/rewriting queries use
    atoms over that predicate.  CQ definitions are normalized to singleton
    unions.
    """

    def __init__(
        self, definition: "ConjunctiveQuery | UnionQuery", name: str | None = None
    ) -> None:
        source_name = definition.name
        if isinstance(definition, ConjunctiveQuery):
            definition = UnionQuery([definition], name=source_name)
        self.definition: UnionQuery = definition
        self.name = name or source_name

    @property
    def arity(self) -> int:
        """Head arity of the view."""
        return self.definition.arity

    def constants(self):
        """All constants across the definition's disjuncts."""
        out: set[Constant] = set()
        for disjunct in self.definition.disjuncts:
            out |= disjunct.constants()
        return frozenset(out)

    def has_inequalities(self) -> bool:
        """Whether any disjunct carries an inequality."""
        return any(d.inequalities() for d in self.definition.disjuncts)

    def relations(self) -> frozenset[str]:
        """Base relations the definition mentions."""
        return self.definition.relations()

    def __repr__(self) -> str:
        return f"View({self.name!r}, {len(self.definition.disjuncts)} disjuncts)"


def expansion(rewriting: UnionQuery, views: Sequence[View]) -> UnionQuery:
    """Expand view atoms of a rewriting by their definitions."""
    return compose_union(rewriting, {view.name: view.definition for view in views})


def _view_facts(
    views: Sequence[View], facts: Mapping[str, set[Row]], relations: Iterable[str]
) -> dict[str, frozenset[Row]]:
    """Evaluate every view over a frozen canonical database."""
    database = _facts_as_database(facts, relations)
    return {view.name: view.definition.evaluate(database) for view in views}


def _canonical_rewriting_disjunct(
    query: ConjunctiveQuery,
    views: Sequence[View],
    facts: Mapping[str, set[Row]],
    head_row: Row,
    base_relations: Iterable[str],
) -> ConjunctiveQuery | None:
    """The canonical candidate rewriting from one frozen instance.

    Nulls of the frozen instance become variables again; the candidate's
    body holds one view atom per view fact.  Returns ``None`` when the
    views give no facts at all (then no rewriting can be built from this
    instance) or when the frozen head uses a null no view fact exposes.
    """
    all_view_facts = _view_facts(views, facts, base_relations)

    def unfreeze(value: Any) -> Term:
        if isinstance(value, LabeledNull):
            return Variable(f"n{value.index}")
        return Constant(value)

    atoms: list[Atom] = []
    exposed: set[Any] = set()
    for view in views:
        for row in all_view_facts[view.name]:
            atoms.append(Atom(view.name, tuple(unfreeze(v) for v in row)))
            exposed |= {v for v in row if isinstance(v, LabeledNull)}
    head_nulls = {v for v in head_row if isinstance(v, LabeledNull)}
    if not head_nulls <= exposed:
        return None
    head = tuple(unfreeze(v) for v in head_row)
    if not atoms:
        if head_nulls:
            return None
        return None  # a rewriting must use at least one view atom
    return ConjunctiveQuery(head, atoms, (), query.name)


def _candidate_disjuncts(
    query: ConjunctiveQuery, views: Sequence[View], base_relations: Iterable[str]
) -> list[ConjunctiveQuery]:
    """Canonical candidates over the query's equality patterns."""
    needs_patterns = bool(query.inequalities()) or any(
        v.has_inequalities() for v in views
    )
    if needs_patterns:
        extra: set[Constant] = set()
        for view in views:
            extra |= view.constants()
        instances = list(query.equality_patterns(extra))
    else:
        canonical = query.canonical_instance()
        instances = [canonical] if canonical is not None else []
    candidates: list[ConjunctiveQuery] = []
    for facts, head_row in instances:
        candidate = _canonical_rewriting_disjunct(
            query, views, facts, head_row, base_relations
        )
        if candidate is not None:
            candidates.append(candidate)
    return candidates


@traced("rewriting.maximally_contained", kind="logic")
def maximally_contained_rewriting(
    query: UnionQuery, views: Sequence[View]
) -> UnionQuery:
    """The maximally-contained UCQ rewriting built from canonical candidates.

    Every returned disjunct's expansion is contained in the query; among
    rewritings built over the canonical instances, none larger exists.
    """
    base_relations = set(query.relations())
    for view in views:
        base_relations |= view.relations()
    kept: list[ConjunctiveQuery] = []
    for disjunct in query.disjuncts:
        for candidate in _candidate_disjuncts(disjunct, views, base_relations):
            checkpoint("rewriting.maximally_contained")
            exp = expansion(UnionQuery.of(candidate), views)
            if exp.contained_in(query):
                kept.append(candidate)
    return UnionQuery(kept, arity=query.arity, name=query.name)


@traced("rewriting.equivalent", kind="logic")
def equivalent_rewriting(
    query: UnionQuery, views: Sequence[View], minimize: bool = True
) -> UnionQuery | None:
    """An equivalent UCQ rewriting of ``query`` using ``views``, or ``None``.

    The procedure builds the maximally-contained canonical rewriting and
    tests whether its expansion covers the query; by the canonical-rewriting
    argument (see module docstring) an equivalent rewriting exists iff this
    candidate is equivalent.
    """
    candidate = maximally_contained_rewriting(query, views)
    if not candidate.disjuncts:
        return None
    checkpoint("rewriting.equivalent")
    exp = expansion(candidate, views)
    if not query.contained_in(exp):
        return None
    if not minimize:
        return candidate
    return _minimize_rewriting(candidate, query, views)


def _minimize_rewriting(
    rewriting: UnionQuery, query: UnionQuery, views: Sequence[View]
) -> UnionQuery:
    """Greedy pruning of redundant disjuncts and view atoms."""
    disjuncts = list(rewriting.disjuncts)
    # Drop entire disjuncts while equivalence survives.
    changed = True
    while changed and len(disjuncts) > 1:
        changed = False
        for i in range(len(disjuncts)):
            checkpoint("rewriting.equivalent")
            trial = disjuncts[:i] + disjuncts[i + 1 :]
            exp = expansion(UnionQuery(trial, arity=query.arity), views)
            if query.contained_in(exp) and exp.contained_in(query):
                disjuncts = trial
                changed = True
                break
    # Drop atoms within each disjunct while the whole rewriting stays
    # equivalent.
    slim: list[ConjunctiveQuery] = []
    for index, disjunct in enumerate(disjuncts):
        atoms = list(disjunct.atoms)
        progress = True
        while progress and len(atoms) > 1:
            progress = False
            for i in range(len(atoms)):
                checkpoint("rewriting.equivalent")
                trial_atoms = atoms[:i] + atoms[i + 1 :]
                try:
                    trial = ConjunctiveQuery(
                        disjunct.head, trial_atoms, disjunct.comparisons, disjunct.name
                    )
                except QueryError:
                    continue
                others = disjuncts[:index] + disjuncts[index + 1 :]
                exp = expansion(
                    UnionQuery([trial, *others], arity=query.arity), views
                )
                if query.contained_in(exp) and exp.contained_in(query):
                    atoms = trial_atoms
                    progress = True
                    break
        slim.append(
            ConjunctiveQuery(disjunct.head, atoms, disjunct.comparisons, disjunct.name)
        )
        disjuncts[index] = slim[-1]
    return UnionQuery(slim, arity=query.arity, name=query.name)


# -- inverse rules (Duschka & Genesereth) ------------------------------------------


@dataclass(frozen=True)
class SkolemTerm:
    """A skolem function application ``f(args)`` in an inverse-rule head."""

    function: str
    args: tuple[Variable, ...]

    def __str__(self) -> str:
        return f"{self.function}({', '.join(a.name for a in self.args)})"


@dataclass(frozen=True)
class SkolemValue:
    """A runtime skolem value: an "unknown" datum introduced by inverse rules.

    Skolem values compare unequal to every ordinary data value, so
    evaluating a query over the reconstructed instance treats them as
    fresh — exactly the open-world reading certain-answer semantics needs.
    """

    function: str
    args: tuple[Any, ...]

    def __repr__(self) -> str:
        return f"{self.function}{self.args!r}"


@dataclass(frozen=True)
class InverseRule:
    """A rule whose head may contain skolem terms.

    ``head_terms`` mixes variables, constants and :class:`SkolemTerm`;
    the single body atom ranges over a view predicate.
    """

    head_relation: str
    head_terms: tuple[Term | SkolemTerm, ...]
    body: Atom

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head_terms)
        return f"{self.head_relation}({head}) :- {self.body}"


def inverse_rules(views: Sequence[View]) -> list[InverseRule]:
    """The inverse rules of a set of CQ views.

    For a view ``V(x̄) :- p1(t̄1), ..., pk(t̄k)`` with existential variables
    ``y``, each body atom yields the rule ``pi(t̄i[y → f_y,V(x̄)]) :- V(x̄)``.
    Views with comparisons are rejected — the classical construction is for
    plain CQs (and that is all CQ^r components need).
    """
    rules: list[InverseRule] = []
    for view in views:
        if len(view.definition.disjuncts) != 1:
            raise QueryError(
                f"inverse rules require single-CQ views; {view.name!r} "
                f"has {len(view.definition.disjuncts)} disjuncts"
            )
        definition = view.definition.disjuncts[0]
        if definition.comparisons:
            raise QueryError(
                f"inverse rules require comparison-free views; {view.name!r} "
                "has comparisons"
            )
        head_vars = [t for t in definition.head if isinstance(t, Variable)]
        if len(head_vars) != len(definition.head):
            raise QueryError(
                f"inverse rules require variable-only view heads ({view.name!r})"
            )
        distinguished = set(head_vars)
        body_atom = Atom(view.name, tuple(definition.head))
        for atom in definition.atoms:
            head_terms: list[Term | SkolemTerm] = []
            for term in atom.terms:
                if isinstance(term, Variable) and term not in distinguished:
                    head_terms.append(
                        SkolemTerm(f"f_{view.name}_{term.name}", tuple(head_vars))
                    )
                else:
                    head_terms.append(term)
            rules.append(InverseRule(atom.relation, tuple(head_terms), body_atom))
    return rules


def _apply_inverse_rules(
    rules: Sequence[InverseRule], view_extensions: Mapping[str, Relation]
) -> dict[str, set[Row]]:
    """Fire every inverse rule once over the view extensions."""
    derived: dict[str, set[Row]] = {}
    for rule in rules:
        checkpoint("rewriting.certain_answers")
        extension = view_extensions.get(rule.body.relation)
        if extension is None:
            continue
        body_query = ConjunctiveQuery(
            tuple(t for t in rule.body.terms), [rule.body], (), "_inv"
        )
        for row in body_query.evaluate({rule.body.relation: extension}):
            binding = dict(zip(rule.body.terms, row))
            out: list[Any] = []
            for term in rule.head_terms:
                if isinstance(term, SkolemTerm):
                    out.append(
                        SkolemValue(
                            term.function, tuple(binding[a] for a in term.args)
                        )
                    )
                elif isinstance(term, Constant):
                    out.append(term.value)
                else:
                    out.append(binding[term])
            derived.setdefault(rule.head_relation, set()).add(tuple(out))
    return derived


def _contains_skolem(row: Row) -> bool:
    return any(isinstance(v, SkolemValue) for v in row)


@traced("rewriting.certain_answers", kind="logic")
def certain_answers(
    query: UnionQuery,
    views: Sequence[View],
    view_extensions: Mapping[str, Relation],
) -> frozenset[Row]:
    """Certain answers of a UCQ over view extensions (open-world).

    Implements the Duschka–Genesereth recipe: apply the inverse rules to
    reconstruct a canonical base instance (with skolem values standing for
    unknown data), evaluate the query on it, and keep only skolem-free
    answers.  Sound and complete for UCQ queries and CQ views.
    """
    base_facts = _apply_inverse_rules(inverse_rules(views), view_extensions)
    relations = set(query.relations())
    for view in views:
        relations |= view.definition.relations()
    database = _facts_as_database(base_facts, relations)
    answers = query.evaluate(database)
    return frozenset(row for row in answers if not _contains_skolem(row))


# The rewriting engines return ``None`` to mean "no rewriting exists" (a
# sound NO), so they cannot absorb a trip into their return value: they
# raise, and the mediator boundaries built on them convert to UNKNOWN.
register_span(
    "rewriting.maximally_contained",
    "canonical-candidate containment loop",
    "Theorem 5.1(3): composition via equivalent rewriting using views",
    raising_only=True,
)
register_span(
    "rewriting.equivalent",
    "equivalence test + greedy minimization trials",
    "Theorem 5.1(3): composition via equivalent rewriting using views",
    raising_only=True,
)
register_span(
    "rewriting.certain_answers",
    "inverse-rule firing loop (Duschka-Genesereth)",
    "Corollary 5.2: UC2RPQ composition via maximally-contained rewriting",
    raising_only=True,
)
