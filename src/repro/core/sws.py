"""Synthesized Web services (Definition 2.1).

An SWS ``τ = (Q, δ, σ, q0)`` over schemas ``R`` (local database), ``Rin``
(input messages) and ``Rout`` (output actions) has, for every state ``q``,

* one transition rule ``δ(q): q → (q1, φ1), ..., (qk, φk)`` — each ``φi``
  is a query from ``R, Rin, Msg(q)`` to ``Msg(qi)``; ``k = 0`` marks a
  *final* state;
* one synthesis rule ``σ(q): Act(q) ← ψ`` — for ``k > 0``, ``ψ`` reads the
  successor action registers ``Act(q1), ..., Act(qk)``; for ``k = 0`` it
  reads ``R, Rin, Msg(q)``.

The start state never occurs on a rule's right-hand side.

Two query regimes share this one data type:

* **PL services** (``SWSKind.PL``): queries are propositional formulas;
  registers hold a single truth value; the local database is empty.  In a
  transition formula the reserved variable ``Msg`` denotes the parent's
  register and the remaining variables are input variables.  In an internal
  synthesis formula the variables ``A1, ..., Ak`` denote the successors'
  registers positionally (aliases ``Act_<state>`` work when successor
  states are pairwise distinct); a final synthesis formula uses input
  variables and ``Msg``.
* **Relational services** (``SWSKind.RELATIONAL``): queries are
  :class:`~repro.logic.cq.ConjunctiveQuery`,
  :class:`~repro.logic.ucq.UnionQuery` or
  :class:`~repro.logic.fo.FOQuery` objects over the database relations plus
  the reserved relation names ``In`` (the current input message, payload
  attributes only) and ``Msg`` (the parent register); internal synthesis
  queries range over ``Act1, ..., Actk`` (aliases ``Act_<state>`` when
  unambiguous).
"""

from __future__ import annotations

import functools
import weakref
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping, Union

from repro.data.schema import DatabaseSchema, RelationSchema
from repro.errors import SWSDefinitionError
from repro.logic import pl
from repro.logic.cq import ConjunctiveQuery
from repro.logic.fo import FOQuery
from repro.logic.ucq import UnionQuery

#: Reserved relation/variable names inside rule queries.
MSG = "Msg"
IN = "In"

RelationalQuery = Union[ConjunctiveQuery, UnionQuery, FOQuery]
Query = Union[pl.Formula, RelationalQuery]


@functools.lru_cache(maxsize=256)
def _positional_registers(k: int) -> frozenset[str]:
    """``A1, ..., Ak``: the register names of ``k`` successors."""
    return frozenset(f"A{i + 1}" for i in range(k))


class SWSKind(Enum):
    """The two query regimes an SWS can be written in."""

    PL = "pl"
    RELATIONAL = "relational"


@dataclass(frozen=True)
class TransitionRule:
    """``δ(q): q → (q1, φ1), ..., (qk, φk)``; empty targets = final state."""

    targets: tuple[tuple[str, Query], ...]

    def __init__(self, targets: Iterable[tuple[str, Query]] = ()) -> None:
        object.__setattr__(self, "targets", tuple(targets))

    @property
    def is_final(self) -> bool:
        """Whether the rule's right-hand side is empty (``k = 0``)."""
        return not self.targets

    @property
    def successor_states(self) -> tuple[str, ...]:
        """Successor state names, in order (possibly with repeats)."""
        return tuple(state for state, _query in self.targets)

    def __len__(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class SynthesisRule:
    """``σ(q): Act(q) ← ψ``."""

    query: Query


class _PatchedRules(Mapping):
    """The transition rules of an edited version: a root dict plus the rules replaced since it.

    ``root`` is a plain dict, the transitions of the last version built by
    ``SWS(...)`` or re-rooted; ``rules`` holds the rules :meth:`SWS.replace`
    swapped in since, which win over the root's.  Every replaced state is
    a root state, so the mapping iterates in the root's order, as the
    plain dict of a build would.  ``work`` sums the sizes of the patches
    copied since the root; once that exceeds one copy of the root, the
    next edit copies into a plain dict, the next root — the rule of
    :class:`repro.automata.afa._PatchedRows`.  The mapping refers to rules
    only, never to a service, and is read-only.
    """

    __slots__ = ("root", "rules", "work")

    def __init__(self, root: dict, rules: dict, work: int) -> None:
        self.root = root
        self.rules = rules
        self.work = work

    def __getitem__(self, state: str) -> TransitionRule:
        rules = self.rules
        return rules[state] if state in rules else self.root[state]

    def __contains__(self, state: object) -> bool:
        return state in self.root

    def __iter__(self) -> Iterator[str]:
        return iter(self.root)

    def __len__(self) -> int:
        return len(self.root)

    def flat(self) -> dict:
        """The rules as the plain dict a build would make, in the root's order."""
        return {**self.root, **self.rules}


def _patched(
    transitions: Mapping[str, TransitionRule], state: str, rule: TransitionRule
) -> Mapping[str, TransitionRule]:
    """``transitions`` with ``state``'s rule replaced, copying the patch but not the root."""
    if isinstance(transitions, _PatchedRules):
        root, work = transitions.root, transitions.work
        rules = {**transitions.rules, state: rule}
    else:
        root, work, rules = transitions, 0, {state: rule}
    work += len(rules)
    if work > len(root):
        return {**root, **rules}
    return _PatchedRules(root, rules, work)


class SWS:
    """A synthesized Web service (Definition 2.1).

    An SWS is immutable: no code assigns into or mutates its
    ``transitions`` or ``synthesis`` map after construction.  Edited
    copies rely on this: :meth:`replace` shares every rule map it leaves
    alone, and the ``states`` tuple and schemas, with its base, and
    patches the transition map it edits (:class:`_PatchedRules`).
    """

    def __init__(
        self,
        states: Iterable[str],
        start: str,
        transitions: Mapping[str, TransitionRule],
        synthesis: Mapping[str, SynthesisRule],
        *,
        kind: SWSKind,
        db_schema: DatabaseSchema | None = None,
        input_schema: RelationSchema | None = None,
        output_arity: int | None = None,
        name: str = "τ",
    ) -> None:
        # A repeat-free tuple is kept as is, so copies of a service can
        # share their base's states.
        if not (type(states) is tuple and len(frozenset(states)) == len(states)):
            states = tuple(dict.fromkeys(states))
        self.states = states
        self.start = start
        self.transitions = dict(transitions)
        self.synthesis = dict(synthesis)
        self.kind = kind
        self.name = name
        self.db_schema = db_schema if db_schema is not None else DatabaseSchema()
        self.input_schema = input_schema
        self.output_arity = output_arity
        self._validate()

    # -- editing -------------------------------------------------------------------------

    def replace(
        self,
        state: str,
        rule: TransitionRule | None = None,
        synthesis: SynthesisRule | None = None,
        name: str | None = None,
    ) -> "SWS":
        """A copy with ``state``'s transition and/or synthesis rule (and/or the name) replaced.

        Only ``state`` is validated, by the same per-state checks (and
        with the same messages) as a service built with ``SWS(...)``: the
        rules of the other states are the base's, already validated.  The
        copy shares ``states``, the schemas and each rule map it leaves
        alone with ``self``.  A replaced transition rule goes into a
        read-only patch over the base's transition map
        (:class:`_PatchedRules`), so an edit copies the rules replaced
        since the patch's root, not every rule; a replaced synthesis rule
        gets a copied map.  It records a weak reference to ``self`` and
        the replaced state (:meth:`replaced_states`), which pickles drop.
        """
        edited = None if rule is None and synthesis is None else state
        if edited is not None and edited not in self.transitions:
            raise SWSDefinitionError(f"rules for unknown states: {[edited]}")
        transitions, synthesis_map = self.transitions, self.synthesis
        if rule is not None:
            transitions = _patched(transitions, state, rule)
        if synthesis is not None:
            synthesis_map = {**synthesis_map, state: synthesis}
        new = object.__new__(SWS)
        new.__dict__.update(self._fields())
        new.transitions = transitions
        new.synthesis = synthesis_map
        if name is not None:
            new.name = name
        if edited is not None:
            new._validate_state(edited)
        new._edited_from = (weakref.ref(self), edited)
        return new

    def replaced_states(self, base: "SWS") -> frozenset[str] | None:
        """The states whose rules :meth:`replace` swapped to make ``self`` from ``base``.

        Empty for a rename, and ``None`` for any other pair of services:
        ``self`` was built otherwise, or from another version.
        """
        record = self.__dict__.get("_edited_from")
        if record is None or record[0]() is not base:
            return None
        return frozenset() if record[1] is None else frozenset({record[1]})

    # -- validation (Definition 2.1 well-formedness) ------------------------------------

    def _validate(self) -> None:
        state_set = set(self.states)
        if self.start not in state_set:
            raise SWSDefinitionError(
                f"start state {self.start!r} is not among the states"
            )
        missing_t = state_set - set(self.transitions)
        missing_s = state_set - set(self.synthesis)
        if missing_t:
            raise SWSDefinitionError(
                f"states without a transition rule: {sorted(missing_t)}"
            )
        if missing_s:
            raise SWSDefinitionError(
                f"states without a synthesis rule: {sorted(missing_s)}"
            )
        extra = (set(self.transitions) | set(self.synthesis)) - state_set
        if extra:
            raise SWSDefinitionError(f"rules for unknown states: {sorted(extra)}")
        if self.kind is SWSKind.RELATIONAL and (
            self.input_schema is None or self.output_arity is None
        ):
            raise SWSDefinitionError(
                "relational SWS's need an input payload schema and output arity"
            )
        for state in self.states:
            self._validate_state(state)

    def _validate_state(self, state: str) -> None:
        """The checks of one state's rules; the rule maps cover exactly the states."""
        rule = self.transitions[state]
        for target, _query in rule.targets:
            if target not in self.transitions:
                raise SWSDefinitionError(
                    f"transition of {state!r} targets unknown state {target!r}"
                )
            if target == self.start:
                raise SWSDefinitionError(
                    "the start state must not appear on any rule's rhs "
                    f"(found in δ({state!r}))"
                )
        if self.kind is SWSKind.RELATIONAL:
            self._validate_relational(state, rule)
        else:
            self._validate_pl(state, rule)

    def _validate_relational(self, state: str, rule: TransitionRule) -> None:
        payload_arity = self.input_schema.arity
        for target, query in rule.targets:
            if isinstance(query, pl.Formula):
                raise SWSDefinitionError(
                    f"δ({state!r}) uses a PL formula in a relational SWS"
                )
            if query.arity != payload_arity:
                raise SWSDefinitionError(
                    f"δ({state!r})→{target!r} query has arity {query.arity}, "
                    f"Msg registers need {payload_arity}"
                )
        query = self.synthesis[state].query
        if isinstance(query, pl.Formula):
            raise SWSDefinitionError(
                f"σ({state!r}) uses a PL formula in a relational SWS"
            )
        if query.arity != self.output_arity:
            raise SWSDefinitionError(
                f"σ({state!r}) has arity {query.arity}, "
                f"Act registers need {self.output_arity}"
            )

    def _validate_pl(self, state: str, rule: TransitionRule) -> None:
        for _target, query in rule.targets:
            if not isinstance(query, pl.Formula):
                raise SWSDefinitionError(
                    f"δ({state!r}) must use PL formulas in a PL SWS"
                )
        query = self.synthesis[state].query
        if not isinstance(query, pl.Formula):
            raise SWSDefinitionError(
                f"σ({state!r}) must use a PL formula in a PL SWS"
            )
        if rule.is_final:
            return
        k = len(rule)
        stray = query.variables() - _positional_registers(k)
        if stray:  # what is left must be unambiguous Act_<state> aliases
            repeats = Counter(rule.successor_states)
            stray -= {f"Act_{target}" for target, n in repeats.items() if n == 1}
        if stray:
            raise SWSDefinitionError(
                f"σ({state!r}) mentions {sorted(stray)}; internal "
                f"synthesis formulas may only use A1..A{k} "
                "(or unambiguous Act_<state> aliases)"
            )

    def successor_register_aliases(self, state: str) -> dict[str, int]:
        """Map internal-synthesis register names to successor positions.

        Both positional names (``A1``/``Act1``, ...) and unambiguous
        ``Act_<state>`` aliases are included; used by both run engines.
        """
        rule = self.transitions[state]
        aliases: dict[str, int] = {}
        for i in range(len(rule)):
            aliases[f"A{i + 1}"] = i
            aliases[f"Act{i + 1}"] = i
        successors = rule.successor_states
        for i, target in enumerate(successors):
            if successors.count(target) == 1:
                aliases[f"Act_{target}"] = i
        return aliases

    # -- dependency graph (Section 2, "SWS classes") -------------------------------------

    def dependency_edges(self) -> frozenset[tuple[str, str]]:
        """Edges q → qi of the dependency graph Gτ."""
        return frozenset(
            (state, target)
            for state, rule in self.transitions.items()
            for target, _query in rule.targets
        )

    def is_recursive(self) -> bool:
        """Whether Gτ is cyclic (the SWS is recursively defined)."""
        return self._cycle_or_depth()[0]

    def depth(self) -> int:
        """Longest path length (in edges) of the dependency DAG.

        Only defined for nonrecursive SWS's; the execution tree of a
        nonrecursive service has depth at most ``depth() + 1`` nodes along
        any branch, so the service consumes at most ``depth() + 1`` input
        messages (k-prefix behaviour — see Theorem 5.1(4)).
        """
        recursive, depth = self._cycle_or_depth()
        if recursive:
            raise SWSDefinitionError(f"{self.name}: depth() on a recursive SWS")
        return depth

    def _cycle_or_depth(self) -> tuple[bool, int]:
        edges: dict[str, list[str]] = {s: [] for s in self.states}
        for source, target in self.dependency_edges():
            edges[source].append(target)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {s: WHITE for s in self.states}
        longest = {s: 0 for s in self.states}

        def visit(state: str) -> bool:
            color[state] = GRAY
            best = 0
            for target in edges[state]:
                if color[target] == GRAY:
                    return True
                if color[target] == WHITE and visit(target):
                    return True
                best = max(best, longest[target] + 1)
            longest[state] = best
            color[state] = BLACK
            return False

        for state in self.states:
            if color[state] == WHITE and visit(state):
                return True, 0
        return False, longest[self.start]

    def reachable_states(self) -> frozenset[str]:
        """States reachable from the start state in Gτ."""
        edges: dict[str, list[str]] = {s: [] for s in self.states}
        for source, target in self.dependency_edges():
            edges[source].append(target)
        seen: set[str] = set()
        stack = [self.start]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            stack.extend(edges[state])
        return frozenset(seen)

    def query_constants(self) -> frozenset:
        """Data constants mentioned anywhere in the service's rule queries.

        Bounded analyses must include these in their search domains: a
        transition guarded by ``tag = 'a'`` can only fire on instances that
        actually contain ``'a'``.
        """
        from repro.logic.cq import ConjunctiveQuery
        from repro.logic.fo import FOQuery
        from repro.logic.ucq import UnionQuery

        values: set = set()

        def collect(query) -> None:
            if isinstance(query, ConjunctiveQuery):
                values.update(c.value for c in query.constants())
            elif isinstance(query, UnionQuery):
                for disjunct in query.disjuncts:
                    values.update(c.value for c in disjunct.constants())
            elif isinstance(query, FOQuery):
                values.update(c.value for c in query.formula.constants())

        for rule in self.transitions.values():
            for _target, query in rule.targets:
                collect(query)
        for rule in self.synthesis.values():
            collect(rule.query)
        return frozenset(values)

    # -- PL conveniences --------------------------------------------------------------------

    def input_variables(self) -> frozenset[str]:
        """For PL services: the input variables the service inspects.

        All variables of transition formulas and final synthesis formulas,
        minus the reserved register name ``Msg``.  Computed once per
        service: nothing mutates an SWS after construction.  An edited
        copy can derive its set from its base's instead
        (:meth:`_inherit_input_variables`).
        """
        if self.kind is not SWSKind.PL:
            raise SWSDefinitionError("input_variables() is for PL services")
        memo = self.__dict__.get("_input_variables")
        if memo is None:
            # Interned formulas recur across states: read each one's variables once.
            formulas = set(self._input_formula_slots())
            memo = frozenset().union(*[formula.variables() for formula in formulas]) - {MSG}
            self._input_variables = memo
        return memo

    def _variable_counts(self) -> dict[str, int]:
        """Per variable (``Msg`` included), how many input formula slots mention it.

        Computed once per service, from which edited copies derive their
        input variables (:meth:`_inherit_input_variables`).
        """
        counts = self.__dict__.get("_var_counts")
        if counts is None:
            counts = {}
            for formula, n in Counter(self._input_formula_slots()).items():
                for name in formula.variables():
                    counts[name] = counts.get(name, 0) + n
            self._var_counts = counts
        return counts

    def _input_formula_slots(self) -> list[pl.Formula]:
        """Every state's :meth:`_input_formulas`, concatenated: the one pass over the service."""
        rules = self.transitions.items()
        slots = [query for _state, rule in rules for _target, query in rule.targets]
        slots += [self.synthesis[state].query for state, rule in rules if rule.is_final]
        return slots

    def _input_formulas(self, state: str) -> list[pl.Formula]:
        """The formulas of ``state`` that read input: its transition formulas, or its synthesis formula when it is final."""
        rule = self.transitions[state]
        if rule.is_final:
            return [self.synthesis[state].query]
        return [query for _target, query in rule.targets]

    def _inherit_input_variables(self, base: "SWS", states: Iterable[str]) -> None:
        """Memoize :meth:`input_variables` of a copy of ``base`` that differs in ``states`` only.

        ``base``'s variable counts, less the old formulas of ``states``
        plus their new ones: no pass over the service once ``base`` has
        its counts.  The copy shares ``base``'s counts and set when the
        edit leaves every count as it was.
        """
        counts = base._variable_counts()
        change: Counter[str] = Counter()
        for state in states:
            change.subtract(v for f in base._input_formulas(state) for v in f.variables())
            change.update(v for f in self._input_formulas(state) for v in f.variables())
        names = base.__dict__.get("_input_variables")
        if any(change.values()):
            counts = {v: n for v in counts.keys() | change.keys() if (n := counts.get(v, 0) + change[v])}
            names = None
        self._var_counts = counts
        self._input_variables = frozenset(counts) - {MSG} if names is None else names

    def _fields(self) -> dict:
        """The instance dict less the memos and the edit record."""
        # The memos are rebuilt on demand; leaving them out keeps a
        # service's pickle (a pool job's payload) the same whether or not
        # they were read.  The edit record is a weak reference, meaningful
        # in this process only.
        state = self.__dict__.copy()
        for key in ("_input_variables", "_var_counts", "_edited_from"):
            state.pop(key, None)
        return state

    def __getstate__(self) -> dict:
        # A patched transition map pickles as the plain dict a build
        # makes, so an edited copy's pickle is a built service's.
        state = self._fields()
        if isinstance(self.transitions, _PatchedRules):
            state["transitions"] = self.transitions.flat()
        return state

    # -- running (delegates to repro.core.run) ------------------------------------------------

    def run(self, *args, **kwargs):
        """Run the service; see :func:`repro.core.run.run`."""
        from repro.core.run import run

        return run(self, *args, **kwargs)

    def __repr__(self) -> str:
        shape = "recursive" if self.is_recursive() else "nonrecursive"
        return (
            f"SWS({self.name!r}, {self.kind.value}, {len(self.states)} states, "
            f"{shape})"
        )
