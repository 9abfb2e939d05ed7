"""Deterministic structural fingerprints for problem instances.

The answer cache and the in-flight deduplication of :mod:`repro.serve`
key on *what is being asked*: the decision procedure plus the structure
of its instance.  Python's builtin ``hash`` (and anything derived from
``repr`` of sets/dicts) varies with ``PYTHONHASHSEED`` and with
construction order, so fingerprints are computed over an explicit
canonical form instead:

* unordered containers (sets, dicts, ``DatabaseSchema``, mediator rule
  maps) are serialized in sorted order;
* ordered containers (tuples of transition targets, CQ atom lists,
  query heads) keep their order — position is semantics there (``A1``
  refers to the first successor);
* subset-valued automaton states reuse the canonical naming discipline
  of :func:`repro.automata.afa.symbol_sort_key` /
  ``_canonical_state_name`` from PR 1, so a determinized DFA fingerprints
  identically however its frozenset states were built;
* ``name`` attributes are **excluded** — they are labels, not structure,
  so renaming a service does not lose its cache entries.

Two kinds of value are hashed bottom-up as Merkle trees, so a repeat
costs memo lookups instead of a walk over the whole structure:

* **PL formulas.**  A variable or constant keeps its short inline form;
  every other node's canonical form is ``("pl", digest)``, where the
  digest is the SHA-256 of its tag and its children's canonical forms.
  Formulas are hash-consed, so the digest is memoized once per interned
  node and process.
* **SWS instances.**  The canonical form of a service is
  ``("sws", root)`` with ``root`` the root of its per-state tree
  (:func:`sub_fingerprints`): one leaf digest per state's rules, one
  digest of the global fields.  That tree is also what
  :mod:`repro.delta` diffs, so an edit re-hashes only the edited states.
  Mediators embed their component services and inherit the scheme.

:func:`fingerprint` is the SHA-256 of ``repr`` of the canonical form, so
collisions between distinct instances are negligible; equal fingerprints
are treated as "the same question" by the cache and scheduler.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping

from repro.automata.afa import AFA
from repro.automata.dfa import DFA
from repro.automata.nfa import NFA
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Relation
from repro.data.schema import DatabaseSchema, RelationSchema
from repro.errors import ReproError
from repro.guard import Budget
from repro.logic import fo, pl
from repro.logic.cq import Atom, Comparison, ConjunctiveQuery, LabeledNull
from repro.logic.terms import Constant, Variable
from repro.logic.ucq import UnionQuery
from repro.mediator.mediator import Mediator

__all__ = [
    "FingerprintError",
    "SubFingerprints",
    "canonical",
    "fingerprint",
    "job_fingerprint",
    "sub_fingerprints",
]


class FingerprintError(ReproError):
    """Raised for values no canonical form is defined for."""


def _digest(payload: Any) -> str:
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()


def _seq(items: Iterable[Any]) -> tuple:
    return tuple(canonical(item) for item in items)


def _sorted_set(items: Iterable[Any]) -> tuple:
    # Canonical forms are heterogeneous trees; repr gives them a total,
    # deterministic order where direct comparison would raise TypeError
    # (e.g. the ε transition label None next to string symbols).
    return tuple(sorted(_seq(items), key=repr))


def _sorted_map(mapping: Mapping[Any, Any]) -> tuple:
    return tuple(
        sorted(
            ((canonical(k), canonical(v)) for k, v in mapping.items()),
            key=repr,
        )
    )


#: Canonical forms of PL nodes, memoized.  Hash-consing makes formulas
#: DAGs with heavy sharing; the memo keeps the walk linear in DAG size,
#: and each node's digest is computed once per process.  Interning also
#: keeps the nodes alive process-wide, so a bounded plain dict is the
#: right cache shape.
_PL_CANON_MEMO: dict[pl.Formula, tuple] = {}
_PL_CANON_MEMO_LIMIT = 200_000


def _pl_formula(formula: pl.Formula) -> tuple:
    cached = _PL_CANON_MEMO.get(formula)
    if cached is not None:
        return cached
    if isinstance(formula, pl.Var):
        result = ("pl.var", formula.name)
    elif isinstance(formula, pl.Const):
        result = ("pl.const", formula.value)
    else:
        if isinstance(formula, pl.Not):
            tag, children = "pl.not", (formula.operand,)
        elif isinstance(formula, pl.And):
            tag, children = "pl.and", formula.operands
        elif isinstance(formula, pl.Or):
            tag, children = "pl.or", formula.operands
        else:
            raise FingerprintError(f"unknown PL node {type(formula).__name__}")
        result = ("pl", _digest((tag, tuple(_pl_formula(op) for op in children))))
    if len(_PL_CANON_MEMO) >= _PL_CANON_MEMO_LIMIT:
        _PL_CANON_MEMO.clear()
    _PL_CANON_MEMO[formula] = result
    return result


def _fo_formula(formula: fo.FOFormula) -> tuple:
    if isinstance(formula, fo.RelAtom):
        return ("fo.atom", formula.atom.relation, _seq(formula.atom.terms))
    if isinstance(formula, fo.Equals):
        return ("fo.eq", canonical(formula.left), canonical(formula.right))
    if isinstance(formula, fo.NotF):
        return ("fo.not", _fo_formula(formula.operand))
    if isinstance(formula, fo.AndF):
        return ("fo.and", tuple(_fo_formula(op) for op in formula.operands))
    if isinstance(formula, fo.OrF):
        return ("fo.or", tuple(_fo_formula(op) for op in formula.operands))
    if isinstance(formula, (fo.Exists, fo.Forall)):
        tag = "fo.exists" if isinstance(formula, fo.Exists) else "fo.forall"
        return (tag, _seq(formula.variables), _fo_formula(formula.body))
    raise FingerprintError(f"unknown FO node {type(formula).__name__}")


def _mediator(mediator: Mediator) -> tuple:
    return (
        "mediator",
        _sorted_set(mediator.states),
        mediator.start,
        tuple(
            sorted(
                (state, tuple(rule.targets))
                for state, rule in mediator.transitions.items()
            )
        ),
        tuple(
            sorted(
                (state, canonical(rule.query))
                for state, rule in mediator.synthesis.items()
            )
        ),
        tuple(
            sorted(
                (component, canonical(sws))
                for component, sws in mediator.components.items()
            )
        ),
    )


def _moves(entries: Iterable[tuple[tuple[Any, Any], Any]]) -> tuple:
    """Transition entries ``((state, symbol), target form)``, sorted."""
    return tuple(
        sorted(
            (((canonical(state), canonical(symbol)), target)
            for (state, symbol), target in entries),
            key=repr,
        )
    )


def _afa(afa: AFA) -> tuple:
    # One entry per (state, symbol) with a non-false transition, read
    # through the class map: an automaton fingerprints the same whichever
    # letter classes it was built with.
    return (
        "afa",
        _sorted_set(afa.states),
        _sorted_set(afa.alphabet),
        _moves(
            ((state, symbol), _pl_formula(formula))
            for state in afa.states
            for symbol in afa.alphabet
            if (formula := afa.transition(state, symbol)) is not pl.FALSE
        ),
        _pl_formula(afa.initial_condition),
        _sorted_set(afa.finals),
    )


def _nfa(nfa: NFA) -> tuple:
    return (
        "nfa",
        _sorted_set(nfa.states),
        _sorted_set(nfa.alphabet),
        _moves((key, _sorted_set(targets)) for key, targets in nfa.transitions.items()),
        _sorted_set(nfa.initials),
        _sorted_set(nfa.finals),
    )


def _dfa(dfa: DFA) -> tuple:
    return (
        "dfa",
        _sorted_set(dfa.states),
        _sorted_set(dfa.alphabet),
        _moves((key, canonical(target)) for key, target in dfa.transitions.items()),
        canonical(dfa.initial),
        _sorted_set(dfa.finals),
    )


def _cq(query: ConjunctiveQuery) -> tuple:
    return (
        "cq",
        _seq(query.head),
        tuple(
            ("atom", atom.relation, _seq(atom.terms)) for atom in query.atoms
        ),
        tuple(
            ("neq" if c.negated else "eq", canonical(c.left), canonical(c.right))
            for c in query.comparisons
        ),
    )


def canonical(value: Any) -> Any:
    """The canonical, order- and hash-seed-independent form of ``value``.

    Returns a tree of primitives and tuples whose ``repr`` is
    deterministic; :func:`fingerprint` hashes that representation.
    Compound PL formulas and SWS instances appear as tagged digests (see
    the module docstring).  Raises :class:`FingerprintError` for values
    with no defined form.
    """
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return value
    if isinstance(value, (tuple, list)):
        return ("seq", _seq(value))
    if isinstance(value, (set, frozenset)):
        return ("set", _sorted_set(value))
    if isinstance(value, dict):
        return ("map", _sorted_map(value))
    if isinstance(value, pl.Formula):
        return _pl_formula(value)
    if isinstance(value, SWS):
        return sub_fingerprints(value).canonical
    if isinstance(value, SubFingerprints):
        return value.canonical
    if isinstance(value, Mediator):
        return _mediator(value)
    if isinstance(value, AFA):
        return _afa(value)
    if isinstance(value, NFA):
        return _nfa(value)
    if isinstance(value, DFA):
        return _dfa(value)
    if isinstance(value, ConjunctiveQuery):
        return _cq(value)
    if isinstance(value, UnionQuery):
        return ("ucq", value.arity, tuple(_cq(d) for d in value.disjuncts))
    if isinstance(value, fo.FOQuery):
        return ("fo.query", _seq(value.head), _fo_formula(value.formula))
    if isinstance(value, fo.FOFormula):
        return _fo_formula(value)
    if isinstance(value, Variable):
        return ("var", value.name)
    if isinstance(value, Constant):
        return ("const", type(value.value).__name__, repr(value.value))
    if isinstance(value, LabeledNull):
        return ("null", value.label)
    if isinstance(value, Atom):
        return ("atom", value.relation, _seq(value.terms))
    if isinstance(value, Comparison):
        return (
            "neq" if value.negated else "eq",
            canonical(value.left),
            canonical(value.right),
        )
    if isinstance(value, RelationSchema):
        return ("rschema", value.name, tuple(value.attributes))
    if isinstance(value, DatabaseSchema):
        return ("dschema", tuple(sorted((n, canonical(r)) for n, r in value.items())))
    if isinstance(value, Relation):
        return ("relation", canonical(value.schema), _sorted_set(value.rows))
    if isinstance(value, Database):
        return (
            "database",
            canonical(value.schema),
            tuple(sorted((n, canonical(value[n])) for n in value.schema)),
        )
    if isinstance(value, InputSequence):
        return (
            "input",
            canonical(value.schema),
            tuple(canonical(message) for message in value),
        )
    if isinstance(value, Budget):
        # Budgets never enter fingerprints (a decided answer does not
        # depend on the budget it was computed under), but give them a
        # canonical form so job *labels* can include them.
        return ("budget", tuple(sorted(value.as_dict().items())))
    raise FingerprintError(
        f"no canonical form for {type(value).__name__}; "
        "register one in repro.serve.fingerprint"
    )


def fingerprint(value: Any) -> str:
    """SHA-256 hex digest of ``repr`` of ``value``'s canonical form."""
    return _digest(canonical(value))


#: Per-state leaf digests of PL services, keyed on the rules' *values*
#: ``(transition targets, synthesis formula)``.  A PL service's rules hold
#: only state names and interned formulas (``SWS`` validation checks the
#: formulas), so equal keys have identical canonical forms and a service
#: gets the same leaves whatever the process hashed before.  Relational
#: services skip the memo: CQ and UCQ equality compares atoms as sets,
#: while their canonical forms keep atom order.
_STATE_DIGEST_MEMO: dict[tuple[tuple, pl.Formula], str] = {}
_STATE_DIGEST_MEMO_LIMIT = 100_000


def _state_digest(rule: TransitionRule, synth: SynthesisRule) -> str:
    # Target order is positional semantics (A1, A2, ... registers).
    return _digest(
        (
            "sws.state",
            tuple((target, canonical(query)) for target, query in rule.targets),
            canonical(synth.query),
        )
    )


def _pl_state_digest(rule: TransitionRule, synth: SynthesisRule) -> str:
    key = (rule.targets, synth.query)
    digest = _STATE_DIGEST_MEMO.get(key)
    if digest is None:
        digest = _state_digest(rule, synth)
        if len(_STATE_DIGEST_MEMO) >= _STATE_DIGEST_MEMO_LIMIT:
            _STATE_DIGEST_MEMO.clear()
        _STATE_DIGEST_MEMO[key] = digest
    return digest


class SubFingerprints:
    """Merkle tree of an SWS: the service's fingerprint, state by state.

    ``states`` maps each state to the digest of its local rules
    (transition rule + synthesis rule); ``globals_digest`` covers
    everything that is not local to one state (kind, state set, start
    state, schemas, output arity).  ``root`` hashes the two layers
    together and *is* the service's identity: ``canonical`` is the
    service's canonical form ``("sws", root)``, so a job over the tree
    has the same fingerprint as a job over the service.  A diff of two
    trees localizes *which* states changed without comparing canonical
    forms rule by rule.
    """

    __slots__ = ("root", "globals_digest", "states")

    def __init__(self, root: str, globals_digest: str, states: Mapping[str, str]):
        self.root = root
        self.globals_digest = globals_digest
        self.states = dict(states)

    @property
    def canonical(self) -> tuple[str, str]:
        """The canonical form of the service this tree was built from."""
        return ("sws", self.root)

    def replaced(self, sws: SWS, states: Iterable[str]) -> "SubFingerprints":
        """The tree of ``sws``, a copy of this tree's service with only ``states``' rules replaced.

        What :func:`sub_fingerprints` returns for ``sws``, byte for byte,
        without visiting the other states: their leaves and the globals
        carry over, the replaced states' leaves are hashed anew, and the
        root is recomputed from the leaves.  ``sws`` must share the state
        set, start, kind and schemas of this tree's service, as every
        :meth:`repro.core.sws.SWS.replace` copy does.
        """
        leaves = dict(self.states)
        leaf = _pl_state_digest if sws.kind is SWSKind.PL else _state_digest
        for state in states:
            leaves[state] = leaf(sws.transitions[state], sws.synthesis[state])
        return SubFingerprints(_root_digest(self.globals_digest, leaves), self.globals_digest, leaves)

    def changed_states(self, other: "SubFingerprints") -> frozenset[str]:
        """States whose local digest differs (or exists on one side only)."""
        mine, theirs = self.states, other.states
        changed = {
            state
            for state in mine.keys() | theirs.keys()
            if mine.get(state) != theirs.get(state)
        }
        return frozenset(changed)


def sub_fingerprints(sws: SWS) -> SubFingerprints:
    """Per-state Merkle tree of ``sws``; its root keys every job on it."""
    if not isinstance(sws, SWS):
        raise FingerprintError(
            f"sub_fingerprints is defined for SWS instances, not {type(sws).__name__}"
        )
    transitions, synthesis = sws.transitions, sws.synthesis
    leaf = _pl_state_digest if sws.kind is SWSKind.PL else _state_digest
    names = sorted(sws.states)
    states = {state: leaf(transitions[state], synthesis[state]) for state in names}
    # The fields past the two fixed tags are reprs, which escape NUL, so
    # the join is injective.
    globals_digest = hashlib.sha256(
        "\0".join(
            (
                "sws.globals",
                sws.kind.value,
                repr(names),
                repr(sws.start),
                repr(canonical(sws.db_schema)),
                repr(canonical(sws.input_schema)),
                repr(sws.output_arity),
            )
        ).encode("utf-8")
    ).hexdigest()
    return SubFingerprints(_root_digest(globals_digest, states), globals_digest, states)


def _root_digest(globals_digest: str, leaves: Mapping[str, str]) -> str:
    # The globals fix the sorted state list, the leaves are in that order,
    # and every leaf digest has the same length, so the concatenation pins
    # each state's leaf.
    return hashlib.sha256(
        (globals_digest + "".join(leaves.values())).encode("ascii")
    ).hexdigest()


def job_fingerprint(
    procedure: str, args: tuple = (), kwargs: Mapping[str, Any] | None = None
) -> str:
    """Fingerprint of a whole job: procedure name + instance arguments.

    An SWS argument may be passed as its :class:`SubFingerprints` tree
    (the delta sessions hold one), which skips a second walk over it.

    Resource budgets are deliberately *not* part of the key: the
    procedures are sound, so any decided (YES/NO) answer is
    budget-independent, and guard-tripped UNKNOWN answers are never
    cached in the first place.  Procedure parameters that change the
    *question* (``max_session_length``, ``invocation_bound``, ...)
    arrive through ``args``/``kwargs`` and are included.
    """
    return _digest(
        (
            "job",
            procedure,
            _seq(args),
            tuple(sorted((k, canonical(v)) for k, v in (kwargs or {}).items())),
        )
    )
