"""SWS mediators (Definition 5.1) and their run semantics.

A mediator π = (Q, δ, σ, q0) over a set S of component SWS's looks like an
SWS except that transition rules embed component services:

    δ(q): q → (q1, eval(τ1)), ..., (qk, eval(τk))

Running π on (D, I) differs from an SWS run in rules (2) and (3):

* rule (2): the i-th child's message register receives the *output of the
  component run* ``τi(D, I^j)`` on the remaining input ``I^j = Ij, ..., In``
  — with the component's start-state message register seeded with Msg(v) —
  and the child's timestamp advances past the input the component consumed
  (``li + 1``, where ``li`` is the largest timestamp in the component's
  execution tree);
* rule (3): a final state's synthesis query reads only Msg(v) — a mediator
  "receives and redirects messages, but does not directly access local
  databases".

Commitment of all component actions is deferred to the end of the
mediator's run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.exec_tree import ExecutionNode, RunResult
from repro.core.run import PLWord, output_schema
from repro.core.sws import MSG, SWS, SWSKind, SynthesisRule
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Relation
from repro.errors import RunError, SWSDefinitionError
from repro.logic import pl


@dataclass(frozen=True)
class MediatorTransitionRule:
    """``q → (q1, eval(τ1)), ..., (qk, eval(τk))``; empty = final state."""

    targets: tuple[tuple[str, str], ...]
    """Pairs (successor state, component name)."""

    def __init__(self, targets: Iterable[tuple[str, str]] = ()) -> None:
        object.__setattr__(self, "targets", tuple(targets))

    @property
    def is_final(self) -> bool:
        """Whether the rule's right-hand side is empty."""
        return not self.targets

    def __len__(self) -> int:
        return len(self.targets)


class Mediator:
    """An SWS mediator in MDT(LAct)."""

    def __init__(
        self,
        states: Iterable[str],
        start: str,
        transitions: Mapping[str, MediatorTransitionRule],
        synthesis: Mapping[str, SynthesisRule],
        components: Mapping[str, SWS],
        *,
        name: str = "π",
    ) -> None:
        self.states = tuple(dict.fromkeys(states))
        self.start = start
        self.transitions = dict(transitions)
        self.synthesis = dict(synthesis)
        self.components = dict(components)
        self.name = name
        self._validate()

    def _validate(self) -> None:
        state_set = set(self.states)
        if self.start not in state_set:
            raise SWSDefinitionError(f"start state {self.start!r} unknown")
        for state in self.states:
            if state not in self.transitions or state not in self.synthesis:
                raise SWSDefinitionError(f"state {state!r} lacks rules")
        kinds = {c.kind for c in self.components.values()}
        if len(kinds) > 1:
            raise SWSDefinitionError("components must share one query regime")
        for state, rule in self.transitions.items():
            for target, component in rule.targets:
                if target not in state_set:
                    raise SWSDefinitionError(
                        f"δ({state!r}) targets unknown state {target!r}"
                    )
                if target == self.start:
                    raise SWSDefinitionError(
                        "the start state must not appear on a rhs"
                    )
                if component not in self.components:
                    raise SWSDefinitionError(
                        f"δ({state!r}) invokes unknown component {component!r}"
                    )

    @property
    def kind(self) -> SWSKind:
        """The query regime of the mediator's components."""
        for component in self.components.values():
            return component.kind
        return SWSKind.PL

    def is_recursive(self) -> bool:
        """Whether the mediator's own dependency graph is cyclic.

        Components embedded in a nonrecursive mediator may themselves be
        recursive (Section 5.1).
        """
        edges: dict[str, set[str]] = {s: set() for s in self.states}
        for state, rule in self.transitions.items():
            for target, _component in rule.targets:
                edges[state].add(target)
        WHITE, GRAY, BLACK = 0, 1, 2
        color = {s: WHITE for s in self.states}

        def visit(state: str) -> bool:
            color[state] = GRAY
            for target in edges[state]:
                if color[target] == GRAY:
                    return True
                if color[target] == WHITE and visit(target):
                    return True
            color[state] = BLACK
            return False

        return any(color[s] == WHITE and visit(s) for s in self.states)

    def successor_register_aliases(self, state: str) -> dict[str, int]:
        """Register names for a state's synthesis query (as for SWS's)."""
        rule = self.transitions[state]
        aliases: dict[str, int] = {}
        for i in range(len(rule)):
            aliases[f"A{i + 1}"] = i
            aliases[f"Act{i + 1}"] = i
        successors = [t for t, _c in rule.targets]
        for i, target in enumerate(successors):
            if successors.count(target) == 1:
                aliases[f"Act_{target}"] = i
        return aliases

    def component_invocation_counts(self) -> dict[str, int]:
        """How often each component appears across all transition rules.

        MDT_b(PL) (Theorem 5.3(3)) bounds these counts.
        """
        counts: dict[str, int] = {name: 0 for name in self.components}
        for rule in self.transitions.values():
            for _target, component in rule.targets:
                counts[component] += 1
        return counts

    def __eq__(self, other: object) -> bool:
        """Structural equality: states, start, both rule maps and components.

        Components compare by name and by their structural fingerprint,
        so a mediator equals its own pickle round trip; ``name`` labels
        are ignored, as fingerprints ignore them.
        """
        if not isinstance(other, Mediator):
            return NotImplemented
        if (
            frozenset(self.states) != frozenset(other.states)
            or self.start != other.start
            or self.transitions != other.transitions
            or self.synthesis != other.synthesis
            or self.components.keys() != other.components.keys()
        ):
            return False
        from repro.serve.fingerprint import fingerprint  # serve imports this module

        return all(
            fingerprint(component) == fingerprint(other.components[name])
            for name, component in self.components.items()
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.states), self.start, tuple(sorted(self.components))))

    def __repr__(self) -> str:
        return (
            f"Mediator({self.name!r}, {len(self.states)} states, "
            f"{len(self.components)} components)"
        )


def run_mediator(
    mediator: Mediator, database: Database | None, inputs
) -> RunResult:
    """Run a mediator; dispatches on the components' kind."""
    if mediator.kind is SWSKind.PL:
        return run_mediator_pl(mediator, inputs)
    if database is None:
        raise RunError("relational mediator runs need a database")
    return run_mediator_relational(mediator, database, inputs)


def run_mediator_relational(
    mediator: Mediator, database: Database, inputs: InputSequence
) -> RunResult[Relation]:
    """Run a relational mediator on (D, I) per Section 5.1."""
    some_component = next(iter(mediator.components.values()), None)
    if some_component is None or some_component.input_schema is None:
        raise RunError("relational mediators need relational components")
    payload = some_component.input_schema
    out_schema = output_schema(some_component)
    n = len(inputs)

    def expand(state: str, j: int, msg: Relation) -> ExecutionNode[Relation]:
        node: ExecutionNode[Relation] = ExecutionNode(state, j, msg)
        rule = mediator.transitions[state]
        sigma = mediator.synthesis[state].query
        if rule.is_final:
            env = {MSG: Relation(msg.schema.renamed(MSG), msg.rows)}
            node.act = Relation(out_schema, sigma.evaluate(env))
            return node
        if j > n or (not msg and state != mediator.start):
            node.act = Relation.empty(out_schema)
            return node
        for target, component_name in rule.targets:
            component = mediator.components[component_name]
            suffix = inputs.suffix(j)
            from repro.mediator._component_run import run_component_relational

            child_output, consumed = run_component_relational(
                component, database, suffix, msg
            )
            child = expand(target, j + consumed, child_output)
            node.children.append(child)
        aliases = mediator.successor_register_aliases(state)
        env = {}
        for alias, position in aliases.items():
            child_act = node.children[position].act
            assert child_act is not None
            env[alias] = Relation(child_act.schema.renamed(alias), child_act.rows)
        node.act = Relation(out_schema, sigma.evaluate(env))
        return node

    empty_msg = Relation.empty(out_schema.renamed(MSG))
    root = expand(mediator.start, 1, empty_msg)
    assert root.act is not None
    return RunResult(output=root.act, tree=root)


def run_mediator_pl(mediator: Mediator, word: PLWord) -> RunResult[bool]:
    """Run a PL mediator on a word of truth assignments."""
    word = [frozenset(w) for w in word]
    n = len(word)

    def expand(state: str, j: int, msg: bool) -> ExecutionNode[bool]:
        node: ExecutionNode[bool] = ExecutionNode(state, j, msg)
        rule = mediator.transitions[state]
        sigma = mediator.synthesis[state].query
        assert isinstance(sigma, pl.Formula)
        if rule.is_final:
            node.act = sigma.evaluate(frozenset({MSG}) if msg else frozenset())
            return node
        if j > n or (not msg and state != mediator.start):
            node.act = False
            return node
        for target, component_name in rule.targets:
            component = mediator.components[component_name]
            from repro.mediator._component_run import run_component_pl

            value, consumed = run_component_pl(component, word[j - 1 :], msg)
            child = expand(target, j + consumed, value)
            node.children.append(child)
        aliases = mediator.successor_register_aliases(state)
        env = frozenset(
            alias
            for alias, position in aliases.items()
            if node.children[position].act
        )
        node.act = sigma.evaluate(env)
        return node

    root = expand(mediator.start, 1, False)
    assert root.act is not None
    return RunResult(output=root.act, tree=root)


def mediator_equivalent_to_sws_pl(
    mediator: Mediator, goal: SWS, max_word_length: int, variables: Sequence[str]
) -> tuple[bool, list[frozenset[str]] | None]:
    """Compare a PL mediator with a goal SWS on all words up to a bound.

    Exact when the bound dominates both sides' prefix-dependence (see
    :func:`repro.mediator.synthesis.kprefix_bound`); returns
    ``(equivalent, distinguishing word)``.
    """
    import itertools

    from repro.core.run import run_pl

    alphabet = [
        frozenset(c)
        for r in range(len(variables) + 1)
        for c in itertools.combinations(sorted(variables), r)
    ]
    for length in range(0, max_word_length + 1):
        for combo in itertools.product(alphabet, repeat=length):
            word = list(combo)
            if run_mediator_pl(mediator, word).output != run_pl(goal, word).output:
                return False, word
    return True, None
