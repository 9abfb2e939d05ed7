"""Run semantics: the step relation ⇒(τ, D, I) of Section 2.

The engine materializes the final execution tree of a run directly, in the
paper's two sweeps:

* **Generating** (top-down): a leaf ``v`` labeled ``q, j, Msg(v)`` with
  ``δ(q): q → (q1, φ1), ..., (qk, φk)``

  - rule (1): if ``k > 0`` and (``j > n``, or ``Msg(v)`` is empty and ``v``
    is not the root), set ``Act(v) = ∅``;
  - rule (2): otherwise for ``k > 0`` spawn children ``ui`` labeled
    ``qi, j+1`` with ``Msg(ui) = φi(D, Ij, Msg(v))``;
  - rule (3): if ``k = 0`` set ``Act(v) = ψ(D, Ij, Msg(v))`` — with ``Ij``
    the empty relation when ``j > n``.  Rule (3) takes precedence over
    rule (1) at final states: Example 2.2 requires the leaf states of τ1 to
    produce actions at timestamp 2 on a single-message input (see DESIGN.md
    §3 for the resolution of this overlap in the paper's formal text).

* **Gathering** (bottom-up, rule (4)): once every child's register is
  defined, ``Act(v) = ψ(Act(u1), ..., Act(uk))``.

The output of the run is ``Act(root)``.

Cost note: a recursive SWS on an ``n``-message input builds a tree of up to
``k^n`` nodes — runs are exponential in the session length by design (the
model processes all branches in parallel); the decision procedures in
:mod:`repro.analysis` avoid materializing trees.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro._stats import STATS
from repro.core.exec_tree import ExecutionNode, RunResult
from repro.core.sws import IN, MSG, SWS, SWSKind
from repro.data.database import Database
from repro.data.input_sequence import InputSequence
from repro.data.relation import Relation
from repro.data.schema import RelationSchema
from repro.errors import RunError
from repro.logic import pl

#: A PL input word: a sequence of truth assignments.
PLWord = Sequence[frozenset[str]]


def run(sws: SWS, *args, **kwargs) -> RunResult:
    """Run an SWS; dispatches on its kind.

    PL services: ``run(sws, word)`` with ``word`` a sequence of truth
    assignments.  Relational services: ``run(sws, database, inputs)``.
    """
    if sws.kind is SWSKind.PL:
        return run_pl(sws, *args, **kwargs)
    return run_relational(sws, *args, **kwargs)


# -- relational engine -----------------------------------------------------------


def output_schema(sws: SWS) -> RelationSchema:
    """The Rout register schema of a relational SWS."""
    if sws.output_arity is None:
        raise RunError(f"{sws.name}: relational runs need an output arity")
    return RelationSchema("Act", tuple(f"o{i}" for i in range(sws.output_arity)))


def run_relational(
    sws: SWS,
    database: Database,
    inputs: InputSequence,
    root_msg: Relation | None = None,
) -> RunResult[Relation]:
    """Run a relational SWS on a database and an input sequence.

    ``root_msg`` seeds the start state's message register — mediators
    instantiate a component's start register with their own Msg(v)
    (Section 5.1, rule (2)); plain runs leave it empty.
    """
    if sws.kind is not SWSKind.RELATIONAL:
        raise RunError(f"{sws.name} is not a relational SWS")
    if sws.input_schema is None:
        raise RunError(f"{sws.name} has no input schema")
    if inputs.schema.arity != sws.input_schema.arity:
        raise RunError(
            f"input payload arity {inputs.schema.arity} does not match the "
            f"service's input schema arity {sws.input_schema.arity}"
        )
    payload = sws.input_schema
    out_schema = output_schema(sws)
    empty_msg = Relation.empty(payload.renamed(MSG))
    empty_act = Relation.empty(out_schema)
    n = len(inputs)

    def message_at(j: int) -> Relation:
        return Relation(payload.renamed(IN), inputs.message(j).rows)

    def base_env(j: int, msg: Relation) -> dict[str, Relation]:
        env: dict[str, Relation] = {name: database[name] for name in database}
        env[IN] = message_at(j)
        env[MSG] = Relation(payload.renamed(MSG), msg.rows)
        return env

    def evaluate(query, env: Mapping[str, Relation], schema: RelationSchema) -> Relation:
        rows = query.evaluate(env)
        return Relation(schema, rows)

    if root_msg is None:
        root_msg = empty_msg
    elif root_msg.schema.arity != payload.arity:
        raise RunError(
            f"root message arity {root_msg.schema.arity} does not match "
            f"the input payload arity {payload.arity}"
        )
    STATS.runs_executed += 1
    root: ExecutionNode[Relation] = ExecutionNode(
        sws.start, 1, Relation(payload.renamed(MSG), root_msg.rows)
    )
    # Two-phase iterative traversal: EXPAND applies rules (1)-(3),
    # GATHER applies rule (4) once children are done.
    EXPAND, GATHER = 0, 1
    stack: list[tuple[ExecutionNode[Relation], int]] = [(root, EXPAND)]
    while stack:
        node, phase = stack.pop()
        rule = sws.transitions[node.state]
        sigma = sws.synthesis[node.state].query
        j = node.timestamp
        if phase == EXPAND:
            if rule.is_final:
                env = base_env(j, node.msg)
                node.act = evaluate(sigma, env, out_schema)
                continue
            starved = j > n
            dead = (not node.msg) and node is not root
            if starved or dead:
                node.act = empty_act
                continue
            env = base_env(j, node.msg)
            for target, phi in rule.targets:
                msg_rows = phi.evaluate(env)
                child_msg = Relation(payload.renamed(MSG), msg_rows)
                node.children.append(ExecutionNode(target, j + 1, child_msg))
            stack.append((node, GATHER))
            for child in reversed(node.children):
                stack.append((child, EXPAND))
        else:  # GATHER
            env = _register_env(sws, node, out_schema)
            node.act = evaluate(sigma, env, out_schema)
    assert root.act is not None
    return RunResult(output=root.act, tree=root)


def _register_env(
    sws: SWS, node: ExecutionNode[Relation], out_schema: RelationSchema
) -> dict[str, Relation]:
    aliases = sws.successor_register_aliases(node.state)
    env: dict[str, Relation] = {}
    for name, position in aliases.items():
        child = node.children[position]
        if child.act is None:
            raise RunError("gathering before all children are defined")
        env[name] = Relation(out_schema.renamed(name), child.act.rows)
    return env


# -- PL engine ------------------------------------------------------------------------


def run_pl(sws: SWS, word: PLWord, root_msg: bool = False) -> RunResult[bool]:
    """Run a PL SWS on a word of truth assignments.

    Registers are booleans; an empty register is the value ``false``.  The
    output is the truth value gathered at the root.  ``root_msg`` seeds the
    start state's register (used by mediator runs).
    """
    if sws.kind is not SWSKind.PL:
        raise RunError(f"{sws.name} is not a PL SWS")
    STATS.runs_executed += 1
    word = [frozenset(symbol) for symbol in word]
    n = len(word)

    def assignment_at(j: int) -> frozenset[str]:
        return word[j - 1] if 1 <= j <= n else frozenset()

    root: ExecutionNode[bool] = ExecutionNode(sws.start, 1, root_msg)
    EXPAND, GATHER = 0, 1
    stack: list[tuple[ExecutionNode[bool], int]] = [(root, EXPAND)]
    while stack:
        node, phase = stack.pop()
        rule = sws.transitions[node.state]
        sigma = sws.synthesis[node.state].query
        assert isinstance(sigma, pl.Formula)
        j = node.timestamp
        if phase == EXPAND:
            if rule.is_final:
                env = assignment_at(j) | ({MSG} if node.msg else frozenset())
                node.act = sigma.evaluate(env)
                continue
            if j > n or (not node.msg and node is not root):
                node.act = False
                continue
            env = assignment_at(j) | ({MSG} if node.msg else frozenset())
            for target, phi in rule.targets:
                assert isinstance(phi, pl.Formula)
                node.children.append(
                    ExecutionNode(target, j + 1, phi.evaluate(env))
                )
            stack.append((node, GATHER))
            for child in reversed(node.children):
                stack.append((child, EXPAND))
        else:  # GATHER
            aliases = sws.successor_register_aliases(node.state)
            env = frozenset(
                name
                for name, position in aliases.items()
                if node.children[position].act
            )
            node.act = sigma.evaluate(env)
    assert root.act is not None
    return RunResult(output=root.act, tree=root)
