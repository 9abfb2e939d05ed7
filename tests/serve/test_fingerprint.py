"""Fingerprints must depend on structure only.

Same instance built in a different order, under a different hash seed,
or with a different name → same fingerprint; any structural change →
a different one.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.afa import AFA
from repro.automata.nfa import NFA
from repro.core.pl_semantics import to_afa
from repro.core.sws import SWS, SWSKind, SynthesisRule, TransitionRule
from repro.logic import pl
from repro.logic.cq import ConjunctiveQuery
from repro.serve import fingerprint, job_fingerprint
from repro.serve.fingerprint import (
    FingerprintError,
    canonical,
    sub_fingerprints,
)
from repro.workloads.editing import menu_editing_trace, replace_rule
from repro.workloads.scaling import pl_counter_sws
from repro.workloads.travel import travel_mediator, travel_service


def shuffled_pl_counter(bits: int, seed: int) -> SWS:
    """``pl_counter_sws(bits)`` rebuilt with shuffled container orders."""
    base = pl_counter_sws(bits)
    rng = random.Random(seed)
    states = list(base.states)
    rng.shuffle(states)
    trans_items = list(base.transitions.items())
    rng.shuffle(trans_items)
    synth_items = list(base.synthesis.items())
    rng.shuffle(synth_items)
    return SWS(
        states=states,
        start=base.start,
        transitions=dict(trans_items),
        synthesis=dict(synth_items),
        kind=base.kind,
        db_schema=base.db_schema,
        input_schema=base.input_schema,
        output_arity=base.output_arity,
        name=f"shuffled-{seed}",  # names are labels, not structure
    )


def reversed_cq_travel() -> SWS:
    """``travel_service()`` whose ``qa`` synthesis CQ lists its atoms reversed.

    CQ equality compares atoms as sets, so both services' ``qa`` rules
    are *equal*; their canonical forms keep atom order and differ.
    """
    base = travel_service()
    query = base.synthesis["qa"].query
    reordered = ConjunctiveQuery(query.head, query.atoms[::-1], query.comparisons)
    return replace_rule(base, "qa", synthesis=SynthesisRule(reordered), name="rev")


def pattern_counter(bits: int, p: int) -> SWS:
    """``pl_counter_sws(bits)`` whose root accepts remaining length ``p`` only."""
    base = pl_counter_sws(bits)
    literals = [
        pl.Var(f"A{i + 1}") if p >> i & 1 else pl.Not(pl.Var(f"A{i + 1}"))
        for i in range(bits)
    ]
    return replace_rule(base, base.start, synthesis=SynthesisRule(pl.conjoin(literals)))


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=25, deadline=None)
def test_build_order_and_name_independent(bits, seed):
    assert fingerprint(shuffled_pl_counter(bits, seed)) == fingerprint(
        pl_counter_sws(bits)
    )


def test_structural_changes_change_fingerprint():
    assert fingerprint(pl_counter_sws(4)) != fingerprint(pl_counter_sws(5))
    assert fingerprint(travel_service()) != fingerprint(pl_counter_sws(4))


def test_leaf_memo_never_conflates_reordered_cq_atoms():
    original, reordered = travel_service(), reversed_cq_travel()
    assert original.synthesis["qa"] == reordered.synthesis["qa"]
    first = sub_fingerprints(original).root  # the original's leaves are hashed first
    assert sub_fingerprints(reordered).root != first
    assert fingerprint(reordered) != fingerprint(original)


def test_tree_stands_for_its_service_in_job_keys():
    sws = menu_editing_trace(edits=0)[0]
    tree = sub_fingerprints(sws)
    kwargs = {"output": True}
    assert canonical(tree) == canonical(sws) == ("sws", tree.root)
    assert job_fingerprint("validate_pl", (tree,), kwargs) == job_fingerprint(
        "validate_pl", (sws,), kwargs
    )


@st.composite
def one_rule_edits(draw):
    """A menu or pattern counter, one of its states and a replacement rule.

    A transition target gets any formula the service uses, or its
    negation; a synthesis formula is kept or negated.  The replacement
    may equal the old rule.
    """
    if draw(st.booleans()):
        branches = draw(st.integers(min_value=2, max_value=5))
        seed = draw(st.integers(min_value=0, max_value=50))
        sws = menu_editing_trace(branches=branches, edits=0, seed=seed)[0]
    else:
        bits = draw(st.integers(min_value=2, max_value=6))
        sws = pattern_counter(bits, draw(st.integers(0, (1 << bits) - 1)))
    state = draw(st.sampled_from(sws.states))
    rule, synth = sws.transitions[state], sws.synthesis[state]
    slot = draw(st.integers(min_value=0, max_value=len(rule.targets)))
    if slot == len(rule.targets):
        query = synth.query
        new_query = pl.Not(query) if draw(st.booleans()) else query
        edited = replace_rule(sws, state, synthesis=SynthesisRule(new_query))
        return sws, state, edited, new_query != query
    used = list(
        dict.fromkeys(q for r in sws.transitions.values() for _, q in r.targets)
    )
    new_query = draw(st.sampled_from(used + [pl.Not(q) for q in used]))
    targets = list(rule.targets)
    target, query = targets[slot]
    targets[slot] = (target, new_query)
    edited = replace_rule(sws, state, rule=TransitionRule(targets))
    return sws, state, edited, new_query != query


@given(one_rule_edits())
@settings(max_examples=40, deadline=None)
def test_one_rule_edit_changes_fingerprint_exactly_when_the_rule_changes(case):
    sws, state, edited, changed = case
    assert (fingerprint(edited) != fingerprint(sws)) == changed
    changed_states = sub_fingerprints(edited).changed_states(sub_fingerprints(sws))
    assert changed_states == ({state} if changed else set())
    renamed = replace_rule(edited, state, name=f"{sws.name}-renamed")
    assert fingerprint(renamed) == fingerprint(edited)


def test_mediator_fingerprint_stable():
    assert fingerprint(travel_mediator()) == fingerprint(travel_mediator())


def test_nfa_epsilon_and_mixed_symbols():
    # ε transitions are keyed by None; sorting falls back to repr so the
    # mix of None and str never raises.
    def build(order):
        transitions = {("p", "a"): {"q"}, ("q", None): {"r"}}
        items = list(transitions.items())
        if order:
            items.reverse()
        return NFA(
            states=order and ["r", "q", "p"] or ["p", "q", "r"],
            alphabet={"a"},
            transitions=dict(items),
            initials={"p"},
            finals={"r"},
        )

    assert fingerprint(build(False)) == fingerprint(build(True))


def test_afa_fingerprint_reads_through_letter_classes():
    """A translated menu (one row per letter class) fingerprints like the
    same automaton rebuilt with one entry per (pair, assignment)."""
    afa = to_afa(menu_editing_trace(edits=0, branches=5)[0])
    assert len(set(afa.classes.values())) < len(afa.alphabet)
    per_assignment = AFA(
        afa.states,
        afa.alphabet,
        {
            (state, symbol): afa.transition(state, symbol)
            for state in afa.states
            for symbol in afa.alphabet
        },
        afa.initial_condition,
        afa.finals,
    )
    assert fingerprint(per_assignment) == fingerprint(afa)
    assert fingerprint(to_afa(pl_counter_sws(3))) != fingerprint(afa)


def test_containers_canonicalize():
    assert canonical({1, 2, 3}) == canonical({3, 2, 1})
    assert canonical({"a": 1, "b": 2}) == canonical({"b": 2, "a": 1})
    # Sequences keep order: position is semantics.
    assert canonical((1, 2)) != canonical((2, 1))


def test_pl_interning_vs_fresh_nodes():
    f = pl.And((pl.Var("x"), pl.Var("y")))
    g = pl.And((pl.Var("x"), pl.Var("y")))
    assert fingerprint(f) == fingerprint(g)


def test_formula_digests_tell_connectives_apart_and_keep_leaves_inline():
    x, y = pl.Var("x"), pl.Var("y")
    nodes = [
        pl.And((x, y)), pl.And((y, x)), pl.Or((x, y)),
        pl.And((x,)), pl.Or((x,)), pl.Not(x), pl.Not(pl.Not(x)),
    ]
    assert len({canonical(node) for node in nodes}) == len(nodes)
    # Leaves keep their short form, so the canonical form of a mostly
    # FALSE transition row stays small.
    assert canonical(x) == ("pl.var", "x")
    assert canonical(pl.FALSE) == ("pl.const", False)


def test_job_fingerprint_excludes_budget_kwarg_order():
    sws = pl_counter_sws(3)
    a = job_fingerprint("nonempty_cq", (sws,), {"max_session_length": 4})
    b = job_fingerprint("nonempty_cq", (sws,), {"max_session_length": 4})
    c = job_fingerprint("nonempty_cq", (sws,), {"max_session_length": 5})
    d = job_fingerprint("nonempty_pl", (sws,))
    assert a == b
    assert a != c  # question-changing kwargs are part of the key
    assert a != d  # so is the procedure name


def test_unknown_type_raises():
    class Opaque:
        pass

    with pytest.raises(FingerprintError):
        fingerprint(Opaque())


_HASHSEED_SNIPPET = """
import sys
from repro.core.pl_semantics import to_afa
from repro.core.sws import SynthesisRule
from repro.logic.cq import ConjunctiveQuery
from repro.serve import fingerprint, job_fingerprint
from repro.workloads.editing import menu_editing_trace, replace_rule
from repro.workloads.scaling import pl_counter_sws
from repro.workloads.travel import travel_mediator, travel_service

if sys.argv[1:] == ["prime"]:
    # Fill the formula and leaf memos with other instances first.
    fingerprint(travel_service())
    fingerprint(travel_mediator())
    for trace in (menu_editing_trace(edits=3, seed=7), menu_editing_trace(branches=5)):
        for version in trace:
            fingerprint(version)
    for bits in (3, 4, 6):
        fingerprint(to_afa(pl_counter_sws(bits)))
menu, edited = menu_editing_trace(edits=1)
base = travel_service()
query = base.synthesis["qa"].query
reordered = ConjunctiveQuery(query.head, query.atoms[::-1], query.comparisons)
# The reordered copy comes first: a cold run hashes it before the original.
print(fingerprint(replace_rule(base, "qa", synthesis=SynthesisRule(reordered))))
print(fingerprint(pl_counter_sws(5)))
print(fingerprint(travel_mediator()))
print(fingerprint(menu))
print(fingerprint(edited))
print(fingerprint(to_afa(pl_counter_sws(4))))
print(job_fingerprint("validate_pl", (menu,), {"output": True}))
"""


def _run_snippet(seed: str, *argv: str) -> str:
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    proc = subprocess.run(
        [sys.executable, "-c", _HASHSEED_SNIPPET, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return proc.stdout


def test_hash_seed_independent():
    """Two interpreters agree exactly: different PYTHONHASHSEED, and one
    of them fingerprints other instances first (memo state)."""
    cold = _run_snippet("1")
    primed = _run_snippet("4242", "prime")
    assert cold == primed
    lines = cold.split()
    assert len(lines) == 7 and len(set(lines)) == 7
