"""Hypothesis properties: incremental re-check == from-scratch solve.

Random edit scripts over random PL services, replayed through one
:class:`repro.delta.Session`.  The contract is *verdict* equality plus
witness validity — not full ``Answer`` equality, because a replayed
re-check legitimately keeps the previous witness while a scratch solve
may find a different (equally valid) one.  A second property checks
that what a session derives for an edited copy (tree, input variables,
delta) is what a from-scratch hash and diff compute.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.analysis import nonempty_pl, validate_pl
from repro.core.pl_semantics import to_afa
from repro.core.run import run_pl
from repro.core.sws import MSG, SWS, SynthesisRule, TransitionRule
from repro.delta import Session, compute_delta
from repro.logic import pl
from repro.serve.fingerprint import sub_fingerprints
from repro.workloads.editing import menu_words, replace_rule
from repro.workloads.pl_services import HASH, exactly, letter_var, union_word_service
from repro.workloads.random_sws import random_pl_sws
from repro.workloads.scaling import pl_counter_sws


@st.composite
def edit_scripts(draw):
    """A base service plus 1–4 single-state edits borrowed from a donor.

    Swapping in a donor state's (rule, synthesis) pair keeps the script
    well-formed (targets name the same state set) while freely changing
    guards, branching, and finality — including edits that change the
    verdict or shrink the inspected alphabet (which forces the full
    path; the property holds for every mode).
    """
    n_states = draw(st.integers(3, 6))
    recursive = draw(st.booleans())
    base = random_pl_sws(
        draw(st.integers(0, 150)), n_states=n_states, recursive=recursive
    )
    donor = random_pl_sws(
        draw(st.integers(151, 300)), n_states=n_states, recursive=recursive
    )
    states = sorted(base.states)
    script = [base]
    current = base
    for step in range(draw(st.integers(1, 4))):
        state = draw(st.sampled_from(states))
        current = replace_rule(
            current,
            state,
            rule=donor.transitions[state],
            synthesis=donor.synthesis.get(state),
            name=f"v{step + 1}",
        )
        script.append(current)
    return script


@given(edit_scripts())
@settings(max_examples=40, deadline=None)
def test_incremental_nonempty_matches_scratch(script):
    session = Session(script[0])
    session.check()
    for version in script[1:]:
        session.edit(version)
        result = session.recheck()
        scratch = nonempty_pl(version)
        assert result.answer.verdict is scratch.verdict
        if result.answer.is_yes:
            assert run_pl(version, list(result.answer.witness)).output


@given(edit_scripts(), st.booleans())
@settings(max_examples=20, deadline=None)
def test_incremental_validate_matches_scratch(script, output):
    session = Session(script[0], "validate_pl", output=output)
    session.check()
    for version in script[1:]:
        session.edit(version)
        result = session.recheck()
        scratch = validate_pl(version, output=output)
        assert result.answer.verdict is scratch.verdict
        if result.answer.is_yes:
            assert run_pl(version, list(result.answer.witness)).output is output


_LETTERS = "abc"
#: Guards for edited transitions.  ``z`` grows the alphabet while some
#: guard or final synthesis mentions it, and shrinks it when the last
#: one goes; ``ltr_a`` alone, ``true`` and ``false`` read fewer variables.
_GUARDS = [
    pl.TRUE,
    pl.FALSE,
    pl.Var(MSG),
    pl.Var(MSG) & pl.Var(letter_var("a")),
    *(pl.Var(MSG) & exactly(letter, _LETTERS) for letter in _LETTERS),
    exactly("z", _LETTERS + "z"),
]
_FINAL_SYNTHESES = [pl.TRUE, pl.Var(MSG), exactly(HASH, _LETTERS), exactly("z", _LETTERS + "z")]


def _pattern_counter(bits: int, pattern: int) -> SWS:
    counter = pl_counter_sws(bits)
    literals = [
        pl.Var(f"A{i + 1}") if pattern >> i & 1 else pl.Not(pl.Var(f"A{i + 1}"))
        for i in range(bits)
    ]
    return counter.replace("root", synthesis=SynthesisRule(pl.conjoin(literals)))


def _edit(draw, sws: SWS, step: int) -> SWS:
    """One edit of ``sws`` by ``SWS.replace``, of a drawn kind."""
    kinds = ["guard", "synthesis", "finalize", "unfinalize", "shrink", "noop", "rename"]
    kind = draw(st.sampled_from(kinds))
    internal = sorted(s for s in sws.states if not sws.transitions[s].is_final)
    final = sorted(s for s in sws.states if sws.transitions[s].is_final)
    others = sorted(s for s in sws.states if s != sws.start)
    grown = sorted(
        s
        for s in sws.states
        if any(letter_var("z") in f.variables() for f in sws._input_formulas(s))
    )
    if kind == "guard" and internal:
        state = draw(st.sampled_from(internal))
        targets = list(sws.transitions[state].targets)
        slot = draw(st.integers(0, len(targets) - 1))
        targets[slot] = (targets[slot][0], draw(st.sampled_from(_GUARDS)))
        return sws.replace(state, rule=TransitionRule(targets))
    if kind == "synthesis" and internal:
        state = draw(st.sampled_from(internal))
        registers = [pl.Var(f"A{i + 1}") for i in range(len(sws.transitions[state]))]
        formula = draw(st.sampled_from([pl.disjoin(registers), pl.conjoin(registers), pl.Not(registers[0])]))
        return sws.replace(state, synthesis=SynthesisRule(formula))
    if kind == "finalize" and set(internal) - {sws.start}:
        state = draw(st.sampled_from(sorted(set(internal) - {sws.start})))
        synthesis = SynthesisRule(draw(st.sampled_from(_FINAL_SYNTHESES)))
        return sws.replace(state, rule=TransitionRule(), synthesis=synthesis)
    if kind == "unfinalize" and final:
        state = draw(st.sampled_from(final))
        rule = TransitionRule([(draw(st.sampled_from(others)), draw(st.sampled_from(_GUARDS)))])
        return sws.replace(state, rule=rule, synthesis=SynthesisRule(pl.Var("A1")))
    if kind == "shrink" and grown:  # drop z from one state's formulas
        state = draw(st.sampled_from(grown))
        if sws.transitions[state].is_final:
            return sws.replace(state, synthesis=SynthesisRule(pl.Var(MSG)))
        targets = [(target, pl.Var(MSG)) for target, _ in sws.transitions[state].targets]
        return sws.replace(state, rule=TransitionRule(targets))
    if kind == "noop":
        state = draw(st.sampled_from(sorted(sws.states)))
        return sws.replace(state, rule=TransitionRule(sws.transitions[state].targets))
    return sws.replace(sws.start, name=f"v{step}")


@st.composite
def derived_edit_scripts(draw):
    """A menu or pattern counter plus 1–8 edits, each of the previous version."""
    if draw(st.booleans()):
        words = menu_words(draw(st.integers(2, 4)), 3, _LETTERS, seed=draw(st.integers(0, 99)))
        base = union_word_service(words, _LETTERS)
    else:
        bits = draw(st.integers(2, 3))
        base = _pattern_counter(bits, draw(st.integers(0, (1 << bits) - 1)))
    script = [base]
    for step in range(draw(st.integers(1, 8))):
        script.append(_edit(draw, script[-1], step))
    return script


def _rebuilt(sws: SWS) -> SWS:
    """``sws`` built anew: no record of a base, no memos."""
    return SWS(sws.states, sws.start, sws.transitions, sws.synthesis, kind=sws.kind, name=sws.name)


@given(derived_edit_scripts())
@settings(max_examples=40, deadline=None)
def test_derived_deltas_equal_scratch(script):
    session = Session(script[0])
    session.check()
    for version in script[1:]:
        base = session.current
        delta = session.edit(version)
        _, tree, _ = session.pending
        scratch_base, scratch = _rebuilt(base), _rebuilt(version)
        expected = sub_fingerprints(scratch)
        assert tree.root == expected.root
        assert tree.globals_digest == expected.globals_digest
        assert list(tree.states.items()) == list(expected.states.items())
        assert version.input_variables() == scratch.input_variables()
        assert delta == compute_delta(scratch_base, scratch)
        answer = session.recheck().answer
        assert answer.verdict is nonempty_pl(scratch).verdict
        if answer.is_yes:
            assert to_afa(scratch).accepts(answer.witness)
    assert session.stats()["edits"] == {"derived": len(script) - 1, "diffed": 0}
