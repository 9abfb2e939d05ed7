"""Edit-script traces: sequences of instance versions for repro.delta.

An *edit script* is a list of SWS versions, each obtained from its
predecessor by a small designer-style edit.  Crucially, every edit is
:meth:`repro.core.sws.SWS.replace`, which **shares the untouched rules**
with the predecessor and records which states it replaced — exactly
what an editor front-end holding an in-memory model would do — so a
:class:`repro.delta.Session` derives each version's delta from its
predecessor's without a pass over the service.

Families (all deterministic in their parameters — the traces are also
benchmark inputs):

* :func:`menu_editing_trace` — the realistic case: a "menu" union
  service (Table 1's PL shape) where each step retargets one letter
  guard deep in one branch.  Single-row edits; the service stays
  non-empty throughout (other branches are untouched), so witness
  replay applies.
* :func:`flip_trace` — a single word chain whose guard is made
  unsatisfiable mid-script and restored later: YES → NO → YES flips
  exercising stale-frontier soundness.
* :func:`rename_trace` — versions differing only in ``name``:
  fingerprint-invariant edits that must invalidate nothing.
* :func:`growing_trace` — a chain whose edits introduce a letter the
  alphabet did not previously contain: alphabet-growing edits that must
  force (and survive) the full-rebuild path.
* :func:`edited_menu` — the step-indexed single-version view of
  :func:`menu_editing_trace`, shaped for the serve CLI's ``@round``
  factory substitution.
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.sws import MSG, SWS, SynthesisRule, TransitionRule
from repro.logic import pl
from repro.workloads.pl_services import (
    HASH,
    exactly,
    union_word_service,
    word_service,
)

__all__ = [
    "edited_menu",
    "flip_trace",
    "growing_trace",
    "menu_editing_trace",
    "menu_words",
    "rename_trace",
    "replace_rule",
]


def replace_rule(
    sws: SWS,
    state: str,
    rule: TransitionRule | None = None,
    synthesis: SynthesisRule | None = None,
    name: str | None = None,
) -> SWS:
    """A copy of ``sws`` with one state's rules (and/or the name) replaced.

    The single-row edit primitive every trace is built from; see
    :meth:`repro.core.sws.SWS.replace`.
    """
    return sws.replace(state, rule=rule, synthesis=synthesis, name=name)


def menu_words(
    branches: int = 8, length: int = 4, alphabet: str = "abcd", seed: int = 0
) -> list[list[str]]:
    """Deterministic delimiter-terminated words for a menu service."""
    rng = random.Random(seed)
    letters = sorted(set(alphabet))
    return [
        [rng.choice(letters) for _ in range(length)] + [HASH]
        for _ in range(branches)
    ]


def menu_editing_trace(
    branches: int = 8,
    length: int = 4,
    alphabet: str = "abcd",
    edits: int = 6,
    seed: int = 0,
) -> list[SWS]:
    """Single-row guard edits on a menu service; ``edits + 1`` versions.

    Each step picks one branch-interior state and retargets its letter
    guard to the next letter of the alphabet — the "designer tweaks one
    transition row" scenario.  The start state's disjunction is never
    touched, so at least one original branch always remains intact and
    the service stays non-empty.
    """
    rng = random.Random(seed + 1)
    letters = sorted(set(alphabet))
    current = union_word_service(
        menu_words(branches, length, alphabet, seed), alphabet, name="menu"
    )
    # Interior branch states (exclude the shared root and final states).
    editable = [
        state
        for state in current.states
        if state != current.start and not current.transitions[state].is_final
    ]
    trace = [current]
    for step in range(edits):
        state = rng.choice(editable)
        target, old_guard = current.transitions[state].targets[0]
        # Retarget the guard to a different letter (cycling the alphabet
        # keeps the edit deterministic and always a real change).  The
        # Msg conjunct mirrors the interior-link shape of word_service.
        letter = letters[(step + rng.randrange(len(letters))) % len(letters)]
        new_guard = (pl.Var(MSG) & exactly(letter, alphabet)).simplify()
        if new_guard == old_guard:
            letter = letters[(letters.index(letter) + 1) % len(letters)]
            new_guard = (pl.Var(MSG) & exactly(letter, alphabet)).simplify()
        rest = list(current.transitions[state].targets[1:])
        current = replace_rule(
            current,
            state,
            rule=TransitionRule([(target, new_guard)] + rest),
            name=f"menu_v{step + 1}",
        )
        trace.append(current)
    return trace


def edited_menu(
    step: int = 0,
    branches: int = 8,
    length: int = 4,
    alphabet: str = "abcd",
    edits: int = 16,
    seed: int = 0,
) -> SWS:
    """Version ``step`` of the menu editing trace (clamped to the end).

    Registered as a workload factory so serve job specs can request
    ``{"factory": "repro.workloads.editing:edited_menu", "kwargs":
    {"step": "@round"}}`` — each ``serve run --repeat`` round then
    submits the next edited version.
    """
    trace = menu_editing_trace(branches, length, alphabet, edits, seed)
    return trace[min(max(int(step), 0), len(trace) - 1)]


def flip_trace(
    word: Sequence[str] = ("a", "b", "c"), alphabet: str = "abc"
) -> list[SWS]:
    """YES → NO → YES: a chain whose guard dies and comes back.

    Version 1 replaces one interior guard with ``false`` (the service
    accepts nothing — NO); version 2 restores it (YES again).  The NO
    step is the stale-frontier soundness test: any engine that reuses
    the YES frontier as *evidence* would answer YES wrongly.
    """
    base = word_service(list(word) + [HASH], alphabet, name="flip")
    state = "w1"
    target, guard = base.transitions[state].targets[0]
    dead = replace_rule(
        base,
        state,
        rule=TransitionRule([(target, pl.FALSE)]),
        name="flip_dead",
    )
    back = replace_rule(
        dead,
        state,
        rule=TransitionRule([(target, guard)]),
        name="flip_back",
    )
    return [base, dead, back]


def rename_trace(
    branches: int = 4, alphabet: str = "ab", steps: int = 3
) -> list[SWS]:
    """Rename-only edits: every version is structurally identical."""
    base = union_word_service(
        menu_words(branches, 3, alphabet, seed=7), alphabet, name="rn0"
    )
    trace = [base]
    for step in range(steps):
        base = replace_rule(base, base.start, name=f"rn{step + 1}")
        trace.append(base)
    return trace


def growing_trace(alphabet: str = "ab") -> list[SWS]:
    """An edit that grows the input alphabet (new letter in a guard).

    The edited guard mentions a letter outside the original alphabet, so
    the assignment alphabet doubles — the AFA layout changes and only a
    full rebuild is sound.
    """
    base = word_service(["a", "b", HASH], alphabet, name="grow")
    state = "w1"
    target, _guard = base.transitions[state].targets[0]
    grown_alphabet = sorted(set(alphabet) | {"z"})
    grown = replace_rule(
        base,
        state,
        rule=TransitionRule([(target, exactly("z", grown_alphabet))]),
        name="grow_z",
    )
    return [base, grown]
