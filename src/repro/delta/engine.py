"""Incremental re-check of an edited instance against its previous answer.

Four re-check modes, cheapest first; each is *sound* — soundness never
depends on the edit being small, only the cost does:

* ``cached`` — the delta is empty (identical or rename-only version) and
  the previous answer is decided: it is returned as-is.
* ``replay`` — local edit, and the previous witness still drives the
  edited automaton to the expected verdict; re-validated in
  O(|witness| · |classes|) pre-steps, so the old answer is *proved*
  still correct rather than assumed.
* ``warm`` — local edit: the AFA is rebuilt only for the edited states
  (:func:`repro.core.pl_semantics.to_afa_incremental`), patched against
  a root automaton, so its engine is the root's with the edited rows
  patched in (:func:`repro.automata.afa.patch_engine`), and the BFS
  runs afresh over the patched rows.  Reached vectors are a
  whole-instance property, so nothing of the previous search is reused —
  reusing it would be unsound precisely in the YES→NO flip case.
* ``full`` — global edit (states added/removed, alphabet grew, start
  moved), or an empty delta over a budget-tripped UNKNOWN: the version
  is translated and searched from scratch (:func:`solve`, the registry
  procedure's answer), and its automaton is kept for the next edit.

The warm search checkpoints through the ordinary guard site
``delta.recheck``, so budgets, fault injection, and progress telemetry
apply to incremental re-checks exactly as to full solves.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro import metrics
from repro.analysis.nonemptiness import nonempty_answer
from repro.analysis.validation import validation_answer
from repro.analysis.verdict import Answer
from repro.automata.afa import AFA, _CompiledAFA, _reconstruct, generic_search
from repro.core.classes import SWSClass, require_class
from repro.core.pl_semantics import to_afa, to_afa_incremental
from repro.core.sws import SWS
from repro.delta.diff import InstanceDelta
from repro.errors import ReproError
from repro.guard import GuardTrip, checkpoint_callable, ensure_guard, register_span

__all__ = ["DeltaError", "RecheckResult", "SUPPORTED_PROCEDURES", "recheck", "solve"]

register_span(
    "delta.recheck",
    "repro.delta.engine",
    "warm BFS over patched transition rows",
)


class DeltaError(ReproError):
    """Raised for instances or procedures the delta engine cannot serve."""


def _accepting_for(procedure: str, kwargs: dict) -> bool:
    if procedure == "nonempty_pl":
        return True
    if procedure == "validate_pl":
        return bool(kwargs.get("output", True))
    raise DeltaError(
        f"procedure {procedure!r} has no incremental re-check "
        f"(supported: {', '.join(sorted(SUPPORTED_PROCEDURES))})"
    )


#: Procedures the engine can re-check incrementally, each with its answer
#: for the AFA of a version.  Both reduce to one AFA witness search;
#: ``accepting`` is the polarity of the search.
_ANSWERS: dict[str, Callable[..., Answer]] = {
    "nonempty_pl": nonempty_answer,
    "validate_pl": validation_answer,
}
SUPPORTED_PROCEDURES = frozenset(_ANSWERS)


@dataclass
class RecheckResult:
    """One re-check's outcome plus where its work went."""

    answer: Answer
    mode: str
    delta: InstanceDelta
    elapsed_s: float
    pops: int = 0

    def as_dict(self) -> dict:
        return {
            "verdict": self.answer.verdict.value,
            "mode": self.mode,
            "elapsed_s": self.elapsed_s,
            "pops": self.pops,
            "delta": self.delta.as_dict(),
        }


def _replay(
    engine: _CompiledAFA, witness: tuple, accepting: bool
) -> bool | None:
    """Whether ``witness`` still yields ``accepting`` on the edited engine.

    ``None`` when the witness mentions symbols the engine lacks (cannot
    happen after a local edit, but the check keeps replay total).
    """
    mask = engine.final_mask
    for symbol in reversed(witness):
        rep = engine.rep_of.get(symbol)
        if rep is None:
            return None
        mask = engine.rows[rep](mask)
    return bool(engine.initial_fn(mask)) == accepting


def _search(engine: _CompiledAFA, accepting: bool, budget: Any) -> tuple[Answer, int]:
    """One guarded generic BFS over the engine's rows; returns (answer, pops)."""
    start = engine.final_mask
    if engine.initial_fn(start) == accepting:
        return Answer.yes(witness=[], detail="delta search"), 0
    rows = list(enumerate(engine.rows[rep] for rep in engine.reps))
    guard = ensure_guard(budget) if budget is not None else None
    try:
        with guard.activate() if guard is not None else nullcontext():
            # Fetched inside the activated block: outside it, with no
            # other guard ambient, it is the no-op and the budget never
            # bounds the search.
            ckpt = checkpoint_callable("delta.recheck")
            parents, hit, pops = generic_search(
                rows, start, accepting, engine.initial_fn, ckpt
            )
    except GuardTrip as error:
        return Answer.unknown(detail=error.trip.describe(), trip=error.trip), 0
    if hit is not None:
        witness = _reconstruct(parents, hit, engine.reps)
        return Answer.yes(witness=list(witness), detail="delta search"), pops
    return Answer.no(detail="vector space exhausted (delta search)"), pops


def solve(
    procedure: str, sws: SWS, kwargs: dict, budget: Any = None
) -> tuple[Answer, AFA | None]:
    """The registry procedure's answer on ``sws``, plus the automaton it searched.

    The answer equals ``PROCEDURES[procedure](sws, guard=budget, **kwargs)``
    in verdict, witness, detail and trip: the same translation and search,
    and a guard trip becomes the UNKNOWN answer of the procedure's guard
    boundary.  The AFA is returned for the session to keep (``None`` if
    the translation tripped), so the next local edit patches it instead
    of translating ``sws`` again.
    """
    require_class(sws, SWSClass.PL_PL, procedure)
    afa = None
    guard = ensure_guard(budget) if budget is not None else None
    try:
        with guard.activate() if guard is not None else nullcontext():
            afa = to_afa(sws)
            answer = _ANSWERS[procedure](afa, **kwargs)
    except GuardTrip as error:
        answer = Answer.unknown(detail=error.trip.describe(), trip=error.trip)
    return answer, afa


def recheck(
    procedure: str,
    base: SWS,
    base_answer: Answer,
    base_afa: AFA | None,
    new: SWS,
    delta: InstanceDelta,
    kwargs: dict,
    budget: Any = None,
) -> tuple[RecheckResult, AFA | None]:
    """Re-check ``new`` given ``base``, its answer and the ``delta`` between them.

    Returns the result plus the live AFA of ``new`` for the session to
    adopt.  ``base_afa`` may be ``None`` (a session reopened on a cached
    answer); the local path then builds it once and later edits go
    incremental.
    """
    t0 = time.perf_counter()
    accepting = _accepting_for(procedure, kwargs)

    mode = "full"
    answer: Answer | None = None
    pops = 0
    next_afa = base_afa

    if delta.is_empty and not base_answer.is_unknown:
        mode = "cached"
        answer = base_answer
    elif delta.is_local:
        if next_afa is None:
            next_afa = to_afa(base)
        next_afa = to_afa_incremental(new, base, next_afa, delta.changed_states)
        if next_afa is not None:
            engine = next_afa._engine()
            witness = base_answer.witness
            if (
                base_answer.is_yes
                and witness is not None
                and _replay(engine, tuple(witness), accepting)
            ):
                mode = "replay"
                answer = Answer.yes(
                    witness=list(witness),
                    detail="delta replay: previous witness re-validated",
                )
            else:
                mode = "warm"
                answer, pops = _search(engine, accepting, budget)
    if answer is None:  # global delta, tripped answer, or no incremental AFA
        answer, next_afa = solve(procedure, new, kwargs, budget)

    elapsed = time.perf_counter() - t0
    metrics.counter("delta.recheck", mode=mode).inc()
    metrics.histogram("delta.recheck.latency_s", mode=mode).observe(elapsed)
    metrics.histogram("delta.edit.states").observe(len(delta.changed_states))
    result = RecheckResult(answer=answer, mode=mode, delta=delta, elapsed_s=elapsed, pops=pops)
    return result, next_afa
