"""Incremental re-check of an edited instance against its snapshot.

Five re-check modes, cheapest first; each is *sound* — soundness never
depends on the edit being small, only the cost does:

* ``cached`` — the delta is empty (identical or rename-only version):
  the stored decided answer is returned as-is.
* ``resume`` — empty delta but the stored answer is a budget-tripped
  UNKNOWN: the BFS continues from the snapshot's captured
  ``(parents, frontier)`` instead of restarting at ``V_ε``.
* ``replay`` — local edit, and the previous witness still drives the
  edited automaton to the expected verdict; re-validated in
  O(|witness| · |classes|) pre-steps, so the old answer is *proved*
  still correct rather than assumed.
* ``warm`` — local edit: the AFA is rebuilt only for the edited states
  (:func:`repro.core.pl_semantics.to_afa_incremental`), the compiled
  engine is row-patched (:func:`repro.automata.afa.patch_engine` —
  clean states' row bits reuse the previous closures, the symbol
  quotient refines instead of recomputing), and the BFS runs afresh
  over the patched rows.  The frontier is *not* reused here: reached
  vectors are a whole-instance property (global support), and a local
  edit invalidates them — reusing them would be unsound precisely in
  the YES→NO flip case.
* ``full`` — global edit (states added/removed, alphabet grew, start
  moved): everything is invalidated and the registry procedure runs
  from scratch, capturing a fresh snapshot.

The warm/resume searches checkpoint through the ordinary guard site
``delta.recheck``, so budgets, fault injection, and progress telemetry
apply to incremental re-checks exactly as to full solves.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import metrics
from repro.analysis.verdict import Answer
from repro.automata.afa import (
    AFA,
    _CompiledAFA,
    _reconstruct_classes,
    generic_search,
    patch_engine,
)
from repro.core.pl_semantics import pair_states, to_afa, to_afa_incremental
from repro.core.sws import SWS
from repro.delta.diff import InstanceDelta, compute_delta
from repro.delta.snapshot import SearchState
from repro.errors import ReproError
from repro.guard import (
    GuardTrip,
    capture_search_state,
    checkpoint_callable,
    ensure_guard,
    register_span,
)
from repro.serve.fingerprint import (
    SubFingerprints,
    job_fingerprint,
    sub_fingerprints,
)

__all__ = ["DeltaError", "RecheckResult", "SUPPORTED_PROCEDURES", "recheck"]

register_span(
    "delta.recheck",
    "repro.delta.engine",
    "warm/resumed BFS over patched transition rows",
)

#: Maximum vectors persisted in a snapshot; beyond this the parents map
#: is dropped (the answer/witness still snapshot — only resume degrades
#: to a fresh search).
MAX_SNAPSHOT_VECTORS = 50_000


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


#: Procedures the engine can re-check incrementally.  Both reduce to one
#: AFA witness search; ``accepting`` is the polarity of the search.
SUPPORTED_PROCEDURES = frozenset({"nonempty_pl", "validate_pl"})


@dataclass
class RecheckResult:
    """One re-check's outcome plus where its work went."""

    answer: Answer
    mode: str
    delta: InstanceDelta
    elapsed_s: float
    pops: int = 0
    rows_patched: int = 0
    rows_reused: int = 0
    surviving: frozenset[str] = field(default_factory=frozenset)

    def as_dict(self) -> dict:
        return {
            "verdict": self.answer.verdict.value,
            "mode": self.mode,
            "elapsed_s": self.elapsed_s,
            "pops": self.pops,
            "rows_patched": self.rows_patched,
            "rows_reused": self.rows_reused,
            "surviving": sorted(self.surviving),
            "delta": self.delta.as_dict(),
        }


class _Capture:
    """Holds the live (queue, parents) refs the guard sink hands out."""

    def __init__(self) -> None:
        self.queue: Any = None
        self.parents: Any = None

    def __call__(self, site: str, n: int, queue: Any, visited: Any) -> None:
        if queue is not None:
            self.queue = queue
        if visited is not None:
            self.parents = visited


def _snapshot_from_capture(
    procedure: str,
    fingerprint: str,
    tree: SubFingerprints,
    answer: Answer,
    capture: _Capture,
    order: tuple[str, ...],
) -> SearchState:
    """Build a snapshot from a solve's answer + captured search refs.

    The compiled searchers mutate one ``parents``/``queue`` pair in
    place, so the entry-checkpoint references hold the final state —
    complete on a decided answer, the surviving frontier on a trip.
    Only int-mask searches snapshot (the AST fallback's frozenset
    vectors are cross-validation surface, not serving state).
    """
    parents = capture.parents if isinstance(capture.parents, dict) else None
    if parents is not None and (
        len(parents) > MAX_SNAPSHOT_VECTORS
        or any(not isinstance(k, int) for k in parents)
    ):
        parents = None
    frontier: tuple[int, ...] = ()
    if parents is not None and answer.is_unknown:
        # The generated searchers checkpoint *between* pop and expansion,
        # so the in-flight vector's expansions are lost on a trip and the
        # captured queue alone under-covers the frontier.  Re-expanding
        # every reached vector is sound (all are already tested members
        # of `parents`; only genuinely new successors get explored) and
        # still skips the re-discovery work a cold restart would pay.
        frontier = tuple(parents)
    witness = None
    if answer.witness is not None:
        witness = tuple(answer.witness)
    return SearchState(
        procedure=procedure,
        fingerprint=fingerprint,
        root=tree.root,
        state_digests=dict(tree.states),
        answer=answer,
        witness=witness,
        parents=parents,
        frontier=frontier,
        order=order,
        pops=len(parents) if parents is not None else 0,
    )


def solve_fresh(
    procedure_fn: Callable[..., Answer],
    procedure: str,
    sws: SWS,
    kwargs: dict,
    budget: Any = None,
    tree: SubFingerprints | None = None,
) -> tuple[SearchState, Answer]:
    """Run the registry procedure from scratch, capturing a snapshot.

    The capture rides the *existing* guard checkpoints: installing a
    sink upgrades the search's no-op checkpoint into one that shares its
    live queue/parents references, with no change to the procedure.
    """
    if tree is None:
        tree = sub_fingerprints(sws)
    fp = job_fingerprint(procedure, (tree,), kwargs)
    capture = _Capture()
    with capture_search_state(capture):
        answer = procedure_fn(sws, guard=budget, **kwargs)
    order = tuple(sorted(pair for s in sws.states for pair in pair_states(s)))
    state = _snapshot_from_capture(procedure, fp, tree, answer, capture, order)
    return state, answer


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


def _search(
    engine: _CompiledAFA,
    accepting: bool,
    budget: Any,
    seed: tuple[dict, tuple] | None = None,
) -> tuple[Answer, dict | None, tuple[int, ...], int]:
    """One guarded generic BFS; returns (answer, parents, frontier, pops).

    Always runs seeded so the live parents/queue survive a guard trip:
    a fresh search's seed ``({start: None}, (start,))`` is exactly the
    generated searchers' initial state.  On a trip the partial parents
    and surviving frontier come back with the UNKNOWN answer, ready for
    a later *resume*.
    """
    ckpt = checkpoint_callable("delta.recheck")
    start = engine.final_mask
    if seed is None:
        if engine.initial_fn(start) == accepting:
            answer = Answer.yes(witness=[], detail="delta search")
            return answer, {start: None}, (), 0
        seed = ({start: None}, (start,))
    parents = dict(seed[0])
    pending: deque = deque(seed[1])
    rows = list(enumerate(engine.rows[rep] for rep in engine.reps))
    guard = ensure_guard(budget) if budget is not None else None
    try:
        if guard is not None:
            with guard.activate():
                parents, hit, pops = generic_search(
                    rows, start, accepting, engine.initial_fn, ckpt,
                    (parents, pending),
                )
        else:
            parents, hit, pops = generic_search(
                rows, start, accepting, engine.initial_fn, ckpt,
                (parents, pending),
            )
    except GuardTrip as error:
        answer = Answer.unknown(detail=error.trip.describe(), trip=error.trip)
        return answer, parents, tuple(pending), 0
    if hit is not None:
        witness = _reconstruct_classes(parents, hit, engine.reps)
        answer = Answer.yes(witness=list(witness), detail="delta search")
    else:
        answer = Answer.no(detail="vector space exhausted (delta search)")
    return answer, parents, (), pops


def recheck(
    procedure_fn: Callable[..., Answer],
    procedure: str,
    base: SWS,
    base_state: SearchState,
    base_tree: SubFingerprints,
    base_afa: AFA | None,
    new: SWS,
    kwargs: dict,
    budget: Any = None,
    new_tree: SubFingerprints | None = None,
) -> tuple[RecheckResult, SearchState, SubFingerprints, AFA | None]:
    """Re-check ``new`` against the snapshot of ``base``.

    Returns the result plus the *successor* snapshot, tree, and live AFA
    for the session to adopt.  ``base_afa`` may be ``None`` (cold
    session restored from the store); the warm path then rebuilds it
    once and later edits go incremental.
    """
    t0 = time.perf_counter()
    if new_tree is None:
        new_tree = sub_fingerprints(new)
    delta = compute_delta(base, new, base_tree, new_tree)
    surviving = base_state.surviving_components(delta)
    fp = job_fingerprint(procedure, (new_tree,), kwargs)
    accepting = _accepting_for(procedure, kwargs)

    mode: str
    answer: Answer
    pops = 0
    rows_patched = 0
    rows_reused = 0
    next_state = base_state
    next_afa = base_afa

    stored = base_state.answer
    parents = base_state.parents
    if delta.is_empty and stored is not None and not stored.is_unknown:
        mode = "cached"
        answer = stored
    elif delta.is_empty and parents and base_state.frontier:
        mode = "resume"
        if next_afa is None:
            next_afa = to_afa(new)
        engine = next_afa._engine()
        answer, new_parents, new_frontier, pops = _search(
            engine, accepting, budget, seed=(parents, base_state.frontier)
        )
        next_state = _rebuild_state(
            procedure, fp, new_tree, answer, new_parents, new_frontier,
            base_state.order,
        )
    elif delta.is_local:
        if next_afa is None:
            next_afa = to_afa(base)
        base_engine = next_afa._engine()
        incremental = to_afa_incremental(
            new, base, next_afa, delta.changed_states
        )
        if incremental is None:
            mode = "full"
            next_state, answer = solve_fresh(
                procedure_fn, procedure, new, kwargs, budget, new_tree
            )
            next_afa = None
        else:
            next_afa = incremental
            dirty_pairs = {
                pair
                for state in delta.changed_states
                for pair in pair_states(state)
            }
            engine = None
            if "rows" in surviving:
                engine = patch_engine(base_engine, incremental, dirty_pairs)
            if engine is None:
                engine = incremental._engine()
            else:
                incremental._engine_cache = engine
                rows_patched = len(engine.reps)
                rows_reused = len(engine.order) - len(dirty_pairs)
            witness = base_state.witness
            replayed = (
                _replay(engine, witness, accepting)
                if witness is not None and stored is not None and stored.is_yes
                else None
            )
            if replayed:
                mode = "replay"
                answer = Answer.yes(
                    witness=list(witness),
                    detail="delta replay: previous witness re-validated",
                )
                next_state = _rebuild_state(
                    procedure, fp, new_tree, answer, None, (), base_state.order
                )
            else:
                mode = "warm"
                answer, new_parents, new_frontier, pops = _search(
                    engine, accepting, budget
                )
                next_state = _rebuild_state(
                    procedure, fp, new_tree, answer, new_parents, new_frontier,
                    base_state.order,
                )
    else:
        mode = "full"
        next_state, answer = solve_fresh(
            procedure_fn, procedure, new, kwargs, budget, new_tree
        )
        next_afa = None

    elapsed = time.perf_counter() - t0
    metrics.counter("delta.recheck", mode=mode).inc()
    metrics.histogram("delta.recheck.latency_s", mode=mode).observe(elapsed)
    metrics.histogram("delta.edit.states").observe(len(delta.changed_states))
    if rows_reused:
        metrics.counter("delta.rows.reused").inc(rows_reused)
    result = RecheckResult(
        answer=answer,
        mode=mode,
        delta=delta,
        elapsed_s=elapsed,
        pops=pops,
        rows_patched=rows_patched,
        rows_reused=rows_reused,
        surviving=surviving,
    )
    return result, next_state, new_tree, next_afa


def _rebuild_state(
    procedure: str,
    fingerprint: str,
    tree: SubFingerprints,
    answer: Answer,
    parents: dict | None,
    frontier: tuple[int, ...],
    order: tuple[str, ...],
) -> SearchState:
    if parents is not None and len(parents) > MAX_SNAPSHOT_VECTORS:
        parents = None
        frontier = ()
    return SearchState(
        procedure=procedure,
        fingerprint=fingerprint,
        root=tree.root,
        state_digests=dict(tree.states),
        answer=answer,
        witness=tuple(answer.witness) if answer.witness is not None else None,
        parents=parents,
        frontier=frontier,
        order=order,
        pops=len(parents) if parents is not None else 0,
    )
