"""The interactive editing session: ``open → edit → recheck``.

A :class:`Session` owns one evolving instance for one procedure and
keeps what a re-check can reuse: the current version's sub-fingerprint
tree, its answer (a YES carries the witness a later edit replays), and
the live AFA with its compiled engine (kept from the last full solve,
then rebuilt incrementally and row-patched edit by edit).  Decided
answers flow into the serve-tier answer cache under the same job
fingerprints the scheduler uses, so an edited spec that later arrives
through ``serve run`` hits the cache, and a session reopened in a *new
process* on a store-backed cache finds its answer, witness included,
there: the first edit then replays or re-searches incrementally.

Obtain one directly, or from a running service via
:meth:`repro.serve.scheduler.SolverService.session` (which wires the
service's cache in).
"""

from __future__ import annotations

from typing import Any

from repro import metrics
from repro.core.sws import SWS, SWSKind
from repro.delta.diff import InstanceDelta, compute_delta, derive_delta
from repro.delta.engine import (
    DeltaError,
    RecheckResult,
    SUPPORTED_PROCEDURES,
    recheck,
    solve,
)
from repro.serve.fingerprint import SubFingerprints, job_fingerprint, sub_fingerprints

__all__ = ["Session"]


def _walk(sws: SWS) -> SubFingerprints:
    """The tree of a version the session cannot derive from the previous one.

    Also counts the version's input variables (of a PL service), so that
    the edited copies made from it derive theirs without a pass.
    """
    if sws.kind is SWSKind.PL:
        sws._variable_counts()
    return sub_fingerprints(sws)


class Session:
    """One editable instance, checked incrementally across versions."""

    def __init__(
        self,
        sws: SWS,
        procedure: str = "nonempty_pl",
        *,
        cache: Any = None,
        budget: Any = None,
        **kwargs: Any,
    ) -> None:
        if procedure not in SUPPORTED_PROCEDURES:
            raise DeltaError(
                f"procedure {procedure!r} has no incremental re-check "
                f"(supported: {', '.join(sorted(SUPPORTED_PROCEDURES))})"
            )
        self.procedure = procedure
        self.kwargs = kwargs
        self.cache = cache
        self.budget = budget
        self.current = sws
        self.tree = _walk(sws)
        self.fingerprint = job_fingerprint(procedure, (self.tree,), kwargs)
        self.answer: Any = None
        self.afa = None
        # The staged version with its tree and its delta from ``current``.
        self.pending: tuple[SWS, SubFingerprints, InstanceDelta] | None = None
        self.rechecks = 0
        self.modes: dict[str, int] = {}
        # Edits whose delta was derived from the current version's, and
        # edits that had to be hashed and diffed in full.
        self.edits = {"derived": 0, "diffed": 0}
        metrics.counter("delta.sessions.opened").inc()

    # -- lifecycle ---------------------------------------------------------------

    def check(self, budget: Any = None) -> Any:
        """The current version's answer, solving if needed.

        Tries, in order: the session's own answer, the answer cache,
        then a fresh solve, whose automaton the session keeps.
        """
        if self.answer is not None:
            return self.answer
        self.answer = self._cache_get()
        if self.answer is None:
            self.answer, self.afa = solve(
                self.procedure,
                self.current,
                self.kwargs,
                budget if budget is not None else self.budget,
            )
            self._publish()
        return self.answer

    def edit(self, new: SWS) -> InstanceDelta:
        """Stage ``new`` as the next version; returns its delta.

        A version :meth:`repro.core.sws.SWS.replace` made from the
        current one gets its tree, input variables and delta derived from
        the current one's, in time proportional to the edit; any other
        version is hashed and diffed in full.  Staging is idempotent — a
        second ``edit`` before ``recheck`` replaces the pending version.
        The delta is staged with it: ``recheck`` re-checks against
        exactly this delta.
        """
        derived = derive_delta(self.current, self.tree, new)
        if derived is None:
            tree = _walk(new)
            derived = tree, compute_delta(self.current, new, self.tree, tree)
            self.edits["diffed"] += 1
        else:
            self.edits["derived"] += 1
        tree, delta = derived
        self.pending = (new, tree, delta)
        return delta

    def recheck(self, budget: Any = None) -> RecheckResult:
        """Re-check the staged (or current) version incrementally."""
        if self.answer is None:
            self.check(budget)
        new, new_tree, delta = self.pending or (
            self.current,
            self.tree,
            InstanceDelta(self.tree.root, self.tree.root),
        )
        result, self.afa = recheck(
            self.procedure,
            self.current,
            self.answer,
            self.afa,
            new,
            delta,
            self.kwargs,
            budget if budget is not None else self.budget,
        )
        self.current = new
        self.tree = new_tree
        self.answer = result.answer
        self.fingerprint = job_fingerprint(self.procedure, (new_tree,), self.kwargs)
        self.pending = None
        self.rechecks += 1
        self.modes[result.mode] = self.modes.get(result.mode, 0) + 1
        self._publish()
        return result

    # -- persistence -------------------------------------------------------------

    def _publish(self) -> None:
        if self.cache is not None and not self.answer.is_unknown:
            try:
                self.cache.put(self.fingerprint, self.answer, self.procedure)
            except Exception:  # noqa: BLE001 - cache degradation is non-fatal
                pass

    def _cache_get(self) -> Any | None:
        if self.cache is None:
            return None
        try:
            return self.cache.get(self.fingerprint, self.procedure)
        except Exception:  # noqa: BLE001
            return None

    # -- reporting ---------------------------------------------------------------

    def stats(self) -> dict:
        """JSON-friendly session counters for CLIs and tests."""
        warm_modes = sum(
            count for mode, count in self.modes.items() if mode != "full"
        )
        return {
            "procedure": self.procedure,
            "fingerprint": self.fingerprint,
            "rechecks": self.rechecks,
            "modes": dict(sorted(self.modes.items())),
            "incremental_rechecks": warm_modes,
            "edits": dict(self.edits),
            "states": len(self.current.states),
        }
