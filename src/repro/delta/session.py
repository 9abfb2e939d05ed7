"""The interactive editing session: ``open → edit → recheck``.

A :class:`Session` owns one evolving instance for one procedure and
keeps what a re-check can reuse: the current version's sub-fingerprint
tree, its answer (a YES carries the witness a later edit replays), and
the live (incrementally rebuilt) AFA with its patched engine.  Decided
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

from typing import Any, Callable

from repro import metrics
from repro.core.sws import SWS
from repro.delta.diff import InstanceDelta, compute_delta
from repro.delta.engine import (
    DeltaError,
    RecheckResult,
    SUPPORTED_PROCEDURES,
    recheck,
)
from repro.serve.fingerprint import SubFingerprints, job_fingerprint, sub_fingerprints

__all__ = ["Session"]


def _resolve_procedure(procedure: str) -> Callable[..., Any]:
    from repro.serve.registry import PROCEDURES

    try:
        return PROCEDURES[procedure]
    except KeyError:
        raise DeltaError(f"unknown procedure {procedure!r}") from None


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
        self.procedure_fn = _resolve_procedure(procedure)
        self.kwargs = kwargs
        self.cache = cache
        self.budget = budget
        self.current = sws
        self.tree = sub_fingerprints(sws)
        self.fingerprint = job_fingerprint(procedure, (self.tree,), kwargs)
        self.answer: Any = None
        self.afa = None
        # The staged version with its tree and its delta from ``current``.
        self.pending: tuple[SWS, SubFingerprints, InstanceDelta] | None = None
        self.rechecks = 0
        self.modes: dict[str, int] = {}
        metrics.counter("delta.sessions.opened").inc()

    # -- lifecycle ---------------------------------------------------------------

    def check(self, budget: Any = None) -> Any:
        """The current version's answer, solving if needed.

        Tries, in order: the session's own answer, the answer cache,
        then a fresh solve.
        """
        if self.answer is not None:
            return self.answer
        self.answer = self._cache_get()
        if self.answer is None:
            self.answer = self.procedure_fn(
                self.current,
                guard=budget if budget is not None else self.budget,
                **self.kwargs,
            )
            self._publish()
        return self.answer

    def edit(self, new: SWS) -> InstanceDelta:
        """Stage ``new`` as the next version; returns its delta.

        Staging is idempotent — a second ``edit`` before ``recheck``
        replaces the pending version.  The delta is staged with it:
        ``recheck`` re-checks against exactly this delta, so each edit
        is diffed once.
        """
        tree = sub_fingerprints(new)
        delta = compute_delta(self.current, new, self.tree, tree)
        self.pending = (new, tree, delta)
        return delta

    def recheck(self, budget: Any = None) -> RecheckResult:
        """Re-check the staged (or current) version incrementally."""
        if self.answer is None:
            self.check(budget)
        new, new_tree, delta = self.pending or (
            self.current,
            self.tree,
            compute_delta(self.current, self.current, self.tree, self.tree),
        )
        result, self.afa = recheck(
            self.procedure_fn,
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
            "states": len(self.current.states),
        }
