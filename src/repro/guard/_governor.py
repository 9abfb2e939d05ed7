"""The resource governor behind :mod:`repro.guard`.

Theorem 4.1 and Table 2 leave several analysis/composition cells
undecidable, so every bounded procedure in the library must be able to
stop — on a step budget, a wall-clock deadline, a memory ceiling, or an
external cancellation — and degrade to a sound ``Verdict.UNKNOWN``
instead of hanging or crashing.  This module provides the machinery:

* :class:`Budget` — one declarative limit configuration shared by every
  procedure; ``guard=`` is the only way a resource limit reaches one.
* :class:`Guard` — a running governor enforcing a :class:`Budget` plus a
  :class:`CancelToken` through a cooperative :meth:`Guard.checkpoint`.
  Wall-clock and RSS checks are counter-sampled (every
  ``SAMPLE_EVERY`` fine-grained calls) so per-iteration cost stays at a
  few attribute reads; the compiled AFA/PL hot path additionally batches
  checkpoints every :data:`HOT_LOOP_MASK` + 1 BFS pops, preserving its
  measured speedup.
* :func:`checkpoint` / :func:`checkpoint_callable` — the call sites.
  With no active guard and no fault injection installed they are a
  no-op (one global read), mirroring the ``repro.obs`` disabled path.
* :func:`Guard.activate` — ambient (thread-local) activation, so one
  guard covers an entire call tree without threading a parameter
  through every helper.
* :func:`guarded` — the procedure-boundary decorator: converts a
  :class:`GuardTrip` escaping the procedure into an UNKNOWN
  :class:`~repro.analysis.verdict.Answer` carrying the partial-progress
  :class:`Trip`.

This module is import-light on purpose (stdlib + :mod:`repro.errors`),
so the lowest layers (``automata``, ``logic.sat``) can checkpoint
without import cycles; :class:`~repro.analysis.verdict.Answer` is
imported lazily at trip-conversion time only.
"""

from __future__ import annotations

import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from typing import Any, Callable, Iterator, Mapping

from repro import metrics
from repro.errors import BudgetExceededError

try:  # pragma: no cover - resource is always present on POSIX
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX fallback
    _resource = None

#: Fine-grained checkpoint calls between wall-clock/RSS samples.
SAMPLE_EVERY = 64

#: The compiled BFS loops call back once per ``HOT_LOOP_MASK + 1`` pops.
HOT_LOOP_MASK = 255

#: Names a trip's ``limit`` field can take.
LIMITS = ("steps", "deadline", "memory", "cancelled")


def _rss_mb() -> float | None:
    """Resident-set high-water mark in MB, or ``None`` when unavailable.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; being a
    high-water mark, a tripped memory ceiling stays tripped for the
    process lifetime — exactly the conservative reading a ceiling wants.
    """
    if _resource is None:
        return None
    peak = _resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        peak /= 1024.0
    return peak / 1024.0


@dataclass(frozen=True)
class Budget:
    """Declarative resource limits; ``None`` means unlimited.

    * ``deadline_s`` — wall-clock seconds from guard start;
    * ``step_budget`` — cooperative checkpoint steps (BFS pops, SAT
      decisions, candidate trials — whatever the guarded loop counts);
    * ``memory_ceiling_mb`` — RSS high-water mark in megabytes.
    """

    deadline_s: float | None = None
    step_budget: int | None = None
    memory_ceiling_mb: float | None = None

    @property
    def unlimited(self) -> bool:
        """Whether no limit is set (checkpoints only serve cancellation)."""
        return (
            self.deadline_s is None
            and self.step_budget is None
            and self.memory_ceiling_mb is None
        )

    def limit_value(self, limit: str) -> float | int | None:
        """The configured value of the named limit (``None`` if unset)."""
        return {
            "steps": self.step_budget,
            "deadline": self.deadline_s,
            "memory": self.memory_ceiling_mb,
        }.get(limit)

    def as_dict(self) -> dict[str, float | int]:
        """The set limits as a plain dict (for JSONL job files and
        worker-process payloads); unset limits are omitted."""
        out: dict[str, float | int] = {}
        if self.deadline_s is not None:
            out["deadline_s"] = self.deadline_s
        if self.step_budget is not None:
            out["step_budget"] = self.step_budget
        if self.memory_ceiling_mb is not None:
            out["memory_ceiling_mb"] = self.memory_ceiling_mb
        return out

    @classmethod
    def from_dict(cls, spec: "Mapping[str, Any] | None") -> "Budget":
        """Rebuild a :class:`Budget` from :meth:`as_dict` output."""
        spec = dict(spec or {})
        unknown = set(spec) - {"deadline_s", "step_budget", "memory_ceiling_mb"}
        if unknown:
            raise ValueError(f"unknown budget fields {sorted(unknown)}")
        return cls(**spec)


class CancelToken:
    """A thread-safe cooperative cancellation flag.

    Hand the same token to a :class:`Guard` (or several) and call
    :meth:`cancel` from any thread; every guarded search trips at its
    next checkpoint.
    """

    __slots__ = ("_event",)

    def __init__(self) -> None:
        self._event = threading.Event()

    def cancel(self) -> None:
        """Request cancellation (idempotent)."""
        self._event.set()

    def cancelled(self) -> bool:
        """Whether cancellation has been requested."""
        return self._event.is_set()

    def __repr__(self) -> str:
        return f"CancelToken(cancelled={self.cancelled()})"


@dataclass(frozen=True)
class Trip:
    """Partial-progress record of one resource exhaustion.

    ``limit`` names what tripped (one of :data:`LIMITS`); ``site`` is
    the checkpoint's span name (shared with :mod:`repro.obs`);
    ``steps``/``elapsed_s``/``frontier`` describe how far the search got
    (``frontier`` is the BFS queue length at the tripping checkpoint,
    when the loop reports one); ``budget_value`` is the tripped limit's
    configured value; ``injected`` marks trips forced by
    :mod:`repro.guard.inject` rather than a real exhaustion.
    """

    limit: str
    site: str
    steps: int
    elapsed_s: float
    frontier: int | None = None
    budget_value: float | int | None = None
    injected: bool = False

    def describe(self) -> str:
        """A one-line human-readable account of the exhaustion."""
        if self.limit == "cancelled":
            what = "cancelled"
        elif self.limit == "deadline":
            what = f"exceeded deadline of {self.budget_value}s"
        elif self.limit == "memory":
            what = f"exceeded memory ceiling of {self.budget_value} MB"
        else:
            what = f"exhausted step budget of {self.budget_value}"
        parts = [f"{self.site}: {what} after {self.steps} steps"]
        parts.append(f"({self.elapsed_s:.3f}s elapsed")
        if self.frontier is not None:
            parts.append(f", frontier {self.frontier}")
        parts.append(")")
        if self.injected:
            parts.append(" [injected]")
        return parts[0] + " " + "".join(parts[1:])


class GuardTrip(BudgetExceededError):
    """A guard checkpoint tripped a limit.

    Subclasses :class:`~repro.errors.BudgetExceededError` with the
    ``budget`` attribute populated (the tripped limit's configured
    value) and the limit name in the message, so the raising variants of
    guarded procedures satisfy the documented contract.  ``trip``
    carries the full :class:`Trip`.
    """

    def __init__(self, trip: Trip) -> None:
        budget = trip.budget_value
        super().__init__(
            trip.describe(),
            budget=int(budget) if isinstance(budget, (int, float)) else None,
            limit=trip.limit,
        )
        self.trip = trip


class Guard:
    """A running resource governor.

    ``Guard(deadline_s=..., step_budget=..., memory_ceiling_mb=...,
    cancel_token=...)`` — or ``Guard(budget=Budget(...))``.  Use either
    explicitly (``nonempty_pl(sws, guard=g)``) or ambiently::

        guard = Guard(deadline_s=2.0)
        with guard.activate():
            answer = nonempty_pl(sws)   # every inner loop checkpoints

    The guard is single-use per procedure family but reusable across
    sequential calls: steps accumulate and the deadline runs from the
    first checkpoint (or :meth:`activate`), which is what a whole-batch
    budget wants.  After a trip the guard stays tripped.
    """

    __slots__ = (
        "budget",
        "cancel_token",
        "_steps",
        "_calls",
        "_t0",
        "_tripped",
    )

    def __init__(
        self,
        deadline_s: float | None = None,
        step_budget: int | None = None,
        memory_ceiling_mb: float | None = None,
        cancel_token: CancelToken | None = None,
        budget: Budget | None = None,
    ) -> None:
        if budget is None:
            budget = Budget(
                deadline_s=deadline_s,
                step_budget=step_budget,
                memory_ceiling_mb=memory_ceiling_mb,
            )
        elif (
            deadline_s is not None
            or step_budget is not None
            or memory_ceiling_mb is not None
        ):
            raise ValueError("pass individual limits or budget=, not both")
        self.budget = budget
        self.cancel_token = cancel_token
        self._steps = 0
        self._calls = 0
        self._t0: float | None = None
        self._tripped: Trip | None = None

    # -- introspection -----------------------------------------------------------

    @property
    def steps(self) -> int:
        """Cooperative steps counted so far."""
        return self._steps

    @property
    def tripped(self) -> Trip | None:
        """The first trip, or ``None`` while within limits."""
        return self._tripped

    def elapsed_s(self) -> float:
        """Seconds since the guard started (0.0 before the first checkpoint)."""
        if self._t0 is None:
            return 0.0
        return time.monotonic() - self._t0

    def start(self) -> "Guard":
        """Start the deadline clock (idempotent; checkpoints auto-start)."""
        if self._t0 is None:
            self._t0 = time.monotonic()
        return self

    # -- the checkpoint ----------------------------------------------------------

    def checkpoint(
        self, site: str, n: int = 1, frontier: int | None = None
    ) -> None:
        """Account ``n`` steps of work at ``site``; raise on exhaustion.

        Cancellation and the step budget are checked on every call; the
        sampled checks (wall clock, RSS) run every :data:`SAMPLE_EVERY`
        fine-grained calls, or on every *batched* call (``n > 1`` — the
        compiled hot loops already space those hundreds of pops apart).
        """
        if self._t0 is None:
            self._t0 = time.monotonic()
        self._steps += n
        token = self.cancel_token
        if token is not None and token.cancelled():
            self._trip("cancelled", site, frontier)
        budget = self.budget
        if budget.step_budget is not None and self._steps > budget.step_budget:
            self._trip("steps", site, frontier)
        self._calls += 1
        if n == 1 and self._calls % SAMPLE_EVERY:
            return
        if (
            budget.deadline_s is not None
            and time.monotonic() - self._t0 > budget.deadline_s
        ):
            self._trip("deadline", site, frontier)
        if budget.memory_ceiling_mb is not None:
            rss = _rss_mb()
            if rss is not None and rss > budget.memory_ceiling_mb:
                self._trip("memory", site, frontier)

    def _trip(self, limit: str, site: str, frontier: int | None) -> None:
        trip = Trip(
            limit=limit,
            site=site,
            steps=self._steps,
            elapsed_s=self.elapsed_s(),
            frontier=frontier,
            budget_value=self.budget.limit_value(limit),
        )
        if self._tripped is None:
            self._tripped = trip
        metrics.counter("guard.trips", limit=limit).inc()
        raise GuardTrip(trip)

    # -- ambient activation ------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Guard"]:
        """Make this guard ambient for the current thread.

        Nested activations stack; :func:`checkpoint` consults every
        guard on the stack (outermost first), so an outer batch deadline
        still fires while an inner per-call budget is active.
        """
        self.start()
        stack = _stack()
        stack.append(self)
        try:
            yield self
        finally:
            stack.pop()

    def __repr__(self) -> str:
        return (
            f"Guard(budget={self.budget}, steps={self._steps}, "
            f"tripped={self._tripped and self._tripped.limit})"
        )


def ensure_guard(spec: "Guard | Budget | int | None") -> Guard:
    """Coerce a limit spec into a :class:`Guard`.

    Accepts a ready guard, a :class:`Budget`, a bare ``int`` (a step
    budget), or ``None`` (unlimited).
    """
    if isinstance(spec, Guard):
        return spec
    if isinstance(spec, Budget):
        return Guard(budget=spec)
    if spec is None:
        return Guard()
    if isinstance(spec, int) and not isinstance(spec, bool):
        return Guard(step_budget=spec)
    raise TypeError(f"cannot build a Guard from {spec!r}")


# -- thread-local guard stack and the module-level checkpoint ---------------------

_local = threading.local()

#: Installed by :mod:`repro.guard.inject`; ``None`` means no injection.
_INJECT_HOOK: Callable[[str], None] | None = None

#: Installed by :mod:`repro.obs.progress` while the :mod:`repro.obs`
#: sink is set; ``None`` (the default) keeps the checkpoint's disabled
#: path at one extra global read.
_PROGRESS: Any | None = None


def _stack() -> list[Guard]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def current_guard() -> Guard | None:
    """The innermost ambient guard on this thread, or ``None``."""
    stack = getattr(_local, "stack", None)
    return stack[-1] if stack else None


def checkpoint(
    site: str,
    n: int = 1,
    frontier: int | None = None,
    visited: int | None = None,
    depth: int | None = None,
) -> None:
    """Cooperative checkpoint: consult fault injection and ambient guards.

    The no-guard, no-injection, no-progress path is three global reads —
    cheap enough for per-iteration use in the interpreted loops.  Hot
    compiled loops should use :func:`checkpoint_callable` and batch
    instead.  ``visited``/``depth`` are progress-telemetry enrichments
    (seen-set size, search depth) that loops report where one exists;
    guards ignore them.

    A trip raised here — by a real guard or injected — is first noted to
    the progress tracker, so a tripped solve's last ``progress`` event
    always matches the :class:`Trip` partial-progress detail.
    """
    progress = _PROGRESS
    hook = _INJECT_HOOK
    try:
        if hook is not None:
            hook(site)
        stack = getattr(_local, "stack", None)
        if stack:
            for guard in stack:
                guard.checkpoint(site, n, frontier)
    except GuardTrip as error:
        if progress is not None:
            progress.note_trip(error.trip)
        raise
    if progress is not None:
        progress.note(site, n, frontier, visited, depth)


def _noop_checkpoint(
    n: int = 0, queue: Any = None, visited: Any = None, depth: int | None = None
) -> None:
    return None


def checkpoint_callable(site: str) -> Callable[..., None]:
    """A per-search checkpoint closure for the compiled BFS hot loops.

    The generated searchers call ``ckpt(n, queue)`` — optionally
    ``ckpt(n, queue, seen)`` — with the cumulative pop count every
    ``HOT_LOOP_MASK + 1`` pops (and once on entry, so tiny searches
    still hit at least one checkpoint).  When no guard is ambient, no
    fault is injected, and progress telemetry is off this returns a
    shared no-op — fetched once per search, so the loop body's only
    overhead is the masked counter test.
    """
    if (
        _INJECT_HOOK is None
        and _PROGRESS is None
        and not getattr(_local, "stack", None)
    ):
        return _noop_checkpoint
    last = 0

    def ckpt(
        n: int,
        queue: Any = None,
        visited: Any = None,
        depth: int | None = None,
    ) -> None:
        nonlocal last
        delta = n - last
        last = n
        checkpoint(
            site,
            delta,
            None if queue is None else len(queue),
            None if visited is None else len(visited),
            depth,
        )

    return ckpt


# -- the procedure boundary -------------------------------------------------------


def guarded() -> Callable[[Callable], Callable]:
    """Decorator marking a procedure as a guard *boundary*.

    The wrapped procedure gains a keyword-only ``guard=`` parameter
    (a :class:`Guard`, a :class:`Budget`, or an ``int`` step budget)
    activated for the call's extent; a :class:`GuardTrip` escaping the
    body — from an explicit guard, an ambient one, or fault injection —
    becomes ``Answer.unknown`` carrying the trip's partial progress, so
    every guarded procedure returns an
    :class:`~repro.analysis.verdict.Answer`.

    Stack *under* :func:`repro.obs.traced` so the span records the
    converted ``verdict=unknown`` result.
    """

    def decorate(fn: Callable) -> Callable:
        @wraps(fn)
        def wrapper(*args: Any, guard: Any = None, **kwargs: Any) -> Any:
            try:
                if guard is None:
                    return fn(*args, **kwargs)
                with ensure_guard(guard).activate():
                    return fn(*args, **kwargs)
            except GuardTrip as error:
                from repro.analysis.verdict import Answer

                return Answer.unknown(
                    detail=error.trip.describe(), trip=error.trip
                )

        return wrapper

    return decorate


# -- the checkpoint-site registry -------------------------------------------------


@dataclass(frozen=True)
class GuardedSpan:
    """One registered checkpoint site.

    ``site`` doubles as the :mod:`repro.obs` span name the fault
    injector keys on; ``where`` names the loop; ``covers`` cites the
    paper result whose procedure the loop realizes; ``raising_only``
    marks sites whose direct public callers raise :class:`GuardTrip`
    (a :class:`~repro.errors.BudgetExceededError`) rather than
    converting to UNKNOWN — they still convert when reached through a
    :func:`guarded` procedure.
    """

    site: str
    where: str
    covers: str
    raising_only: bool = False


GUARDED_SPANS: dict[str, GuardedSpan] = {}


def register_span(
    site: str, where: str, covers: str, raising_only: bool = False
) -> None:
    """Register a checkpoint site (called at import by guarded modules)."""
    GUARDED_SPANS[site] = GuardedSpan(site, where, covers, raising_only)


def iter_guarded_spans() -> list[GuardedSpan]:
    """All registered checkpoint sites, sorted by name."""
    return [GUARDED_SPANS[name] for name in sorted(GUARDED_SPANS)]
