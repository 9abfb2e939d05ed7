"""Deterministic fault injection for the resource governor.

Chaos-testing substrate: force an exhaustion or cancellation at the
Nth checkpoint of a named span, no matter what limits (if any) are
actually configured.  Span names are shared with :mod:`repro.obs` and
the :data:`~repro.guard.GUARDED_SPANS` registry, so a fault plan can
target any guarded loop in the library::

    from repro.guard import inject

    with inject.injected("afa.search_witness", at=1, limit="deadline"):
        answer = nonempty_pl(sws)       # trips at the first BFS checkpoint
    assert answer.is_unknown

Injection is process-global (one installed plan at a time) and fully
deterministic: the plan fires at checkpoint number ``at`` of its span
and at every later checkpoint of that span, so a procedure that retries
the same search still trips.  Checkpoints of other spans pass through
to the real guards untouched.

Beyond in-process guard trips, :class:`ChaosSpec` describes
*process-level* faults for the serving layer's chaos/soak harness:

* **worker kill** — a selected pool job hard-kills its worker process
  (``os._exit``) at a guard checkpoint, i.e. genuinely mid-search, so
  the parent sees ``BrokenProcessPool`` and must recover;
* **exec stall** — a selected job sleeps before executing, emulating a
  wedged worker (deadline budgets then trip for real);
* **guard trip** — a selected job trips a chosen limit at a checkpoint
  regardless of its budget (exercises the retry/escalation path);
* **store faults** — a fraction of SQLite store operations fail their
  first attempt with a transient "database is locked" error (exercises
  the store's backoff-retry path).

Every decision is a pure hash of ``(seed, kind, key)``, so a chaos run
is reproducible and a *re-dispatched* job (new attempt number in the
key) draws a fresh decision instead of dying forever.  Install a spec
with :func:`install_chaos` (fork-pool workers inherit it) or export it
as the ``REPRO_CHAOS`` environment variable (JSON, crossing any process
boundary); :func:`active_chaos` is what the pool and store consult.
"""

from __future__ import annotations

import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.guard import _governor
from repro.guard._governor import LIMITS, GuardTrip, Trip


@dataclass
class FaultPlan:
    """Trip ``limit`` at the ``at``-th checkpoint of span ``span``.

    ``calls`` counts checkpoints observed for the span so far; ``fired``
    reports whether the fault has triggered at least once — test
    matrices assert it to prove the targeted checkpoint was actually
    reached.
    """

    span: str
    at: int = 1
    limit: str = "steps"
    calls: int = field(default=0, init=False)
    fired: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        if self.limit not in LIMITS:
            raise ValueError(f"limit must be one of {LIMITS}, got {self.limit!r}")
        if self.at < 1:
            raise ValueError("at must be >= 1 (checkpoints are 1-based)")

    def note(self, site: str) -> None:
        """The hook :func:`repro.guard._governor.checkpoint` calls."""
        if site != self.span:
            return
        self.calls += 1
        if self.calls < self.at:
            return
        self.fired = True
        raise GuardTrip(
            Trip(
                limit=self.limit,
                site=site,
                steps=self.calls,
                elapsed_s=0.0,
                budget_value=0 if self.limit != "cancelled" else None,
                injected=True,
            )
        )


def install(plan: FaultPlan) -> FaultPlan:
    """Install ``plan`` as the process-wide fault hook (replacing any)."""
    _governor._INJECT_HOOK = plan.note
    return plan


def remove() -> None:
    """Remove the installed fault plan, if any."""
    _governor._INJECT_HOOK = None


@contextmanager
def injected(span: str, at: int = 1, limit: str = "steps") -> Iterator[FaultPlan]:
    """Context manager installing a :class:`FaultPlan` for its extent."""
    plan = install(FaultPlan(span=span, at=at, limit=limit))
    try:
        yield plan
    finally:
        remove()


# -- process-level chaos ----------------------------------------------------------

#: Environment variable carrying a JSON :meth:`ChaosSpec.as_dict` so the
#: spec crosses process boundaries (CLI runs, spawn-context pools).
CHAOS_ENV_VAR = "REPRO_CHAOS"

#: Exit status of a chaos-killed worker (distinctive in core/CI logs).
KILL_EXIT_CODE = 86


@dataclass(frozen=True)
class ChaosSpec:
    """Deterministic process-level fault rates for the chaos harness.

    Rates are probabilities in ``[0, 1]`` evaluated by :meth:`decide` —
    a pure hash of ``(seed, kind, key)``, so the same spec over the same
    job keys always injects the same faults.  The serving layer keys
    kill/stall/trip decisions on ``"<job_key>:<attempt>"``: a job that
    drew a kill on its first dispatch draws independently after the pool
    respawns and re-dispatches it.
    """

    kill_rate: float = 0.0
    stall_rate: float = 0.0
    stall_s: float = 0.05
    trip_rate: float = 0.0
    trip_limit: str = "steps"
    store_error_rate: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("kill_rate", "stall_rate", "trip_rate", "store_error_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate!r}")
        if self.trip_limit not in LIMITS:
            raise ValueError(
                f"trip_limit must be one of {LIMITS}, got {self.trip_limit!r}"
            )

    def decide(self, kind: str, key: str) -> bool:
        """Whether the fault of ``kind`` fires for ``key`` (deterministic)."""
        rate = {
            "kill": self.kill_rate,
            "stall": self.stall_rate,
            "trip": self.trip_rate,
            "store": self.store_error_rate,
        }[kind]
        if rate <= 0.0:
            return False
        digest = hashlib.sha256(f"{self.seed}:{kind}:{key}".encode()).digest()
        draw = int.from_bytes(digest[:8], "big") / 2**64
        return draw < rate

    def as_dict(self) -> dict:
        """JSON-friendly form (what :data:`CHAOS_ENV_VAR` carries)."""
        return {
            "kill_rate": self.kill_rate,
            "stall_rate": self.stall_rate,
            "stall_s": self.stall_s,
            "trip_rate": self.trip_rate,
            "trip_limit": self.trip_limit,
            "store_error_rate": self.store_error_rate,
            "seed": self.seed,
        }

    def as_env(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, spec: dict) -> "ChaosSpec":
        unknown = set(spec) - set(cls().as_dict())
        if unknown:
            raise ValueError(f"unknown chaos fields {sorted(unknown)}")
        return cls(**spec)


#: The installed spec; ``None`` consults :data:`CHAOS_ENV_VAR` instead.
_CHAOS: ChaosSpec | None = None

#: Memoized env parse, keyed by the raw env value (env rarely changes
#: mid-process; a changed value re-parses).
_CHAOS_ENV_CACHE: tuple[str, ChaosSpec | None] | None = None

#: Monotone per-process store-operation counter for store-fault keys.
_STORE_OPS = 0


def install_chaos(spec: ChaosSpec) -> ChaosSpec:
    """Install ``spec`` process-wide (fork-pool workers inherit it)."""
    global _CHAOS
    _CHAOS = spec
    return spec


def remove_chaos() -> None:
    """Remove the installed spec (the env var, if set, still applies)."""
    global _CHAOS
    _CHAOS = None


def active_chaos() -> ChaosSpec | None:
    """The installed spec, else one parsed from ``REPRO_CHAOS``, else None.

    A malformed env value is treated as no chaos — the harness must
    never take a production process down with it.
    """
    if _CHAOS is not None:
        return _CHAOS
    global _CHAOS_ENV_CACHE
    raw = os.environ.get(CHAOS_ENV_VAR, "").strip()
    if not raw:
        return None
    if _CHAOS_ENV_CACHE is not None and _CHAOS_ENV_CACHE[0] == raw:
        return _CHAOS_ENV_CACHE[1]
    try:
        spec = ChaosSpec.from_dict(json.loads(raw))
    except (ValueError, TypeError):
        spec = None
    _CHAOS_ENV_CACHE = (raw, spec)
    return spec


@contextmanager
def chaos(spec: ChaosSpec) -> Iterator[ChaosSpec]:
    """Context manager installing a :class:`ChaosSpec` for its extent."""
    install_chaos(spec)
    try:
        yield spec
    finally:
        remove_chaos()


class _KillAtCheckpoint:
    """Checkpoint hook that hard-kills the process at the ``at``-th call.

    ``os._exit`` (not ``sys.exit``) so no ``finally`` blocks, atexit
    handlers, or executor bookkeeping run — exactly what an OOM kill or
    segfault looks like from the parent's side.
    """

    __slots__ = ("at", "calls")

    def __init__(self, at: int) -> None:
        self.at = max(1, at)
        self.calls = 0

    def __call__(self, site: str) -> None:
        self.calls += 1
        if self.calls >= self.at:
            os._exit(KILL_EXIT_CODE)


class _TripAtCheckpoint:
    """Checkpoint hook raising a :class:`GuardTrip` at the ``at``-th call."""

    __slots__ = ("at", "limit", "calls")

    def __init__(self, at: int, limit: str) -> None:
        self.at = max(1, at)
        self.limit = limit
        self.calls = 0

    def __call__(self, site: str) -> None:
        self.calls += 1
        if self.calls >= self.at:
            raise GuardTrip(
                Trip(
                    limit=self.limit,
                    site=site,
                    steps=self.calls,
                    elapsed_s=0.0,
                    budget_value=0 if self.limit != "cancelled" else None,
                    injected=True,
                )
            )


def apply_job_chaos(job_key: str, attempt: int = 0) -> float:
    """Arm per-job chaos inside a worker about to run ``job_key``.

    Consults :func:`active_chaos`; on a kill or trip decision installs
    the corresponding checkpoint hook (replacing any previous job's),
    otherwise clears the hook.  Returns the stall seconds the caller
    should sleep before executing (0.0 when the job drew no stall).
    Keys include ``attempt`` so a re-dispatched job re-draws.
    """
    spec = active_chaos()
    if spec is None:
        return 0.0
    key = f"{job_key}:{attempt}"
    digest = hashlib.sha256(f"{spec.seed}:at:{key}".encode()).digest()
    # Guards checkpoint in coarse batches (one call per few hundred
    # steps), so small jobs only ever reach a handful of checkpoints;
    # draw the arm point from 1..4 so a selected fault actually fires
    # across the whole size spectrum, not just on the biggest searches.
    at = 1 + int.from_bytes(digest[:2], "big") % 4
    if spec.decide("kill", key):
        _governor._INJECT_HOOK = _KillAtCheckpoint(at)
    elif spec.decide("trip", key):
        _governor._INJECT_HOOK = _TripAtCheckpoint(at, spec.trip_limit)
    else:
        _governor._INJECT_HOOK = None
    return spec.stall_s if spec.decide("stall", key) else 0.0


def clear_job_chaos() -> None:
    """Drop any checkpoint hook :func:`apply_job_chaos` installed."""
    _governor._INJECT_HOOK = None


def store_fault_due(attempt: int) -> bool:
    """Whether the next store operation should fail with a transient error.

    Only first attempts (``attempt == 0``) ever fire, so an injected
    store fault always recovers through the store's own backoff-retry —
    the harness probes the retry path, it never makes the store lose
    data.  Each call draws on a fresh per-process operation counter.
    """
    spec = active_chaos()
    if spec is None or spec.store_error_rate <= 0.0 or attempt != 0:
        return False
    global _STORE_OPS
    _STORE_OPS += 1
    return spec.decide("store", f"op-{_STORE_OPS}")
