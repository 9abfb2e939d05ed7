"""Search-progress telemetry piggybacked on the guard checkpoints.

A PL/AFA solve that runs for minutes is a black box between its span's
start and end; this module turns the guard's existing checkpoint sites
into a live telemetry source.  When enabled, every
:func:`repro.guard.checkpoint` call feeds a per-site tracker, and the
tracker periodically (default every :data:`DEFAULT_INTERVAL_S` seconds,
per site) emits one ``progress`` event into the :mod:`repro.obs` trace
stream and refreshes ``progress.*`` gauges in :mod:`repro.metrics`::

    {"event": "progress", "site": "afa.search_witness", "steps": 123456,
     "frontier": 1873, "peak_frontier": 2048, "visited": 130021,
     "depth": 7, "steps_per_s": 815000.0, "elapsed_s": 0.151,
     "headroom": {"steps": 0.12, "deadline": 0.58}, "t_wall": ...}

``steps`` is the cumulative checkpoint step count (BFS pops, SAT
decisions — whatever the loop counts), so it is monotone per site;
``frontier`` is the queue length the loop reported, ``visited`` the size
of its seen-set, ``depth`` the caller's search depth (session length,
iteration bound) where one exists.  ``headroom`` is the fraction of each
configured budget limit still unspent, read from the innermost ambient
:class:`repro.guard.Guard`.

Cost discipline matches :mod:`repro.metrics`: with progress disabled
(the default) the guard checkpoint pays **one global read** of
``_governor._PROGRESS is None`` and nothing else; no event dicts, no
clock reads.  Enable with ``configure(enabled=True)`` or the
``REPRO_PROGRESS`` environment variable (``1``/``true`` for the default
interval, a float for a custom one in seconds).

When a guard trips, the tracker emits one final ``progress`` event built
*from the* :class:`repro.guard.Trip` *itself* (same site, steps,
frontier, limit), so the last progress line of a tripped solve is always
consistent with the answer's partial-progress detail — including trips
forced by :mod:`repro.guard.inject`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any

from repro import metrics
from repro.guard import _governor
from repro.obs import _tracer

PROGRESS_ENV_VAR = "REPRO_PROGRESS"

#: Progress event format version.
PROGRESS_SCHEMA_VERSION = 1

#: Seconds between emitted events per checkpoint site.
DEFAULT_INTERVAL_S = 0.25

__all__ = [
    "DEFAULT_INTERVAL_S",
    "PROGRESS_ENV_VAR",
    "PROGRESS_SCHEMA_VERSION",
    "ProgressTracker",
    "bench_context",
    "configure",
    "is_enabled",
    "reset",
    "summary",
]


class _SiteState:
    """Mutable per-(thread, site) accumulator; registered for summaries."""

    __slots__ = (
        "site",
        "steps",
        "frontier",
        "peak_frontier",
        "visited",
        "depth",
        "peak_depth",
        "t0",
        "last_emit_t",
        "last_emit_steps",
        "events",
        "tripped",
    )

    def __init__(self, site: str, now: float) -> None:
        self.site = site
        self.steps = 0
        self.frontier: int | None = None
        self.peak_frontier = 0
        self.visited: int | None = None
        self.depth: int | None = None
        self.peak_depth = 0
        self.t0 = now
        self.last_emit_t = now
        self.last_emit_steps = 0
        self.events = 0
        self.tripped: str | None = None


def _headroom(guard: "_governor.Guard | None") -> dict[str, float] | None:
    """Unspent fraction of each configured limit of the ambient guard."""
    if guard is None:
        return None
    budget = guard.budget
    out: dict[str, float] = {}
    if budget.step_budget:
        out["steps"] = max(0.0, 1.0 - guard.steps / budget.step_budget)
    if budget.deadline_s:
        out["deadline"] = max(0.0, 1.0 - guard.elapsed_s() / budget.deadline_s)
    if budget.memory_ceiling_mb:
        rss = _governor._rss_mb()
        if rss is not None:
            out["memory"] = max(0.0, 1.0 - rss / budget.memory_ceiling_mb)
    return out or None


class ProgressTracker:
    """The object installed as ``_governor._PROGRESS`` while enabled.

    Checkpoint updates touch thread-local site states (no lock on the
    hot path); a module-level registry of every state — appended under
    a lock once per (thread, site) — backs :func:`summary`.
    """

    def __init__(self, interval_s: float = DEFAULT_INTERVAL_S) -> None:
        self.interval_s = interval_s
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_SiteState] = []

    # -- the checkpoint feed (hot while enabled) -------------------------------

    def note(
        self,
        site: str,
        n: int,
        frontier: int | None,
        visited: int | None,
        depth: int | None,
    ) -> None:
        states = getattr(self._local, "states", None)
        if states is None:
            states = self._local.states = {}
        state = states.get(site)
        now = time.monotonic()
        if state is None:
            state = states[site] = _SiteState(site, now)
            with self._lock:
                self._states.append(state)
        state.steps += n
        if frontier is not None:
            state.frontier = frontier
            if frontier > state.peak_frontier:
                state.peak_frontier = frontier
        if visited is not None:
            state.visited = visited
        if depth is not None:
            state.depth = depth
            if depth > state.peak_depth:
                state.peak_depth = depth
        if now - state.last_emit_t >= self.interval_s:
            self._emit(state, now)

    def note_trip(self, trip: Any) -> None:
        """Emit the final, trip-consistent progress event for a site."""
        event = {
            "event": "progress",
            "v": PROGRESS_SCHEMA_VERSION,
            "site": trip.site,
            "steps": trip.steps,
            "elapsed_s": round(trip.elapsed_s, 6),
            "tripped": trip.limit,
            "t_wall": round(time.time(), 6),
        }
        if trip.frontier is not None:
            event["frontier"] = trip.frontier
        if getattr(trip, "injected", False):
            event["injected"] = True
        _tracer.emit_event(event)
        states = getattr(self._local, "states", None)
        if states is None:
            states = self._local.states = {}
        state = states.get(trip.site)
        if state is None:
            # A trip can fire at the very first checkpoint of a site
            # (e.g. an injected fault with at=1) before note() ever ran.
            state = states[trip.site] = _SiteState(trip.site, time.monotonic())
            with self._lock:
                self._states.append(state)
        state.tripped = trip.limit
        state.events += 1
        # Keep the summary consistent with the trip detail too.
        state.steps = trip.steps
        if trip.frontier is not None:
            state.frontier = trip.frontier
            if trip.frontier > state.peak_frontier:
                state.peak_frontier = trip.frontier

    def _emit(self, state: _SiteState, now: float) -> None:
        elapsed = now - state.t0
        dt = now - state.last_emit_t
        rate = (state.steps - state.last_emit_steps) / dt if dt > 0 else 0.0
        state.last_emit_t = now
        state.last_emit_steps = state.steps
        state.events += 1
        if _tracer.ENABLED:
            event: dict[str, Any] = {
                "event": "progress",
                "v": PROGRESS_SCHEMA_VERSION,
                "site": state.site,
                "steps": state.steps,
                "elapsed_s": round(elapsed, 6),
                "steps_per_s": round(rate, 3),
                "t_wall": round(time.time(), 6),
            }
            if state.frontier is not None:
                event["frontier"] = state.frontier
                event["peak_frontier"] = state.peak_frontier
            if state.visited is not None:
                event["visited"] = state.visited
            if state.depth is not None:
                event["depth"] = state.depth
            headroom = _headroom(_governor.current_guard())
            if headroom is not None:
                event["headroom"] = headroom
            _tracer.emit_event(event)
        if metrics.is_enabled():
            metrics.gauge("progress.steps", site=state.site).set(state.steps)
            if state.frontier is not None:
                metrics.gauge("progress.frontier", site=state.site).set(
                    state.frontier
                )
            metrics.gauge("progress.steps_per_s", site=state.site).set(
                round(rate, 3)
            )
            # Long-running worker jobs surface mid-job: append a spool
            # snapshot (throttled) so the parent's merge loop and
            # `serve top` see live numbers before the job ends.
            metrics.maybe_write_snapshot()

    # -- introspection ---------------------------------------------------------

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per-site final numbers, folded across threads."""
        out: dict[str, dict[str, Any]] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            row = out.setdefault(
                state.site,
                {
                    "steps": 0,
                    "final_frontier": None,
                    "peak_frontier": 0,
                    "peak_depth": 0,
                    "events": 0,
                },
            )
            row["steps"] += state.steps
            if state.frontier is not None:
                row["final_frontier"] = state.frontier
            row["peak_frontier"] = max(row["peak_frontier"], state.peak_frontier)
            row["peak_depth"] = max(row["peak_depth"], state.peak_depth)
            row["events"] += state.events
            if state.tripped is not None:
                row["tripped"] = state.tripped
            if state.visited is not None:
                row["visited"] = state.visited
        return out


#: The active tracker (``None`` while disabled); mirror of
#: ``_governor._PROGRESS`` — mutate only through :func:`configure`.
_TRACKER: ProgressTracker | None = None


def is_enabled() -> bool:
    """Whether checkpoint progress telemetry is being collected."""
    return _TRACKER is not None


def configure(
    enabled: bool | None = None, interval_s: float | None = None
) -> None:
    """Enable/disable progress telemetry, optionally setting the interval.

    Enabling installs a fresh :class:`ProgressTracker` as the guard
    module's ``_PROGRESS`` hook; disabling uninstalls it, restoring the
    checkpoint's one-global-read disabled path.
    """
    global _TRACKER
    if interval_s is not None and interval_s <= 0:
        raise ValueError("interval_s must be positive")
    if enabled is None and interval_s is not None and _TRACKER is not None:
        _TRACKER.interval_s = interval_s
        return
    if enabled:
        _TRACKER = ProgressTracker(
            interval_s if interval_s is not None else DEFAULT_INTERVAL_S
        )
        _governor._PROGRESS = _TRACKER
    elif enabled is not None:
        _TRACKER = None
        _governor._PROGRESS = None


def reset() -> None:
    """Drop accumulated state (keeps enablement and interval).

    Called after a pool fork — the child inherits the parent's tracker
    but the parent owns those numbers — and by benchmarks between
    sections.
    """
    if _TRACKER is not None:
        configure(enabled=True, interval_s=_TRACKER.interval_s)


def summary() -> dict[str, dict[str, Any]]:
    """Per-site progress totals (empty when disabled)."""
    return _TRACKER.summary() if _TRACKER is not None else {}


def bench_context() -> dict[str, Any] | None:
    """The ``_meta.progress`` stamp for benchmark emitters.

    ``None`` while disabled (so plain regeneration runs leave the
    BENCH_*.json files byte-stable); otherwise the final frontier size,
    peak frontier/depth, step and event totals across all sites.
    """
    if _TRACKER is None:
        return None
    sites = summary()
    return {
        "steps": sum(row["steps"] for row in sites.values()),
        "events": sum(row["events"] for row in sites.values()),
        "final_frontier": max(
            (row["final_frontier"] or 0 for row in sites.values()), default=0
        ),
        "peak_frontier": max(
            (row["peak_frontier"] for row in sites.values()), default=0
        ),
        "peak_depth": max(
            (row["peak_depth"] for row in sites.values()), default=0
        ),
        "sites": sites,
    }


# Zero-code activation: REPRO_PROGRESS=1 (or an interval in seconds).
_env = os.environ.get(PROGRESS_ENV_VAR, "").strip().lower()
if _env and _env not in ("0", "false", "no", "off"):
    try:
        configure(enabled=True, interval_s=float(_env))
    except ValueError:
        configure(enabled=True)
