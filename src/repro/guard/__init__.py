"""repro.guard — unified resource governor and fault-injection harness.

Public surface:

* :class:`Budget`, :class:`Guard`, :class:`CancelToken` — declare limits
  and enforce them through cooperative checkpoints in every search loop.
* :class:`Trip`, :class:`GuardTrip` — partial-progress record of an
  exhaustion, and the (internally caught) exception that carries it.
* :func:`checkpoint`, :func:`checkpoint_callable`, :func:`current_guard`,
  :func:`ensure_guard`, :func:`guarded` — instrumentation hooks for
  procedure authors.
* :data:`GUARDED_SPANS` / :func:`iter_guarded_spans` — registry of every
  checkpoint site (span names shared with :mod:`repro.obs`).
* :mod:`repro.guard.inject` — deterministic fault injection by span name.

See ``docs/ROBUSTNESS.md`` for the checkpoint placement map and usage.
"""

from repro.guard._governor import (
    GUARDED_SPANS,
    LIMITS,
    Budget,
    CancelToken,
    Guard,
    GuardedSpan,
    GuardTrip,
    Trip,
    checkpoint,
    checkpoint_callable,
    current_guard,
    ensure_guard,
    guarded,
    iter_guarded_spans,
    register_span,
)

__all__ = [
    "Budget",
    "CancelToken",
    "Guard",
    "GuardTrip",
    "GuardedSpan",
    "GUARDED_SPANS",
    "LIMITS",
    "Trip",
    "checkpoint",
    "checkpoint_callable",
    "current_guard",
    "ensure_guard",
    "guarded",
    "iter_guarded_spans",
    "register_span",
]
