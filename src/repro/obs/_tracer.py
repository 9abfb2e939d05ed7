"""The hierarchical span tracer behind :mod:`repro.obs`.

Design constraints, in order:

1. **Zero overhead when disabled.**  Every decision procedure in the
   library calls :func:`span` or runs under :func:`traced`; with tracing
   off those paths must cost one global flag check — the compiled AFA/PL
   hot path keeps its measured speedup.  :func:`span` returns a shared
   no-op context manager, and :func:`traced` wrappers fall straight
   through to the wrapped function.

2. **Correct counter attribution.**  ``repro._stats.STATS`` is a
   process-wide singleton; a span snapshots it on enter and diffs on exit
   (via :class:`repro._stats.StatsDelta`), so nested and back-to-back
   spans each see exactly the work done within their own extent — a
   child's counters are included in its parent's, and siblings never
   clobber one another.  Nothing is ever reset.

3. **One JSONL event per span**, emitted at span *exit* (children before
   parents; the tree is reconstructed from ``parent_id``).  The sink is a
   file path (``REPRO_TRACE=trace.jsonl`` or ``configure(path=...)``) or
   any writable stream (``configure(stream=...)``).  It is the one
   telemetry sink: :mod:`repro.obs.progress` events and
   :mod:`repro.metrics` snapshots are lines of the same stream.

This module is import-light on purpose: it depends only on the stdlib,
:mod:`repro._stats` and the stdlib-only :mod:`repro.metrics`, so the
lowest layers (``repro.logic.pl``, ``repro.automata.afa``,
``repro.logic.sat``) can trace without import cycles.  Provenance
attachment is duck-typed — any frozen-dataclass result with a
``provenance`` field (i.e. :class:`repro.analysis.verdict.Answer`)
gains one, without this module importing :mod:`repro.analysis`.
"""

from __future__ import annotations

import atexit
import dataclasses
import itertools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, IO, Iterator, Mapping

from repro import metrics
from repro._stats import STATS

TRACE_ENV_VAR = "REPRO_TRACE"

#: Trace format version, stamped into every event.
TRACE_SCHEMA_VERSION = 1

#: Hot-path flag.  Read directly (``_tracer.ENABLED``) by the traced
#: wrappers; mutate only through :func:`configure`.
ENABLED = False

_stream: IO[str] | None = None
_stream_owned = False
_emit_lock = threading.Lock()
_span_ids = itertools.count(1)
_local = threading.local()


@dataclass(frozen=True)
class Provenance:
    """Where an :class:`~repro.analysis.verdict.Answer` came from.

    Attached to answers returned by :func:`traced` procedures while
    tracing is enabled: the span that produced the answer, its wall-clock
    extent, and the ``STATS`` counter deltas scoped to that span — so a
    benchmark or test can assert on the *work* a verdict cost, not just
    the verdict.
    """

    span_id: int
    name: str
    elapsed_s: float
    counters: Mapping[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "elapsed_s": self.elapsed_s,
            "counters": dict(self.counters),
        }


def _stack() -> list["Span"]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class Span:
    """One timed, counter-scoped, attributed unit of work.

    Use through :func:`span`; supports ``set(key=value, ...)`` to add
    attributes mid-flight.  On exit the span emits its JSONL event even
    when the body raised (``status: "error"`` with the exception repr) —
    partial work is still visible in the trace.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "attrs",
        "status",
        "error",
        "elapsed_s",
        "counters",
        "_t_wall",
        "_t0",
        "_before",
    )

    def __init__(self, name: str, attrs: dict[str, Any]) -> None:
        self.name = name
        self.span_id = next(_span_ids)
        self.attrs = attrs
        self.parent_id: int | None = None
        self.depth = 0
        self.status = "ok"
        self.error: str | None = None
        self.elapsed_s = 0.0
        self.counters: dict[str, int] = {}

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = _stack()
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.depth = parent.depth + 1
        stack.append(self)
        self._t_wall = time.time()
        self._before = STATS.snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.elapsed_s = time.perf_counter() - self._t0
        after = STATS.snapshot()
        self.counters = {
            k: after[k] - v for k, v in self._before.items() if after[k] != v
        }
        if exc is not None:
            trip = getattr(exc, "trip", None)
            if getattr(trip, "limit", None) is not None:
                # A guard trip is a bounded procedure saying UNKNOWN, not a
                # failure: record the verdict and the tripped limit instead
                # of a bare error event (duck-typed to avoid importing
                # repro.guard from this import-light module).
                self.attrs.setdefault("verdict", "unknown")
                self.attrs["tripped"] = trip.limit
            else:
                self.status = "error"
                self.error = f"{type(exc).__name__}: {exc}"
        stack = _stack()
        # Unwind to this span even if an inner span leaked (defensive; a
        # leaked child would otherwise misparent every later sibling).
        while stack and stack[-1] is not self:
            stack.pop()
        if stack:
            stack.pop()
        _emit(self._event())

    def provenance(self) -> Provenance:
        """The span's summary as a :class:`Provenance` (exit-time use)."""
        return Provenance(
            span_id=self.span_id,
            name=self.name,
            elapsed_s=self.elapsed_s,
            counters=dict(self.counters),
        )

    def _event(self) -> dict[str, Any]:
        event: dict[str, Any] = {
            "event": "span",
            "v": TRACE_SCHEMA_VERSION,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "t_wall": round(self._t_wall, 6),
            "elapsed_s": round(self.elapsed_s, 9),
            "status": self.status,
        }
        if self.error is not None:
            event["error"] = self.error
        if self.attrs:
            event["attrs"] = self.attrs
        if self.counters:
            event["counters"] = self.counters
        return event


class _NoopSpan:
    """The shared do-nothing span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs: Any) -> Span | _NoopSpan:
    """Open a span named ``name`` with initial attributes.

    With tracing disabled this returns a shared no-op object — the whole
    call costs one flag check and an empty ``with`` — so instrumented hot
    paths stay hot.
    """
    if not ENABLED:
        return NOOP_SPAN
    return Span(name, attrs)


def current_span() -> Span | None:
    """The innermost open span on this thread, or ``None``."""
    stack = _stack()
    return stack[-1] if stack else None


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return ENABLED


def configure(
    path: str | None = None,
    stream: IO[str] | None = None,
    enabled: bool | None = None,
    mode: str = "a",
) -> None:
    """(Re)configure the telemetry sink.

    * ``configure(path="trace.jsonl")`` — enable, append JSONL events to
      the file (``mode="w"`` truncates first).
    * ``configure(stream=buf)`` — enable, write to any ``.write()``-able.
    * ``configure(enabled=False)`` — disable and close an owned file;
      while metrics are recording, one last metrics snapshot is written
      into the sink first.
    * ``configure(enabled=True)`` — re-enable the previous sink (or the
      ``REPRO_TRACE`` path if none was ever set).

    Spans, :mod:`repro.obs.progress` events and
    :func:`repro.metrics.write_snapshot` snapshots all go to this sink,
    and progress is tracked exactly while it is set.  Metrics recording
    has its own switch, :func:`repro.metrics.configure`, which this
    function never flips.

    The ``REPRO_TRACE`` environment variable is the zero-code entry
    point: importing :mod:`repro.obs` with it set is equivalent to
    ``configure(path=os.environ["REPRO_TRACE"])`` plus
    ``metrics.configure(enabled=True)``, and the file ends with a
    snapshot written at interpreter exit.
    """
    global ENABLED, _stream, _stream_owned
    if path is not None and stream is not None:
        raise ValueError("configure() takes a path or a stream, not both")
    if enabled is False and ENABLED:
        metrics.write_snapshot()
    with _emit_lock:
        if path is not None:
            _close_owned()
            _stream = open(path, mode, encoding="utf-8")
            _stream_owned = True
            ENABLED = True
        elif stream is not None:
            _close_owned()
            _stream = stream
            _stream_owned = False
            ENABLED = True
        if enabled is not None:
            if enabled and _stream is None:
                env_path = os.environ.get(TRACE_ENV_VAR)
                if env_path:
                    _stream = open(env_path, mode, encoding="utf-8")
                    _stream_owned = True
                else:
                    raise ValueError(
                        "configure(enabled=True) needs a sink: pass path= or "
                        f"stream=, or set {TRACE_ENV_VAR}"
                    )
            ENABLED = bool(enabled)
            if not ENABLED:
                _close_owned()
    # Progress is tracked exactly while the sink is set (imported here:
    # the progress module imports this one).
    from repro.obs import progress

    progress._track(ENABLED)


def _close_owned() -> None:
    global _stream, _stream_owned
    if _stream is not None and _stream_owned:
        try:
            _stream.close()
        except OSError:  # pragma: no cover - best-effort close
            pass
    _stream = None
    _stream_owned = False


def _emit(event: dict[str, Any]) -> None:
    stream = _stream
    if stream is None:
        return
    line = json.dumps(event, sort_keys=True, default=repr)
    with _emit_lock:
        stream.write(line + "\n")
        flush = getattr(stream, "flush", None)
        if flush is not None:
            try:
                flush()
            except OSError:  # pragma: no cover - sink went away
                pass


# -- the traced decorator -----------------------------------------------------


def _subject_attrs(args: tuple) -> dict[str, Any]:
    """Best-effort subject naming: collect ``.name`` of named arguments.

    Services, mediators, queries and RPQs all carry a ``name``; recording
    them makes a trace line self-describing ("nonempty_pl on counter4")
    without per-call-site instrumentation.
    """
    names = [
        a.name
        for a in args
        if isinstance(getattr(a, "name", None), str) and a.name
    ]
    if not names:
        return {}
    if len(names) == 1:
        return {"subject": names[0]}
    return {"subjects": names}


def _note_result(sp: Span, result: Any) -> None:
    """Record a compact result summary as span attributes."""
    verdict = getattr(result, "verdict", None)
    if hasattr(verdict, "value"):
        sp.set(verdict=verdict.value)
        if getattr(result, "trip", None) is not None:
            sp.set(tripped=result.trip.limit)
    elif result is None or isinstance(result, (bool, int, float, str)):
        sp.set(result=result)


def _attach_provenance(result: Any, sp: Span) -> Any:
    """Duck-typed provenance attachment for Answer-like frozen dataclasses."""
    if (
        dataclasses.is_dataclass(result)
        and not isinstance(result, type)
        and hasattr(result, "provenance")
        and getattr(result, "verdict", None) is not None
    ):
        return dataclasses.replace(result, provenance=sp.provenance())
    return result


def traced(
    name: str | None = None,
    kind: str | None = None,
    provenance: bool = True,
) -> Callable:
    """Decorator: run the function under a root-or-nested span.

    With tracing disabled the wrapper is a single flag check followed by
    the original call.  With it enabled, the span records wall-clock,
    scoped counter deltas, subject names and a result summary; when the
    function returns an :class:`~repro.analysis.verdict.Answer` (any
    frozen dataclass with ``verdict`` and ``provenance`` fields) and
    ``provenance=True``, the returned answer carries a
    :class:`Provenance` for the span.
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name if name is not None else fn.__name__
        static: dict[str, Any] = {"kind": kind} if kind else {}

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not ENABLED:
                return fn(*args, **kwargs)
            attrs = dict(static)
            attrs.update(_subject_attrs(args))
            with Span(span_name, attrs) as sp:
                result = fn(*args, **kwargs)
                _note_result(sp, result)
            if provenance:
                return _attach_provenance(result, sp)
            return result

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__module__ = fn.__module__
        wrapper.__wrapped__ = fn
        wrapper.__dict__.update(fn.__dict__)
        return wrapper

    return decorate


def reemit(event: Mapping[str, Any], **extra_attrs: Any) -> None:
    """Re-emit an already-formed span event into the current sink.

    Used by the serving layer to merge traces produced in worker
    processes into the parent's trace: each worker writes its own JSONL
    file (separate processes cannot share one sink), and the parent
    replays the events here after the batch completes.  ``extra_attrs``
    are merged into the event's ``attrs`` (e.g. ``worker=<pid>``), so
    merged events remain distinguishable from locally produced ones.
    No-op while tracing is disabled.
    """
    if not ENABLED:
        return
    event = dict(event)
    if extra_attrs:
        attrs = dict(event.get("attrs") or {})
        attrs.update(extra_attrs)
        event["attrs"] = attrs
    _emit(event)


def emit_event(event: Mapping[str, Any]) -> None:
    """Emit a raw (non-span) event into the current sink.

    The structured side channel for :mod:`repro.obs.progress` and
    friends: the event rides the same JSONL stream as span events, under
    the same lock, so ``progress``/``heartbeat`` records interleave with
    spans in wall-clock order.  No-op while tracing is disabled —
    callers can skip building the event dict entirely by checking
    :data:`ENABLED` first.
    """
    if not ENABLED:
        return
    _emit(dict(event))


def iter_events(
    path: str,
    strict: bool = True,
    on_skip: Callable[[str], None] | None = None,
) -> Iterator[dict[str, Any]]:
    """Parse a JSONL trace file, skipping blank lines.

    ``strict=True`` (the default) raises :class:`ValueError` on the
    first malformed line.  ``strict=False`` skips malformed lines —
    reporting each through ``on_skip`` — which is what the CLI consumers
    want for traces truncated mid-line by killed pool workers.  A file
    that yields *no* valid events but had malformed lines still raises,
    so a garbage input is an error rather than a silently empty report.
    """
    good = 0
    bad = 0
    first_bad: str | None = None
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as error:
                message = f"{path}:{line_number}: malformed trace line: {error}"
                if strict:
                    raise ValueError(message) from error
                bad += 1
                if first_bad is None:
                    first_bad = message
                if on_skip is not None:
                    on_skip(message)
                continue
            good += 1
            yield event
    if bad and not good:
        raise ValueError(
            f"{path}: no valid trace events "
            f"({bad} malformed line(s); first: {first_bad})"
        )


# Zero-code activation: REPRO_TRACE=trace.jsonl sets the sink and turns
# metrics recording on at import; the file ends with a final snapshot.
_env_path = os.environ.get(TRACE_ENV_VAR)
if _env_path:
    configure(path=_env_path, mode="a")
    metrics.configure(enabled=True)
    atexit.register(metrics.write_snapshot)
