"""repro.obs — structured tracing and answer provenance.

The paper's results are complexity *bounds*; what makes the reproduction
inspectable is seeing the work each decision procedure does — vectors
explored, SAT decisions, rewriting candidates — not just its verdict.
This package provides the observability layer the whole decision stack is
instrumented with:

* :func:`span` — hierarchical spans recording wall-clock, arbitrary
  attributes, and ``STATS`` counter *deltas* scoped to the span via
  snapshot-diff (nested spans compose; nothing is reset).  One JSONL
  event per span is emitted to the configured sink.
* :func:`traced` — the decorator every top-level procedure runs under;
  it opens a span and attaches a :class:`Provenance` (span id, elapsed
  seconds, counter deltas) to returned
  :class:`~repro.analysis.verdict.Answer` objects.
* :func:`configure` / ``REPRO_TRACE=trace.jsonl`` — sink selection.
  With no sink configured, tracing is **off** and every instrumented
  path degrades to a single flag check (the compiled AFA/PL hot path
  keeps its speedup).
* ``python -m repro.obs report trace.jsonl`` — aggregates a trace into a
  per-procedure table: call counts, total/max time, dominant counters,
  and the slowest span with its attributes.

Quickstart::

    from repro import obs
    obs.configure(path="trace.jsonl", mode="w")

    from repro.analysis import nonempty_pl
    from repro.workloads.scaling import pl_counter_sws

    answer = nonempty_pl(pl_counter_sws(4))
    print(answer.provenance.elapsed_s, answer.provenance.counters)

See ``docs/OBSERVABILITY.md`` for the trace schema and the span-name →
paper-theorem map.
"""

from repro._stats import STATS, Stats, StatsDelta, stats_delta
from repro.obs._tracer import (
    NOOP_SPAN,
    Provenance,
    Span,
    TRACE_ENV_VAR,
    TRACE_SCHEMA_VERSION,
    configure,
    current_span,
    emit_event,
    is_enabled,
    iter_events,
    reemit,
    span,
    traced,
)

# Imported for its side effect too: REPRO_PROGRESS environment
# activation happens here, mirroring REPRO_TRACE above.  It is
# import-light and costs nothing while disabled.
from repro.obs import progress  # noqa: E402  (after _tracer)

__all__ = [
    "NOOP_SPAN",
    "Provenance",
    "Span",
    "STATS",
    "Stats",
    "StatsDelta",
    "TRACE_ENV_VAR",
    "TRACE_SCHEMA_VERSION",
    "configure",
    "current_span",
    "emit_event",
    "is_enabled",
    "iter_events",
    "progress",
    "reemit",
    "span",
    "stats_delta",
    "traced",
]
