"""repro.metrics — counters, gauges, and latency histograms.

The decision procedures' complexity bounds guarantee heavy-tailed solve
times, so the serving layer is judged on *percentiles*, not averages.
This package is the measurement layer the scaling roadmap items are
tuned against:

* :func:`counter` / :func:`gauge` / :func:`histogram` — thread-safe
  instruments out of a process-wide registry.  Counters only go up;
  gauges sample instantaneous state (queue depth, in-flight jobs); the
  histogram is a fixed log-bucket streaming sketch with p50/p90/p99/max
  readouts.  With metrics **off** (the default) every accessor returns a
  shared no-op instrument after one flag check — the instrumented serve
  and guard paths cost nothing measurable, exactly like ``repro.obs``
  spans.
* :func:`configure` — the one switch: instrument recording on or off.
  :func:`write_snapshot` appends one cumulative JSONL snapshot to the
  :mod:`repro.obs` sink, beside spans and progress events;
  ``REPRO_TRACE=trace.jsonl`` sets that sink, turns recording on and
  writes a final snapshot at exit.
* **Cross-process merging** — pool workers record into their own
  registry, spool cumulative snapshots, and the parent folds them in
  delta-wise (:meth:`Registry.merge_snapshot`), so parent-side
  histograms include worker samples and nothing double-counts.

Quickstart::

    from repro import metrics, obs
    obs.configure(path="trace.jsonl", mode="w")
    metrics.configure(enabled=True)

    from repro.serve import JobSpec, SolverService
    from repro.workloads.scaling import pl_counter_sws

    with SolverService(workers=2) as service:
        service.run_batch(
            [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (6, 7, 8)]
        )
    lat = metrics.histogram("serve.job.latency_s", procedure="nonempty_pl")
    print(lat.readout())   # {'count': 3, 'p50': ..., 'p99': ..., ...}
    obs.configure(enabled=False)   # writes the final snapshot

Watch a running batch with ``python -m repro.serve top trace.jsonl``;
read a trace's newest snapshot with :func:`last_snapshot`.  See
``docs/OBSERVABILITY.md`` for the instrument catalog and snapshot
schema.
"""

from repro.metrics._core import (
    BUCKETS,
    Counter,
    Gauge,
    Histogram,
    METRICS_SCHEMA_VERSION,
    NOOP_INSTRUMENT,
    REGISTRY,
    Registry,
    bucket_bounds,
    bucket_index,
    cache_hit_rate,
    configure,
    counter,
    counter_total,
    decode_key,
    encode_key,
    gauge,
    histogram,
    histogram_readout,
    is_enabled,
    last_snapshot,
    observe,
    snapshot,
    maybe_write_snapshot,
    write_snapshot,
)

__all__ = [
    "BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "NOOP_INSTRUMENT",
    "REGISTRY",
    "Registry",
    "bucket_bounds",
    "bucket_index",
    "cache_hit_rate",
    "configure",
    "counter",
    "counter_total",
    "decode_key",
    "encode_key",
    "gauge",
    "histogram",
    "histogram_readout",
    "is_enabled",
    "last_snapshot",
    "observe",
    "snapshot",
    "maybe_write_snapshot",
    "write_snapshot",
]
