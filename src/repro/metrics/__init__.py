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
* :func:`configure` / ``REPRO_METRICS=metrics.jsonl`` — enable
  recording and append one cumulative JSONL snapshot per second (plus a
  final one at exit), mirroring ``REPRO_TRACE``.
* **Cross-process merging** — pool workers record into their own
  registry, spool cumulative snapshots, and the parent folds them in
  delta-wise (:meth:`Registry.merge_snapshot`), so parent-side
  histograms include worker samples and nothing double-counts.

Quickstart::

    from repro import metrics
    metrics.configure(path="metrics.jsonl", mode="w")

    from repro.serve import JobSpec, SolverService
    from repro.workloads.scaling import pl_counter_sws

    with SolverService(workers=2) as service:
        service.run_batch(
            [JobSpec("nonempty_pl", (pl_counter_sws(n),)) for n in (6, 7, 8)]
        )
    lat = metrics.histogram("serve.job.latency_s", procedure="nonempty_pl")
    print(lat.readout())   # {'count': 3, 'p50': ..., 'p99': ..., ...}

Watch a running batch with ``python -m repro.serve top metrics.jsonl``;
read a snapshot file with :func:`last_snapshot`.  See
``docs/OBSERVABILITY.md`` for the instrument catalog and snapshot
schema.
"""

from repro.metrics._core import (
    BUCKETS,
    Counter,
    Gauge,
    Histogram,
    METRICS_ENV_VAR,
    METRICS_SCHEMA_VERSION,
    NOOP_INSTRUMENT,
    REGISTRY,
    Registry,
    bench_context,
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
    reset_after_fork,
    snapshot,
    maybe_write_snapshot,
    write_snapshot,
)

__all__ = [
    "BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "METRICS_ENV_VAR",
    "METRICS_SCHEMA_VERSION",
    "NOOP_INSTRUMENT",
    "REGISTRY",
    "Registry",
    "bench_context",
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
    "reset_after_fork",
    "snapshot",
    "maybe_write_snapshot",
    "write_snapshot",
]
