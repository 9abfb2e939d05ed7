"""``python -m repro.serve top`` — live terminal view of a running batch.

Reads the JSONL snapshot file a metrics-enabled process exports
(``REPRO_METRICS=metrics.jsonl``, or ``--metrics`` on ``serve run``) and
refreshes a one-screen dashboard: throughput and completion totals,
queue depth / in-flight / worker utilization, cache hit rate, guard
trips, and a per-procedure latency table (count, p50, p90, p99, max) —
the percentiles, not averages, that heavy-tailed solve times demand.

Rendering is a pure function of (current snapshot, previous snapshot),
so it is testable without a terminal; the loop re-reads the newest
whole snapshot (:func:`repro.metrics.last_snapshot`) each interval.
``--once`` renders a single frame and exits (what CI smokes).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Mapping, Sequence

from repro import metrics
from repro.obs.explain import format_seconds


def _fmt_count(value: float) -> str:
    return str(int(value)) if value == int(value) else f"{value:.2f}"


def _counter_rate(
    snap: Mapping[str, Any], prev: Mapping[str, Any] | None, name: str
) -> float | None:
    """Per-second rate of a counter between two snapshots."""
    if prev is None:
        return None
    dt = snap.get("t_wall", 0.0) - prev.get("t_wall", 0.0)
    if dt <= 0:
        return None
    delta = metrics.counter_total(
        snap.get("counters") or {}, name
    ) - metrics.counter_total(prev.get("counters") or {}, name)
    return delta / dt


def render(
    snap: Mapping[str, Any], prev: Mapping[str, Any] | None = None
) -> str:
    """One dashboard frame for ``snap`` (rates need ``prev`` too)."""
    counters = snap.get("counters") or {}
    gauges = snap.get("gauges") or {}
    histograms = snap.get("histograms") or {}
    lines: list[str] = []
    age = time.time() - snap.get("t_wall", time.time())
    lines.append(
        f"repro.serve top — pid {snap.get('pid', '?')}  seq {snap.get('seq', '?')}"
        f"  snapshot age {age:.1f}s"
    )
    lines.append("")

    completed = metrics.counter_total(counters, "serve.jobs.completed")
    executed = metrics.counter_total(counters, "serve.jobs.executed")
    deduped = metrics.counter_total(counters, "serve.jobs.deduped")
    rate = _counter_rate(snap, prev, "serve.jobs.completed")
    rate_text = f"{rate:.1f}/s" if rate is not None else "-"
    lines.append(
        f"jobs        completed {_fmt_count(completed)}  "
        f"executed {_fmt_count(executed)}  deduped {_fmt_count(deduped)}  "
        f"throughput {rate_text}"
    )

    queue_depth = gauges.get("serve.queue.depth", 0.0)
    inflight = gauges.get("serve.inflight", 0.0)
    workers = gauges.get("serve.pool.workers", 0.0)
    busy = sum(
        value
        for key, value in gauges.items()
        if metrics.decode_key(key)[0] == "serve.worker.busy"
    )
    utilization = f"{busy / workers:.0%}" if workers else "-"
    lines.append(
        f"load        queue {_fmt_count(queue_depth)}  "
        f"in-flight {_fmt_count(inflight)}  "
        f"workers busy {_fmt_count(busy)}/{_fmt_count(workers)}  "
        f"utilization {utilization}"
    )

    hit_rate = metrics.cache_hit_rate(counters)
    hits = metrics.counter_total(counters, "serve.cache.hits")
    misses = metrics.counter_total(counters, "serve.cache.misses")
    rate_text = f"{hit_rate:.1%}" if hit_rate is not None else "-"
    lines.append(
        f"cache       hit rate {rate_text}  "
        f"hits {_fmt_count(hits)}  misses {_fmt_count(misses)}"
    )

    retried = metrics.counter_total(counters, "serve.retry.scheduled")
    exhausted = metrics.counter_total(counters, "serve.retry.exhausted")
    rejected = metrics.counter_total(counters, "serve.rejected")
    worker_lost = metrics.counter_total(counters, "serve.worker.lost")
    respawns = metrics.counter_total(counters, "serve.pool.respawns")
    dlq_added = metrics.counter_total(counters, "serve.dlq.added")
    dlq_depth = gauges.get("serve.dlq.depth", 0.0)
    if retried or exhausted or rejected or worker_lost or dlq_added or dlq_depth:
        lines.append(
            f"resilience  retried {_fmt_count(retried)}  "
            f"exhausted {_fmt_count(exhausted)}  "
            f"rejected {_fmt_count(rejected)}  "
            f"worker-lost {_fmt_count(worker_lost)} "
            f"(respawns {_fmt_count(respawns)})  "
            f"dlq {_fmt_count(dlq_depth)} (+{_fmt_count(dlq_added)})"
        )

    trips = {
        labels.get("limit", "?"): value
        for key, value in counters.items()
        for name, labels in (metrics.decode_key(key),)
        if name == "guard.trips"
    }
    if trips:
        breakdown = "  ".join(
            f"{limit}={_fmt_count(count)}" for limit, count in sorted(trips.items())
        )
        lines.append(f"guard trips {breakdown}")

    heartbeats = []
    for key, value in sorted(gauges.items()):
        name, labels = metrics.decode_key(key)
        if name == "serve.job.heartbeat_s" and value:
            heartbeats.append(f"{labels.get('procedure', '?')} {value:g}s")
    if heartbeats:
        lines.append(f"running     {'  '.join(heartbeats)}")

    progress_rows: dict[tuple[str, str], dict[str, float]] = {}
    for key, value in gauges.items():
        name, labels = metrics.decode_key(key)
        if not name.startswith("progress."):
            continue
        ident = (labels.get("site", "?"), labels.get("worker", "-"))
        progress_rows.setdefault(ident, {})[name[len("progress."):]] = value
    if progress_rows:
        lines.append("")
        site_width = max(
            len("search site"), max(len(site) for site, _ in progress_rows)
        )
        lines.append(
            f"{'search site':<{site_width}}  {'worker':>6}  {'steps':>10}  "
            f"{'frontier':>9}  {'steps/s':>10}"
        )
        lines.append("-" * len(lines[-1]))
        for (site, worker), fields in sorted(progress_rows.items()):
            steps_per_s = fields.get("steps_per_s")
            lines.append(
                f"{site:<{site_width}}  {worker:>6}  "
                f"{_fmt_count(fields.get('steps', 0.0)):>10}  "
                f"{_fmt_count(fields.get('frontier', 0.0)):>9}  "
                + (
                    f"{steps_per_s:>10.0f}"
                    if steps_per_s is not None
                    else f"{'-':>10}"
                )
            )

    latency_rows = []
    for key, dump in sorted(histograms.items()):
        name, labels = metrics.decode_key(key)
        if name != "serve.job.latency_s" or not dump.get("count"):
            continue
        readout = metrics.histogram_readout(dump)
        latency_rows.append((labels.get("procedure", key), readout))
    if latency_rows:
        lines.append("")
        width = max(len("procedure"), max(len(p) for p, _ in latency_rows))
        lines.append(
            f"{'procedure':<{width}}  {'count':>6}  {'p50':>9}  {'p90':>9}  "
            f"{'p99':>9}  {'max':>9}"
        )
        lines.append("-" * len(lines[-1]))
        for procedure, readout in latency_rows:
            lines.append(
                f"{procedure:<{width}}  {readout['count']:>6}  "
                f"{format_seconds(readout['p50']):>9}  "
                f"{format_seconds(readout['p90']):>9}  "
                f"{format_seconds(readout['p99']):>9}  "
                f"{format_seconds(readout['max']):>9}"
            )
    else:
        lines.append("")
        lines.append("no job latency samples yet")
    lines.append("")
    return "\n".join(lines)


def run_top(
    path: str,
    interval_s: float = 1.0,
    once: bool = False,
    clear: bool = True,
    out=None,
) -> int:
    """The dashboard loop; returns an exit code."""
    out = out if out is not None else sys.stdout
    prev: dict[str, Any] | None = None
    while True:
        snap = metrics.last_snapshot(path)
        if snap is None:
            if once:
                print(f"{path}: no metrics snapshot yet", file=sys.stderr)
                return 1
            frame = f"waiting for metrics snapshots in {path} ...\n"
        else:
            frame = render(snap, prev)
            prev = snap
        if clear and not once:
            out.write("\x1b[2J\x1b[H")
        out.write(frame)
        out.flush()
        if once:
            return 0
        try:
            time.sleep(interval_s)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            return 0


def add_parser(subparsers, common=None) -> None:
    """Register the ``top`` subcommand on the serve CLI."""
    top = subparsers.add_parser(
        "top", help="live dashboard over a metrics snapshot file"
    )
    top.add_argument(
        "metrics",
        nargs="?",
        default=os.environ.get(metrics.METRICS_ENV_VAR),
        help="metrics JSONL path (default: $REPRO_METRICS)",
    )
    top.add_argument(
        "--interval", type=float, default=1.0, help="refresh seconds"
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top.add_argument(
        "--no-clear", action="store_true", help="do not clear the screen"
    )
    top.set_defaults(func=_cmd_top)


def _cmd_top(args: argparse.Namespace) -> int:
    if not args.metrics:
        print(
            "no metrics file: pass a path or set REPRO_METRICS",
            file=sys.stderr,
        )
        return 2
    return run_top(
        args.metrics,
        interval_s=args.interval,
        once=args.once,
        clear=not args.no_clear,
    )


__all__: Sequence[str] = ["render", "run_top", "add_parser"]
