"""Threshold/SLO checking: the CI perf tripwire.

``python -m repro.obs check --baseline benchmarks/baselines.json
[--metrics SNAP.jsonl] [--trace TRACE.jsonl ...]`` evaluates a metrics
snapshot and/or trace files against a committed baseline and exits
nonzero on any violation — giving CI a regression gate fed by the same
artifacts `serve top` and `obs explain` read, through the same readers:
the newest whole snapshot (:func:`repro.metrics.last_snapshot`, so a
line cut off by a killed writer is passed over) and leniently parsed
trace files or globs (:func:`repro.obs.report.load_events`).

Baseline format (JSON)::

    {
      "_meta": {...},
      "checks": [
        {"name": "pl-p99",             # shown in the verdict line
         "source": "metrics",          # or "trace"
         "select": "serve.job.latency_s{procedure=nonempty_pl}",
         "stat": "p99",                # histogram/gauge/counter stat
         "max": 2.0},                  # and/or "min"
        {"name": "cache-hit-rate",
         "source": "metrics",
         "stat": "cache_hit_rate",     # derived: no select needed
         "min": 0.4},
        {"name": "no-span-errors",
         "source": "trace",
         "select": "nonempty_pl",      # span name
         "stat": "errors", "max": 0}
      ]
    }

Metrics stats: ``value`` (counter total over labeled variants, or
gauge), ``count``, ``sum``, ``mean``, ``p50``, ``p90``, ``p99``,
``min_observed``, ``max_observed`` (histograms), and the derived
``cache_hit_rate``.  Trace stats (per span name): ``count``,
``errors``, ``total_s``, ``mean_s``, ``max_s``.

Bounds are *absolute* numbers committed to the repository.  Wall-clock
bounds therefore carry generous headroom (an order of magnitude over
the benchmarked laptop numbers) — the tripwire catches the 10×
regressions that matter, not machine jitter.  A check whose input was
not provided fails unless marked ``"optional": true``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro import metrics
from repro.obs.report import SpanAggregate, aggregate, load_events


@dataclass
class CheckResult:
    """One evaluated baseline check."""

    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        return f"{status}  {self.name}: {self.detail}"


def _metrics_stat(
    snap: Mapping[str, Any], select: str | None, stat: str
) -> float | None:
    counters = snap.get("counters") or {}
    gauges = snap.get("gauges") or {}
    histograms = snap.get("histograms") or {}
    if stat == "cache_hit_rate":
        return metrics.cache_hit_rate(counters)
    if select is None:
        return None
    if select in histograms:
        readout = metrics.histogram_readout(histograms[select])
        mapped = {
            "count": readout["count"],
            "sum": readout["sum"],
            "mean": readout["mean"],
            "p50": readout["p50"],
            "p90": readout["p90"],
            "p99": readout["p99"],
            "min_observed": readout["min"],
            "max_observed": readout["max"],
        }
        return mapped.get(stat)
    if stat == "value":
        if select in gauges:
            return gauges[select]
        total = metrics.counter_total(counters, metrics.decode_key(select)[0])
        if select in counters:
            return counters[select]
        return total if total else None
    return None


def _trace_stat(
    aggregates: Mapping[str, SpanAggregate], select: str | None, stat: str
) -> float | None:
    if select is None or select not in aggregates:
        return None
    row = aggregates[select]
    mapped = {
        "count": row.count,
        "errors": row.errors,
        "total_s": row.total_s,
        "mean_s": row.total_s / row.count if row.count else None,
        "max_s": row.max_s,
    }
    return mapped.get(stat)


def evaluate(
    baseline: Mapping[str, Any],
    snap: Mapping[str, Any] | None = None,
    trace_aggregates: Mapping[str, SpanAggregate] | None = None,
) -> list[CheckResult]:
    """Run every baseline check against the provided inputs."""
    results: list[CheckResult] = []
    for check in baseline.get("checks", ()):
        name = check.get("name", "<unnamed>")
        source = check.get("source", "metrics")
        select = check.get("select")
        stat = check.get("stat", "value")
        optional = bool(check.get("optional"))
        if source == "metrics":
            provided, value = snap is not None, None
            if snap is not None:
                value = _metrics_stat(snap, select, stat)
        elif source == "trace":
            provided, value = trace_aggregates is not None, None
            if trace_aggregates is not None:
                value = _trace_stat(trace_aggregates, select, stat)
        else:
            results.append(CheckResult(name, False, f"unknown source {source!r}"))
            continue
        if not provided:
            if optional:
                results.append(
                    CheckResult(name, True, f"skipped: no {source} input (optional)")
                )
            else:
                results.append(
                    CheckResult(name, False, f"no {source} input provided")
                )
            continue
        if value is None:
            detail = f"{source} has no {stat!r} for {select!r}"
            results.append(CheckResult(name, optional, detail))
            continue
        lo = check.get("min")
        hi = check.get("max")
        ok = True
        bounds = []
        if lo is not None:
            bounds.append(f">= {lo}")
            ok = ok and value >= lo
        if hi is not None:
            bounds.append(f"<= {hi}")
            ok = ok and value <= hi
        detail = (
            f"{stat}={value:.6g} (want {' and '.join(bounds) or 'anything'})"
        )
        results.append(CheckResult(name, ok, detail))
    return results


def _load_inputs(
    baseline_path: str,
    metrics_path: str | None,
    trace_paths: Sequence[str],
    on_skip: Callable[[str], None] | None,
) -> tuple[dict, Mapping[str, Any] | None, Mapping[str, SpanAggregate] | None]:
    with open(baseline_path, encoding="utf-8") as handle:
        baseline = json.load(handle)
    snap = metrics.last_snapshot(metrics_path) if metrics_path else None
    aggregates = (
        aggregate(load_events(trace_paths, on_skip=on_skip)) if trace_paths else None
    )
    return baseline, snap, aggregates


def run_check(
    baseline_path: str,
    metrics_path: str | None = None,
    trace_paths: Sequence[str] = (),
    on_skip: Callable[[str], None] | None = None,
) -> tuple[int, str]:
    """Evaluate a baseline file; returns (exit code, report text)."""
    baseline, snap, aggregates = _load_inputs(
        baseline_path, metrics_path, trace_paths, on_skip
    )
    if metrics_path and snap is None:
        return 1, f"error: {metrics_path}: no metrics snapshot found\n"
    results = evaluate(baseline, snap, aggregates)
    lines = [result.line() for result in results]
    failed = [result for result in results if not result.ok]
    lines.append("")
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} checks passed"
        + (f"; {len(failed)} FAILED" if failed else "")
    )
    lines.append("")
    return (1 if failed else 0), "\n".join(lines)


#: Default multiplier between a freshly observed value and the bound
#: ``--update`` writes: max bounds get ``value * headroom``, min bounds
#: ``value / headroom`` — an order-of-magnitude tripwire by default.
DEFAULT_HEADROOM = 10.0


def _round_bound(value: float) -> float | int:
    """3 significant figures; integers stay integers."""
    rounded = float(f"{value:.3g}")
    return int(rounded) if rounded == int(rounded) else rounded


def update_baseline(
    baseline_path: str,
    metrics_path: str | None = None,
    trace_paths: Sequence[str] = (),
    headroom: float = DEFAULT_HEADROOM,
    on_skip: Callable[[str], None] | None = None,
) -> tuple[int, str]:
    """Regenerate a baseline's bounds from fresh inputs (``check --update``).

    For every check whose input was provided and whose stat is
    observable, the bounds are rewritten around the observed value:
    ``max`` becomes ``value * headroom`` and ``min`` becomes
    ``value / headroom`` (3 significant figures; a bound of 0 around an
    observed 0 stays 0).  A per-check ``"headroom"`` key overrides the
    multiplier; checks without fresh input are left untouched and
    reported as skipped.  Returns (exit code, report text); exit is
    nonzero only when nothing could be updated.
    """
    if headroom < 1.0:
        raise ValueError("headroom must be >= 1.0")
    baseline, snap, aggregates = _load_inputs(
        baseline_path, metrics_path, trace_paths, on_skip
    )
    lines: list[str] = []
    updated = 0
    for check in baseline.get("checks", ()):
        name = check.get("name", "<unnamed>")
        source = check.get("source", "metrics")
        select = check.get("select")
        stat = check.get("stat", "value")
        if source == "metrics":
            value = _metrics_stat(snap, select, stat) if snap is not None else None
        elif source == "trace":
            value = (
                _trace_stat(aggregates, select, stat)
                if aggregates is not None
                else None
            )
        else:
            lines.append(f"SKIP  {name}: unknown source {source!r}")
            continue
        if value is None:
            lines.append(f"SKIP  {name}: no fresh {source} value for {select!r}")
            continue
        factor = float(check.get("headroom", headroom))
        changes = []
        if "max" in check:
            new_hi = _round_bound(value * factor)
            changes.append(f"max {check['max']} -> {new_hi}")
            check["max"] = new_hi
        if "min" in check:
            new_lo = _round_bound(value / factor)
            changes.append(f"min {check['min']} -> {new_lo}")
            check["min"] = new_lo
        updated += 1
        lines.append(
            f"SET   {name}: observed {stat}={value:.6g}; "
            + ("; ".join(changes) or "no bounds to update")
        )
    if updated:
        meta = baseline.setdefault("_meta", {})
        meta["updated_by"] = (
            "python -m repro.obs check --update"
            + (f" --metrics {metrics_path}" if metrics_path else "")
            + "".join(f" --trace {p}" for p in trace_paths)
        )
        with open(baseline_path, "w", encoding="utf-8") as handle:
            json.dump(baseline, handle, indent=2, sort_keys=True)
            handle.write("\n")
    lines.append("")
    lines.append(
        f"{updated}/{len(baseline.get('checks', ()))} checks re-baselined"
        + ("" if updated else " — nothing written")
    )
    lines.append("")
    return (0 if updated else 1), "\n".join(lines)
