"""Aggregate JSONL traces into a per-procedure report.

CLI::

    python -m repro.obs report TRACE... [--sort total|count|max] [--limit N]

``TRACE`` arguments may be files or globs (quoted, so the shell does
not eat them) — per-worker spool files aggregate without hand-merging::

    python -m repro.obs report 'spool/worker-*.jsonl'

For every span name the report shows how often it ran, total/mean/max
wall-clock, error count, the dominant counters (largest summed deltas),
and the slowest single span with its attributes — enough to see where an
exponential blowup actually landed without opening the raw trace.
Guard trips get their own breakdown.

The sibling subcommands live in their own modules: ``check``
(:mod:`repro.obs.check`, the CI perf tripwire) and ``critical-path``
(:mod:`repro.obs.critical_path`, wall-clock attribution).
"""

from __future__ import annotations

import argparse
import glob as _glob
import sys as _sys
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

from repro.obs._tracer import iter_events

#: How many counters count as "dominant" in the table.
DOMINANT_COUNTERS = 3


@dataclass
class SpanAggregate:
    """Accumulated statistics for one span name."""

    name: str
    count: int = 0
    errors: int = 0
    total_s: float = 0.0
    max_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)
    trips: dict[str, int] = field(default_factory=dict)
    slowest: dict[str, Any] | None = None

    def add(self, event: dict[str, Any]) -> None:
        elapsed = float(event.get("elapsed_s", 0.0))
        self.count += 1
        self.total_s += elapsed
        if event.get("status") == "error":
            self.errors += 1
        tripped = (event.get("attrs") or {}).get("tripped")
        if tripped is not None:
            self.trips[str(tripped)] = self.trips.get(str(tripped), 0) + 1
        for counter, delta in (event.get("counters") or {}).items():
            self.counters[counter] = self.counters.get(counter, 0) + delta
        if elapsed >= self.max_s:
            self.max_s = elapsed
            self.slowest = event

    def dominant_counters(self, limit: int = DOMINANT_COUNTERS) -> list[tuple[str, int]]:
        """The ``limit`` counters with the largest summed deltas."""
        ranked = sorted(self.counters.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:limit]


def aggregate(events: Iterable[dict[str, Any]]) -> dict[str, SpanAggregate]:
    """Fold span events into per-name aggregates (non-span events skipped)."""
    out: dict[str, SpanAggregate] = {}
    for event in events:
        if event.get("event") != "span":
            continue
        name = str(event.get("name", "<unnamed>"))
        out.setdefault(name, SpanAggregate(name)).add(event)
    return out


def expand_traces(patterns: Sequence[str]) -> list[str]:
    """Resolve trace arguments: each is a literal path or a glob pattern."""
    paths: list[str] = []
    for pattern in patterns:
        matches = sorted(_glob.glob(pattern))
        if matches:
            paths.extend(matches)
        elif _glob.has_magic(pattern):
            raise ValueError(f"{pattern}: no trace files match")
        else:
            paths.append(pattern)  # literal path; open() reports the error
    return paths


def iter_all_events(
    paths: Sequence[str],
    strict: bool = True,
    on_skip: Any = None,
) -> Iterable[dict[str, Any]]:
    """Chain :func:`iter_events` over several trace files."""
    for path in paths:
        yield from iter_events(path, strict=strict, on_skip=on_skip)


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:7.2f}ms"
    return f"{seconds * 1e6:7.1f}µs"


def _format_counters(pairs: Sequence[tuple[str, int]]) -> str:
    return ", ".join(f"{name}={value}" for name, value in pairs) or "-"


def render(
    aggregates: dict[str, SpanAggregate],
    sort: str = "total",
    limit: int | None = None,
) -> str:
    """The report as printable text."""
    key = {
        "total": lambda a: -a.total_s,
        "count": lambda a: -a.count,
        "max": lambda a: -a.max_s,
        "name": lambda a: a.name,
    }[sort]
    rows = sorted(aggregates.values(), key=key)
    if limit is not None:
        rows = rows[:limit]
    if not rows:
        return "trace contains no span events\n"
    name_width = max(len(r.name) for r in rows)
    name_width = max(name_width, len("span"))
    lines = [
        f"{'span':<{name_width}}  {'count':>5}  {'err':>3}  {'total':>9}  "
        f"{'mean':>9}  {'max':>9}  dominant counters"
    ]
    lines.append("-" * len(lines[0]))
    for row in rows:
        mean = row.total_s / row.count if row.count else 0.0
        lines.append(
            f"{row.name:<{name_width}}  {row.count:>5}  {row.errors:>3}  "
            f"{_format_seconds(row.total_s):>9}  {_format_seconds(mean):>9}  "
            f"{_format_seconds(row.max_s):>9}  "
            f"{_format_counters(row.dominant_counters())}"
        )
    tripped_rows = [r for r in rows if r.trips]
    if tripped_rows:
        lines.append("")
        lines.append("guard trips:")
        for row in tripped_rows:
            breakdown = ", ".join(
                f"{limit}={count}" for limit, count in sorted(row.trips.items())
            )
            lines.append(f"  {row.name:<{name_width}}  {breakdown}")
    lines.append("")
    lines.append("slowest spans:")
    for row in rows:
        slowest = row.slowest or {}
        attrs = slowest.get("attrs") or {}
        attr_text = (
            " ".join(f"{k}={v}" for k, v in sorted(attrs.items())) or "-"
        )
        lines.append(
            f"  {row.name:<{name_width}}  span_id={slowest.get('span_id', '?')}  "
            f"{_format_seconds(row.max_s).strip():>9}  {attr_text}"
        )
    lines.append("")
    return "\n".join(lines)


def report(
    path: str | Sequence[str],
    sort: str = "total",
    limit: int | None = None,
    strict: bool = True,
    on_skip: Any = None,
) -> str:
    """Aggregate trace file(s)/glob(s) and return the rendered table.

    ``strict=False`` degrades gracefully on truncated/partial JSONL
    lines (killed workers): malformed lines are skipped — reported
    through ``on_skip`` — instead of aborting the whole report.
    """
    patterns = [path] if isinstance(path, str) else list(path)
    paths = expand_traces(patterns)
    aggregates = aggregate(iter_all_events(paths, strict=strict, on_skip=on_skip))
    return render(aggregates, sort=sort, limit=limit)


def render_guard_map() -> str:
    """The registry of guarded checkpoint sites as printable text.

    One row per span usable with :mod:`repro.guard.inject`; ``raising``
    marks sites whose procedures raise :class:`repro.guard.GuardTrip`
    instead of returning an UNKNOWN answer.
    """
    # Checkpoint sites register at import time; pull in every guarded layer
    # so a fresh CLI process sees the full map.
    import repro.analysis.containment  # noqa: F401
    import repro.analysis.equivalence  # noqa: F401
    import repro.analysis.nonemptiness  # noqa: F401
    import repro.analysis.validation  # noqa: F401
    import repro.automata.regular_rewriting  # noqa: F401
    import repro.delta.engine  # noqa: F401
    import repro.logic.rewriting  # noqa: F401
    import repro.logic.sat  # noqa: F401
    import repro.mediator.bounded  # noqa: F401
    import repro.mediator.rewriting_based  # noqa: F401
    import repro.mediator.synthesis  # noqa: F401
    from repro.guard import iter_guarded_spans

    spans = list(iter_guarded_spans())
    if not spans:
        return "no guarded spans registered\n"
    site_width = max(max(len(s.site) for s in spans), len("site"))
    lines = [f"{'site':<{site_width}}  raising  where / covers"]
    lines.append("-" * len(lines[0]))
    for span in spans:
        flag = "yes" if span.raising_only else "no"
        lines.append(f"{span.site:<{site_width}}  {flag:<7}  {span.where}")
        lines.append(f"{'':<{site_width}}  {'':<7}  {span.covers}")
    lines.append("")
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect repro.obs JSONL traces.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    report_parser = subparsers.add_parser(
        "report", help="aggregate trace(s) into a per-procedure table"
    )
    report_parser.add_argument(
        "trace", nargs="+", help="JSONL trace file(s) or glob pattern(s)"
    )
    report_parser.add_argument(
        "--sort",
        choices=("total", "count", "max", "name"),
        default="total",
        help="row ordering (default: total time, descending)",
    )
    report_parser.add_argument(
        "--limit", type=int, default=None, help="show at most N rows"
    )
    subparsers.add_parser(
        "guard",
        help="list guarded checkpoint sites (fault-injection span names)",
    )
    path_parser = subparsers.add_parser(
        "critical-path",
        help="dominant span chain with self-time attribution",
    )
    path_parser.add_argument(
        "trace", nargs="+", help="JSONL trace file(s) or glob pattern(s)"
    )
    path_parser.add_argument(
        "--limit", type=int, default=10, help="self-time ranking rows"
    )
    check_parser = subparsers.add_parser(
        "check",
        help="evaluate metrics/trace artifacts against a committed baseline",
    )
    check_parser.add_argument(
        "--baseline",
        default="benchmarks/baselines.json",
        help="baseline JSON (default: benchmarks/baselines.json)",
    )
    check_parser.add_argument(
        "--metrics", default=None, help="metrics snapshot JSONL to evaluate"
    )
    check_parser.add_argument(
        "--trace",
        nargs="*",
        default=(),
        help="trace file(s)/glob(s) to evaluate",
    )
    check_parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baseline's bounds around freshly observed values",
    )
    check_parser.add_argument(
        "--headroom",
        type=float,
        default=None,
        help="bound multiplier for --update (default: 10x)",
    )
    explain_parser = subparsers.add_parser(
        "explain",
        help="ranked 'why was this solve slow' diagnosis over a trace",
    )
    explain_parser.add_argument(
        "trace", nargs="+", help="JSONL trace file(s) or glob pattern(s)"
    )
    explain_parser.add_argument(
        "--limit", type=int, default=None, help="show at most N findings"
    )
    args = parser.parse_args(argv)
    warn = lambda message: print(f"warning: {message}", file=_sys.stderr)  # noqa: E731
    if args.command == "report":
        try:
            text = report(
                args.trace,
                sort=args.sort,
                limit=args.limit,
                strict=False,
                on_skip=warn,
            )
        except (OSError, ValueError) as error:
            parser.exit(1, f"error: {error}\n")
        print(text, end="")
        return 0
    if args.command == "guard":
        print(render_guard_map(), end="")
        return 0
    if args.command == "critical-path":
        from repro.obs.critical_path import critical_path

        try:
            text = critical_path(
                expand_traces(args.trace),
                limit=args.limit,
                strict=False,
                on_skip=warn,
            )
        except (OSError, ValueError) as error:
            parser.exit(1, f"error: {error}\n")
        print(text, end="")
        return 0
    if args.command == "check":
        from repro.obs.check import DEFAULT_HEADROOM, run_check, update_baseline

        try:
            if args.update:
                code, text = update_baseline(
                    args.baseline,
                    metrics_path=args.metrics,
                    trace_paths=expand_traces(args.trace),
                    headroom=(
                        args.headroom
                        if args.headroom is not None
                        else DEFAULT_HEADROOM
                    ),
                    strict=False,
                    on_skip=warn,
                )
            else:
                code, text = run_check(
                    args.baseline,
                    metrics_path=args.metrics,
                    trace_paths=expand_traces(args.trace),
                    strict=False,
                    on_skip=warn,
                )
        except (OSError, ValueError) as error:
            parser.exit(1, f"error: {error}\n")
        print(text, end="")
        return code
    if args.command == "explain":
        from repro.obs.explain import explain

        try:
            text = explain(
                expand_traces(args.trace), limit=args.limit, on_skip=warn
            )
        except (OSError, ValueError) as error:
            parser.exit(1, f"error: {error}\n")
        print(text, end="")
        return 0
    return 2  # pragma: no cover - argparse enforces the subcommand


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
