"""Trace loading, per-span aggregation, and the ``python -m repro.obs`` CLI.

CLI::

    python -m repro.obs explain TRACE... [--limit N]
    python -m repro.obs check --baseline B [--metrics SNAP] [--trace TRACE...]
    python -m repro.obs guard

``explain`` (:mod:`repro.obs.explain`) is the human reader of a trace,
``check`` (:mod:`repro.obs.check`) the CI perf tripwire, and ``guard``
lists the checkpoint sites fault injection can target.

Both trace consumers read through :func:`load_events`.  ``TRACE``
arguments may be files or globs (quoted, so the shell does not eat
them), so per-worker spool files read without hand-merging::

    python -m repro.obs explain 'spool/worker-*.jsonl'
"""

from __future__ import annotations

import argparse
import glob as _glob
import sys as _sys
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

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


def load_events(
    patterns: Sequence[str],
    on_skip: Callable[[str], None] | None = None,
) -> list[dict[str, Any]]:
    """Every event in the trace files or globs ``patterns``, leniently.

    A malformed line (one a killed worker cut off mid-write) is skipped
    and reported through ``on_skip``; a file with no valid event at all
    still raises :class:`ValueError`, as does a glob matching nothing.
    With several files, each event carries its file's index as
    ``_source``: span ids restart per file, and
    :func:`repro.obs.critical_path.build_tree` scopes them by it.
    """
    paths = expand_traces(patterns)
    events: list[dict[str, Any]] = []
    for index, path in enumerate(paths):
        for event in iter_events(path, strict=False, on_skip=on_skip):
            if len(paths) > 1:
                event["_source"] = index
            events.append(event)
    return events


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
    explain_parser = subparsers.add_parser(
        "explain",
        help="where the time went, how much work was done, and whether "
        "and why a budget tripped",
    )
    explain_parser.add_argument(
        "trace", nargs="+", help="JSONL trace file(s) or glob pattern(s)"
    )
    explain_parser.add_argument(
        "--limit", type=int, default=None, help="show at most N rows per table"
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
    subparsers.add_parser(
        "guard",
        help="list guarded checkpoint sites (fault-injection span names)",
    )
    args = parser.parse_args(argv)
    if args.command == "guard":
        print(render_guard_map(), end="")
        return 0
    warn = lambda message: print(f"warning: {message}", file=_sys.stderr)  # noqa: E731
    try:
        if args.command == "explain":
            from repro.obs.explain import explain

            code, text = 0, explain(args.trace, limit=args.limit, on_skip=warn)
        elif args.update:
            from repro.obs.check import DEFAULT_HEADROOM, update_baseline

            code, text = update_baseline(
                args.baseline,
                metrics_path=args.metrics,
                trace_paths=args.trace,
                headroom=(
                    args.headroom if args.headroom is not None else DEFAULT_HEADROOM
                ),
                on_skip=warn,
            )
        else:
            from repro.obs.check import run_check

            code, text = run_check(
                args.baseline,
                metrics_path=args.metrics,
                trace_paths=args.trace,
                on_skip=warn,
            )
    except (OSError, ValueError) as error:
        parser.exit(1, f"error: {error}\n")
    print(text, end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
